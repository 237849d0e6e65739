"""Differential suite: the default fast stack vs the oracle build.

The default build — spatial-index fan-out (one survivor builder,
motion-bounded culling, static replay) and the fused kernel loop — must produce
**bit-identical** :class:`~repro.metrics.ExperimentResult`\\ s (including
``events_executed``) to the slowest, most literal execution path: the
brute-force channel scan and the reference peek-then-pop kernel loop
(``spatial_index=False, fused_kernel=False``).  Every optimisation in the
stack is therefore falsifiable by one equality on the full result
dataclass.

Scenarios are drawn at random by hypothesis across protocol, mobility,
node count, duration and seed.  The moving worlds also draw speed (up to
20 m/s), pause (including 0 s), field size and crash/rejoin churn, so the
motion bound of the fan-out is exercised by radios that genuinely move,
detach and re-attach.  On failure the *runnable spec JSON* is
attached via ``hypothesis.note`` so a counterexample can be replayed with
``python -m repro quick --scenario <file>`` directly.

Example budgets follow the profiles in ``tests/conftest.py`` (``dev``
locally, ``--hypothesis-profile=ci`` in the differential CI job).
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace

import pytest
from hypothesis import currently_in_test_context, given, note
from hypothesis import strategies as st

from repro.builder import NetworkBuilder
from repro.config import MobilityConfig, ScenarioConfig
from repro.scenariospec import ComponentSpec, ScenarioSpec


def make_spec(
    protocol: str, mobile: bool, n: int, duration_s: float, seed: int
) -> ScenarioSpec:
    cfg = replace(
        ScenarioConfig(), node_count=n, duration_s=duration_s, seed=seed
    )
    return ScenarioSpec.from_legacy(cfg, protocol, mobile=mobile)


def run_spec(spec: ScenarioSpec, *, oracle: bool) -> dict:
    """Build + run one spec; the full result dict minus wall-clock time.

    The oracle side disables the runtime-only builder accelerations
    (spatial index, fused kernel) so the comparison pits the *entire* fast
    stack against the most literal execution path.
    """
    net = NetworkBuilder(
        spec, spatial_index=not oracle, fused_kernel=not oracle
    ).build()
    result = asdict(net.run())
    result.pop("wallclock_s")  # the only legitimately nondeterministic field
    return result


def make_moving_spec(
    protocol: str, n: int, duration_s: float, seed: int, *,
    speed_mps: float, pause_s: float, side_m: float, crashes: int,
) -> ScenarioSpec:
    """A random-waypoint world; ``crashes`` > 0 adds crash/rejoin churn."""
    mobility = MobilityConfig(
        speed_mps=speed_mps, pause_s=pause_s,
        field_width_m=side_m, field_height_m=side_m,
    )
    cfg = replace(
        ScenarioConfig(), node_count=n, duration_s=duration_s, seed=seed,
        mobility=mobility,
    )
    spec = ScenarioSpec.from_legacy(cfg, protocol, mobile=True)
    if crashes:
        spec = replace(
            spec,
            faults=ComponentSpec(
                "churn", crash_count=crashes, downtime_s=duration_s / 8
            ),
        )
    return spec


def assert_matches_oracle(
    protocol: str, mobile: bool, n: int, duration_s: float, seed: int
) -> dict:
    """Oracle vs default build: full-result bit identity, spec noted on failure."""
    return assert_spec_matches_oracle(
        make_spec(protocol, mobile, n, duration_s, seed)
    )


def assert_spec_matches_oracle(spec: ScenarioSpec) -> dict:
    """Oracle vs default build of one spec, the runnable spec noted."""
    # Attach the runnable spec JSON to any failure: via hypothesis notes
    # inside property tests, via captured stdout (shown only on failure)
    # for the deterministic cases.
    repro_hint = (
        f"spec (run with `python -m repro quick --scenario <file>`):\n"
        f"{spec.to_json(indent=2)}"
    )
    if currently_in_test_context():
        note(repro_hint)
    else:
        print(repro_hint)
    want = run_spec(spec, oracle=True)
    got = run_spec(spec, oracle=False)
    assert got == want
    assert got["events_executed"] == want["events_executed"] > 0
    return got


class TestRandomScenarioEquivalence:
    """Hypothesis-drawn worlds: the default build reproduces the oracle."""

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=4, max_value=40),
        protocol=st.sampled_from(["basic", "pcmac"]),
        mobile=st.booleans(),
        duration_s=st.sampled_from([2.0, 3.0, 5.0]),
    )
    def test_full_results_bit_identical(self, seed, n, protocol, mobile, duration_s):
        assert_matches_oracle(protocol, mobile, n, duration_s, seed)


class TestMovingWorldEquivalence:
    """Worlds that move: fast legs, no pauses, radios crashing mid-leg.

    The default mobile world (3 m/s after a 3 s pause) barely moves within
    a few seconds; these draws make pairs close and separate at up to
    40 m/s, so a motion bound that under-estimates the drift misses
    arrivals the oracle delivers.
    """

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=4, max_value=25),
        protocol=st.sampled_from(["basic", "pcmac"]),
        speed_mps=st.sampled_from([1.0, 3.0, 8.0, 20.0]),
        pause_s=st.sampled_from([0.0, 0.25, 1.0]),
        side_m=st.sampled_from([400.0, 700.0, 1000.0]),
        crashes=st.integers(min_value=0, max_value=3),
        duration_s=st.sampled_from([2.0, 3.0]),
    )
    def test_moving_worlds_bit_identical(
        self, seed, n, protocol, speed_mps, pause_s, side_m, crashes,
        duration_s,
    ):
        spec = make_moving_spec(
            protocol, n, duration_s, seed, speed_mps=speed_mps,
            pause_s=pause_s, side_m=side_m, crashes=min(crashes, n - 2),
        )
        assert_spec_matches_oracle(spec)

    @pytest.mark.parametrize("protocol", ["basic", "pcmac"])
    def test_fast_churning_world(self, protocol):
        """20 m/s, no pauses, three crash/rejoin cycles: detached radios
        keep moving and must be resolved afresh when they re-attach."""
        spec = make_moving_spec(
            protocol, 20, 4.0, 11, speed_mps=20.0, pause_s=0.0,
            side_m=700.0, crashes=3,
        )
        result = assert_spec_matches_oracle(spec)
        assert result["sent"] > 0


class TestDenseBlockEquivalence:
    """Deterministic worlds with large candidate blocks (n ≥ 64)."""

    @pytest.mark.parametrize("protocol", ["basic", "pcmac"])
    def test_static_dense_world(self, protocol):
        result = assert_matches_oracle(
            protocol, mobile=False, n=80, duration_s=3.0, seed=5
        )
        assert result["sent"] > 0  # non-vacuous: traffic actually flowed

    def test_mobile_dense_world(self):
        """Mobile sources resolve their large candidate block through the
        one survivor builder afresh on every fan-out, bar the pairs the
        motion bound proves out of reach."""
        assert_matches_oracle("basic", mobile=True, n=70, duration_s=3.0, seed=9)


class TestRetiredEngineSlot:
    """Schema-7 specs named an ``engine``; every engine was result-identical,
    so loading drops the component and the scenario is unchanged."""

    def test_schema7_engine_is_dropped(self):
        spec = make_spec("pcmac", True, 10, 2.0, 7)
        old = spec.to_dict()
        old["schema"] = 7
        without = json.loads(json.dumps(old))
        old["components"]["engine"] = {
            "name": "turbo", "params": {"bucket_width_s": 0.05},
        }
        loaded = ScenarioSpec.from_dict(old)
        assert loaded == ScenarioSpec.from_dict(without) == spec
        assert loaded.key() == spec.key()
