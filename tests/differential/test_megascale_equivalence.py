"""Differential suite: the default fast stack vs the oracle build.

The default build — spatial-index fan-out (one survivor builder,
epoch-cached gains, static replay) and the fused kernel loop — must produce
**bit-identical** :class:`~repro.metrics.ExperimentResult`\\ s (including
``events_executed``) to the slowest, most literal execution path: the
brute-force channel scan and the reference peek-then-pop kernel loop
(``spatial_index=False, fused_kernel=False``).  Every optimisation in the
stack is therefore falsifiable by one equality on the full result
dataclass.

Scenarios are drawn at random by hypothesis across protocol, mobility,
node count, duration and seed.  On failure the *runnable spec JSON* is
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
from repro.config import ScenarioConfig
from repro.scenariospec import ScenarioSpec


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


def assert_matches_oracle(
    protocol: str, mobile: bool, n: int, duration_s: float, seed: int
) -> dict:
    """Oracle vs default build: full-result bit identity, spec noted on failure."""
    spec = make_spec(protocol, mobile, n, duration_s, seed)
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


class TestDenseBlockEquivalence:
    """Deterministic worlds with large candidate blocks (n ≥ 64)."""

    @pytest.mark.parametrize("protocol", ["basic", "pcmac"])
    def test_static_dense_world(self, protocol):
        result = assert_matches_oracle(
            protocol, mobile=False, n=80, duration_s=3.0, seed=5
        )
        assert result["sent"] > 0  # non-vacuous: traffic actually flowed

    def test_mobile_dense_world(self):
        """Mobile sources miss the gain cache, so every fan-out resolves its
        large candidate block through the one survivor builder afresh."""
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
