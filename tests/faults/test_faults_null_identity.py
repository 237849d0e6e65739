"""The null faults component must be invisible — bit-identical runs.

Mirrors the energy and obs null-identity guards: the ``faults`` slot's
default must add *nothing* — same results, same ``events_executed`` — so
every pre-faults result stays valid.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.campaign.store import result_from_dict, result_to_dict
from repro.config import ScenarioConfig
from repro.scenariospec import ComponentSpec, ScenarioSpec


def small_cfg(**overrides) -> ScenarioConfig:
    defaults = dict(node_count=10, duration_s=5.0, seed=3)
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def strip_wallclock(result):
    """Zero the only legitimately nondeterministic field."""
    return replace(result, wallclock_s=0.0)


class TestNullFaultsIdentity:
    @pytest.mark.parametrize("protocol", ["basic", "pcmac"])
    def test_default_equals_explicit_null(self, protocol):
        default = ScenarioSpec(cfg=small_cfg(), mac=protocol).run()
        explicit = ScenarioSpec(
            cfg=small_cfg(), mac=protocol, faults=ComponentSpec("null")
        ).run()
        assert default.resilience is None and explicit.resilience is None
        assert strip_wallclock(default) == strip_wallclock(explicit)
        assert default.events_executed == explicit.events_executed

    def test_null_faults_wires_nothing(self):
        net = ScenarioSpec(
            cfg=small_cfg(), mac="basic", faults=ComponentSpec("null")
        ).build()
        assert "faults" not in net.extras
        assert "resilience" not in net.extras
        for node in net.nodes:
            assert node.mac.radio.faults is None

    @pytest.mark.parametrize("protocol", ["basic", "pcmac"])
    def test_injection_changes_the_run(self, protocol):
        """The converse guard: a real plan must NOT be a silent no-op."""
        plain = ScenarioSpec(cfg=small_cfg(), mac=protocol).run()
        churned = ScenarioSpec(
            cfg=small_cfg(),
            mac=protocol,
            faults=ComponentSpec("churn", crash_count=2, downtime_s=1.0),
        ).run()
        assert churned.events_executed != plain.events_executed
        assert churned.resilience is not None

    @pytest.mark.parametrize("protocol", ["basic", "pcmac"])
    @pytest.mark.parametrize("mobility", ["static", "waypoint"])
    def test_churn_is_deterministic(self, protocol, mobility):
        """The same churn spec replays to the identical result."""
        spec = ScenarioSpec(
            cfg=small_cfg(),
            mac=protocol,
            mobility=mobility,
            faults=ComponentSpec("churn", crash_count=2, downtime_s=1.0),
        )
        assert strip_wallclock(spec.run()) == strip_wallclock(spec.run())

    def test_resilience_survives_store_round_trip(self):
        spec = ScenarioSpec(
            cfg=small_cfg(),
            mac="basic",
            faults=ComponentSpec("churn", crash_count=1, downtime_s=1.0),
        )
        result = spec.run()
        assert result.resilience is not None
        restored = result_from_dict(result_to_dict(result))
        assert restored == result
