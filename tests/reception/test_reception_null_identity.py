"""The null reception component must be invisible — bit-identical runs.

Mirrors the energy / obs / faults null-identity guards: the ``reception``
slot's default must add *nothing* — same results, same ``events_executed``
— so every pre-reception result stays valid.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import ScenarioConfig
from repro.scenariospec import ComponentSpec, ScenarioSpec


def small_cfg(**overrides) -> ScenarioConfig:
    defaults = dict(node_count=10, duration_s=5.0, seed=3)
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def strip_wallclock(result):
    """Zero the only legitimately nondeterministic field."""
    return replace(result, wallclock_s=0.0)


class TestNullReceptionIdentity:
    @pytest.mark.parametrize("protocol", ["basic", "pcmac"])
    @pytest.mark.parametrize("mobility", ["static", "waypoint"])
    def test_default_equals_explicit_null(self, protocol, mobility):
        default = ScenarioSpec(
            cfg=small_cfg(), mac=protocol, mobility=mobility
        ).run()
        explicit = ScenarioSpec(
            cfg=small_cfg(),
            mac=protocol,
            mobility=mobility,
            reception=ComponentSpec("null"),
        ).run()
        assert strip_wallclock(default) == strip_wallclock(explicit)
        assert default.events_executed == explicit.events_executed

    def test_null_reception_wires_nothing(self):
        net = ScenarioSpec(
            cfg=small_cfg(), mac="pcmac", reception=ComponentSpec("null")
        ).build()
        for node in net.nodes:
            assert node.mac.radio.reception is None
            control = getattr(node.mac, "control", None)
            if control is not None:
                assert control.radio.reception is None

    @pytest.mark.parametrize("protocol", ["basic", "pcmac"])
    def test_sinr_receiver_is_installed_everywhere(self, protocol):
        net = ScenarioSpec(
            cfg=small_cfg(), mac=protocol, reception=ComponentSpec("sinr")
        ).build()
        for node in net.nodes:
            assert node.mac.radio.reception is not None
            control = getattr(node.mac, "control", None)
            if control is not None:
                assert control.radio.reception is not None

    def test_sinr_changes_a_dense_run(self):
        """The converse guard: the SINR model must NOT be a silent no-op.

        A cramped field forces overlapping transmissions, where cumulative-
        SINR decode decisions (typed drops, sync releases) diverge from the
        inline threshold rules.
        """
        from repro.config import MobilityConfig

        cfg = small_cfg(
            node_count=16,
            duration_s=5.0,
            mobility=MobilityConfig(
                field_width_m=250.0, field_height_m=250.0, speed_mps=0.0
            ),
        )
        plain = ScenarioSpec(cfg=cfg, mac="basic", mobility="static").run()
        sinr = ScenarioSpec(
            cfg=cfg,
            mac="basic",
            mobility="static",
            reception=ComponentSpec("sinr"),
        ).run()
        totals = sinr.mac_totals
        drops = (
            totals["rx_drop_collision"]
            + totals["rx_drop_capture_lost"]
            + totals["rx_drop_below_sensitivity"]
        )
        assert drops > 0
        assert strip_wallclock(plain) != strip_wallclock(sinr)

    def test_schema_5_spec_still_reads(self):
        """A pre-reception (schema 5) spec file loads and defaults to null."""
        spec = ScenarioSpec(cfg=small_cfg())
        payload = spec.to_dict()
        payload["schema"] = 5
        del payload["components"]["reception"]
        restored = ScenarioSpec.from_dict(payload)
        assert restored == spec
        assert restored.reception == ComponentSpec("null")
