"""NetworkBuilder tests: legacy-shim bit-identity, components, validation.

The headline regression: ``build_network(cfg, protocol, ...)`` is now a thin
shim translating its keywords onto a :class:`ScenarioSpec`; results through
the shim must be **bit-identical** to the declarative path (same floats,
same event counts, same per-flow summaries) for every legacy keyword
combination.
"""

from __future__ import annotations

import gc
from dataclasses import replace

import pytest

import repro.builder
from repro.builder import NetworkBuilder
from repro.config import MobilityConfig, ScenarioConfig, TrafficConfig
from repro.experiments.scenario import build_network
from repro.phy.propagation import LogDistanceShadowing
from repro.registry import ParamError, UnknownComponentError
from repro.scenariospec import ComponentSpec, ScenarioSpec
from tests.sim.collector import grow_heap_by_a_third, old_cyclic_garbage


def small_cfg(**overrides) -> ScenarioConfig:
    defaults = dict(
        node_count=8,
        duration_s=5.0,
        seed=2,
        traffic=TrafficConfig(flow_count=2, offered_load_bps=100e3),
        mobility=MobilityConfig(field_width_m=350.0, field_height_m=350.0),
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def strip_wallclock(result):
    """Wallclock is the only legitimately non-deterministic field."""
    return replace(result, wallclock_s=0.0)


CHAIN_POSITIONS = ((0.0, 0.0), (100.0, 0.0), (310.0, 0.0), (550.0, 0.0))


class TestShimBitIdentity:
    @pytest.mark.parametrize("protocol", ["basic", "pcmac", "scheme1", "scheme2"])
    def test_mobile_default_scenario(self, protocol):
        legacy = build_network(small_cfg(), protocol).run()
        spec = ScenarioSpec(cfg=small_cfg(), mac=protocol)
        declarative = NetworkBuilder(spec).build().run()
        assert strip_wallclock(legacy) == strip_wallclock(declarative)

    @pytest.mark.parametrize("protocol", ["basic", "pcmac"])
    def test_static_chain_with_every_override(self, protocol):
        cfg = ScenarioConfig(
            node_count=4,
            duration_s=8.0,
            seed=11,
            traffic=TrafficConfig(flow_count=2, offered_load_bps=900e3),
            mobility=MobilityConfig(speed_mps=0.0),
        )
        legacy = build_network(
            cfg,
            protocol,
            positions=list(CHAIN_POSITIONS),
            mobile=False,
            routing="static",
            flow_pairs=[(0, 1), (2, 3)],
        ).run()
        spec = ScenarioSpec(
            cfg=cfg,
            mac=protocol,
            placement=ComponentSpec("explicit", positions=CHAIN_POSITIONS),
            mobility="static",
            routing="static",
            flow_pairs=((0, 1), (2, 3)),
        )
        declarative = NetworkBuilder(spec).build().run()
        assert strip_wallclock(legacy) == strip_wallclock(declarative)

    def test_propagation_override(self):
        model = LogDistanceShadowing(exponent=3.0)
        legacy = build_network(small_cfg(), "basic", propagation=model).run()
        spec = ScenarioSpec.from_legacy(small_cfg(), "basic", propagation=model)
        declarative = NetworkBuilder(spec).build().run()
        assert strip_wallclock(legacy) == strip_wallclock(declarative)

    def test_shim_attaches_the_spec(self):
        net = build_network(small_cfg(), "basic")
        assert net.spec is not None
        assert net.spec.mac.name == "basic"
        assert net.spec.key() == ScenarioSpec(cfg=small_cfg(), mac="basic").key()


class TestNewComponentsEndToEnd:
    """The extension point: data-only components, zero builder changes."""

    def test_grid_placement_runs(self):
        spec = ScenarioSpec(cfg=small_cfg(), placement="grid", mobility="static")
        net = spec.build()
        xs = {p[0] for p in (n.position for n in net.nodes)}
        assert len(xs) <= 3  # 8 nodes -> 3-column grid
        result = net.run()
        assert result.events_executed > 0

    def test_cluster_placement_runs_and_is_seed_deterministic(self):
        spec = ScenarioSpec(
            cfg=small_cfg(),
            placement=ComponentSpec("cluster", clusters=2, spread_m=40.0),
        )
        a = spec.build()
        b = spec.build()
        assert [n.position for n in a.nodes] == [n.position for n in b.nodes]
        width = small_cfg().mobility.field_width_m
        for node in a.nodes:
            x, y = node.position
            assert 0.0 <= x <= width and 0.0 <= y <= width

    def test_line_placement_params(self):
        spec = ScenarioSpec(
            cfg=small_cfg(),
            placement=ComponentSpec("line", spacing_m=50.0),
            mobility="static",
        )
        net = spec.build()
        assert [n.position for n in net.nodes] == [
            (i * 50.0, 0.0) for i in range(8)
        ]

    def test_poisson_traffic_runs_and_differs_from_cbr(self):
        base = small_cfg()
        cbr = ScenarioSpec(cfg=base, traffic="cbr").run()
        poisson = ScenarioSpec(cfg=base, traffic="poisson").run()
        assert poisson.events_executed > 0
        # Same mean rate, different arrival process: schedules must differ.
        assert poisson.events_executed != cbr.events_executed

    def test_data_only_scenario_key_independent_of_call_site(self):
        spec = ScenarioSpec(
            cfg=small_cfg(), placement="grid", traffic="poisson", mobility="static"
        )
        json_spec = ScenarioSpec.from_json(spec.to_json())
        assert json_spec.key() == spec.key()
        assert strip_wallclock(NetworkBuilder(spec).build().run()) == strip_wallclock(
            NetworkBuilder(json_spec).build().run()
        )


class TestBuilderValidation:
    def test_unknown_mac_component(self):
        with pytest.raises(UnknownComponentError, match="pcmac"):
            ScenarioSpec(cfg=small_cfg(), mac="csma-cd").build()

    def test_unknown_component_via_legacy_shim(self):
        with pytest.raises(ValueError):
            build_network(small_cfg(), "csma-cd")

    def test_bad_param_names_offending_key(self):
        spec = ScenarioSpec(
            cfg=small_cfg(), placement=ComponentSpec("cluster", clusterz=3)
        )
        with pytest.raises(ParamError, match="clusterz"):
            spec.build()

    def test_static_routing_requires_immobile_nodes(self):
        spec = ScenarioSpec(cfg=small_cfg(), routing="static")  # waypoint default
        with pytest.raises(ValueError, match="immobile"):
            spec.build()

    def test_out_of_range_flow_pair(self):
        spec = ScenarioSpec(cfg=small_cfg(), flow_pairs=((0, 8),))
        with pytest.raises(ValueError, match=r"\(0, 8\) out of range"):
            spec.build()
        spec = ScenarioSpec(cfg=small_cfg(), flow_pairs=((-1, 2),))
        with pytest.raises(ValueError, match="out of range"):
            spec.build()

    def test_fractional_flow_pair_endpoint_rejected(self):
        with pytest.raises(ValueError, match="0.7"):
            ScenarioSpec(cfg=small_cfg(), flow_pairs=((0.7, 3.2),))
        with pytest.raises(ValueError, match="3.5"):
            ScenarioSpec.from_dict({"flow_pairs": [[0, 3.5]]})

    def test_integral_float_flow_pair_endpoints_load(self):
        spec = ScenarioSpec.from_dict({"flow_pairs": [[0.0, 3.0]]})
        assert spec.flow_pairs == ((0, 3),)
        assert all(type(n) is int for pair in spec.flow_pairs for n in pair)

    def test_empty_measurement_window_raises_before_simulating(self):
        """A horizon at or before the traffic start measures nothing: the
        run refuses it without dispatching a single event."""
        cfg = replace(small_cfg(), duration_s=1.0)  # traffic starts at 1 s
        net = ScenarioSpec(cfg=cfg).build()
        with pytest.raises(ValueError, match="measurement window"):
            net.run()
        assert net.sim.events_executed == 0
        with pytest.raises(ValueError, match="measurement window"):
            ScenarioSpec(cfg=small_cfg()).build().run(measure_from=6.0)

    def test_wrong_position_count(self):
        spec = ScenarioSpec(
            cfg=small_cfg(),
            placement=ComponentSpec("explicit", positions=((0.0, 0.0),)),
        )
        with pytest.raises(ValueError, match="1 positions"):
            spec.build()

    def test_validation_happens_before_construction(self):
        # A bad param in the *traffic* slot (built last) must still fail
        # fast, before any node or channel exists.
        spec = ScenarioSpec(
            cfg=small_cfg(), traffic=ComponentSpec("cbr", burst=4)
        )
        with pytest.raises(ParamError, match="burst"):
            NetworkBuilder(spec).build()


@pytest.mark.usefixtures("collector_on")
class TestCollectorPause:
    """``build`` pauses the cyclic collector and restores the caller's state."""

    def test_paused_during_build_and_restored_after(self, monkeypatch):
        seen = []
        real = repro.builder.MetricsCollector

        def probe():
            seen.append(gc.isenabled())
            return real()

        monkeypatch.setattr(repro.builder, "MetricsCollector", probe)
        NetworkBuilder(ScenarioSpec(cfg=small_cfg())).build()
        assert seen == [False]
        assert gc.isenabled()

    def test_restored_after_a_build_raises(self):
        with pytest.raises(UnknownComponentError):
            ScenarioSpec(cfg=small_cfg(), mac="csma-cd").build()
        assert gc.isenabled()
        spec = ScenarioSpec(cfg=small_cfg(), flow_pairs=((0, 8),))
        with pytest.raises(ValueError, match="out of range"):
            spec.build()
        assert gc.isenabled()

    def test_left_off_if_the_caller_turned_it_off(self):
        gc.disable()
        NetworkBuilder(ScenarioSpec(cfg=small_cfg())).build()
        assert not gc.isenabled()

    def test_a_build_after_a_quarters_growth_frees_old_garbage_first(
        self, monkeypatch
    ):
        build = NetworkBuilder(ScenarioSpec(cfg=small_cfg())).build
        ref = old_cyclic_garbage()
        build()  # marks the heap after old_cyclic_garbage's collections
        kept = grow_heap_by_a_third()
        seen = []
        real = repro.builder.MetricsCollector

        def probe():
            seen.append(ref())
            return real()

        monkeypatch.setattr(repro.builder, "MetricsCollector", probe)
        build()
        assert seen == [None] and kept

    def test_a_build_after_a_small_growth_runs_no_full_collection(
        self, full_collections
    ):
        build = NetworkBuilder(ScenarioSpec(cfg=small_cfg())).build
        build()
        kept = [object() for _ in range(10_000)]
        build()
        assert full_collections == [] and kept

    def test_no_catch_up_when_the_caller_turned_it_off(self, full_collections):
        build = NetworkBuilder(ScenarioSpec(cfg=small_cfg())).build
        gc.disable()
        build()
        kept = grow_heap_by_a_third()
        build()
        assert full_collections == [] and kept
