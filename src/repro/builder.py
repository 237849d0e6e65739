"""Composable network construction from a declarative scenario spec.

:class:`NetworkBuilder` turns a :class:`~repro.scenariospec.ScenarioSpec`
into a runnable :class:`~repro.experiments.scenario.BuiltNetwork` by
resolving each scenario slot against its :mod:`repro.registry` registry and
invoking the component factories in a fixed order.  It replaces the old
monolithic ``build_network`` body; the legacy function survives as a thin
compatibility shim over this class.

Per-slot factory contracts
--------------------------
Every factory receives the shared :class:`BuildContext` first, then its
validated params as keyword arguments.  What each slot must return:

``propagation``
    a :class:`~repro.phy.propagation.PropagationModel`.  Context available:
    ``cfg`` only (called first).
``mobility``
    a :class:`MobilityPlan` — the channel-level speed bound plus a per-node
    ``make(node_id, position) -> MobilityModel``.  Context: ``cfg``, ``rngs``.
``placement``
    a list of ``(x, y)`` positions, one per node.  Context adds
    ``data_channel`` / ``control_channel``.
``routing``
    a per-node ``make(node_id) -> routing protocol`` callable.  Context adds
    ``positions`` (so table-driven routing can precompute).
``mac``
    a per-node ``make(node_id, mobility, data_radio) -> MAC`` callable.
    Entries with ``meta={"control_channel": True}`` get a second channel
    wired before any node exists.  Context helper: :meth:`BuildContext.make_radio`.
``traffic``
    called once as ``factory(ctx, nodes, pairs, **params)``; returns the
    list of application sources (already scheduled on the simulator).
``energy``
    an :class:`EnergyPlan` (draw model + wiring options), or ``None`` for
    the null model — then **no** energy instrumentation is attached and the
    run is bit-identical to a pre-energy build.  Context: ``cfg`` only.
``observability``
    an :class:`ObservabilityPlan` (trace categories, probe interval,
    profiling), or ``None`` for the null component — then **no**
    instrumentation is attached and the run is bit-identical to an
    unobserved build.  Context: ``cfg`` only.
``faults``
    a :class:`~repro.faults.plan.FaultPlan` (crash churn, noise bursts,
    link fades, packet corruption), or ``None`` for the null component —
    then **no** injector or resilience monitor is wired and the run is
    bit-identical to a fault-free build (``events_executed`` included).
    Context: ``cfg``, ``rngs`` (the ``"faults"`` stream).
``reception``
    a :class:`~repro.phy.reception.plan.ReceptionPlan` (capture threshold,
    receiver sensitivity), or ``None`` for the null component — then the
    radios keep their inline threshold decode rules and the run is
    bit-identical to a pre-reception build (``events_executed`` included).
    A non-null plan installs one
    :class:`~repro.phy.reception.sinr.SinrReceiver` per radio inside
    :meth:`BuildContext.make_radio`, so data *and* PCMAC control radios get
    the same receiver semantics.  Context: ``cfg`` only.
The call order (and the named RNG streams each builtin consumes) reproduces
the historical ``build_network`` exactly, which is what keeps the
compatibility shim bit-identical — verified by
``tests/test_builder_compat.py``.
"""

from __future__ import annotations

import gc
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.config import ScenarioConfig
from repro.metrics.collector import MetricsCollector
from repro.mobility.base import MobilityModel, Position
from repro.phy.channel import Channel
from repro.phy.noise import ConstantNoise
from repro.phy.radio import Radio
from repro.registry import ComponentEntry, registry
from repro.scenariospec import ScenarioSpec
from repro.sim.kernel import Simulator, collector_paused
from repro.sim.rng import RngRegistry
from repro.sim.trace import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.energy.model import EnergyModel
    from repro.experiments.scenario import BuiltNetwork
    from repro.faults.plan import FaultPlan
    from repro.net.node import Node
    from repro.phy.propagation import PropagationModel
    from repro.phy.reception.plan import ReceptionPlan


@dataclass(frozen=True)
class EnergyPlan:
    """What a (non-null) energy component returns: model + wiring options."""

    #: Per-state draw model applied to every metered radio.
    model: "EnergyModel"
    #: Finite per-node battery capacity [J]; 0 means mains-powered (no
    #: battery object, no depletion events — the event schedule then stays
    #: identical to an unmetered run).  A tuple gives node ``i`` capacity
    #: ``battery_j[i]`` (length must equal the node count; 0 entries stay
    #: mains-powered), so heterogeneous-lifetime scenarios are pure data.
    battery_j: "float | tuple[float, ...]" = 0.0
    #: Also meter PCMAC's control radio (off by default: the paper treats
    #: the power control channel as a negligible, low-rate transceiver —
    #: see docs/model-assumptions.md).
    meter_control: bool = False


@dataclass(frozen=True)
class ObservabilityPlan:
    """What a (non-null) observability component returns: what to record.

    Every field defaults to "off"; the null component returns ``None``
    instead (zero wiring, bit-identical — the energy-slot precedent).
    Trace collection and profiling are passive (no scheduled events, so
    ``events_executed`` is unchanged); probes schedule sampling events and
    therefore legitimately change the executed event count — which is why
    observability is a *spec* slot, hashed into the scenario's content key.
    """

    #: Trace categories to record (counters are always on regardless).
    trace_categories: tuple[str, ...] = ()
    #: Override the tracer's stored-record cap; 0 keeps the default.
    max_records: int = 0
    #: Gauge sampling period [s]; 0 disables probes.
    probe_interval_s: float = 0.0
    #: Gauges to sample (empty = every registered gauge).
    gauges: tuple[str, ...] = ()
    #: Sample the run's CPU time by layer and root handler
    #: (:class:`~repro.obs.profile.Sampler`).
    profile: bool = False


@dataclass(frozen=True)
class MobilityPlan:
    """What a mobility component returns: a speed bound + per-node factory."""

    #: Upper bound on any node's speed [m/s]; sizes the channels' spatial
    #: index drift pad (0 pins the index, matching immobile scenarios).
    max_speed_mps: float
    #: ``make(node_id, initial_position) -> MobilityModel``.
    make: Callable[[int, Position], MobilityModel]


@dataclass
class BuildContext:
    """Shared state handed to every component factory.

    Populated progressively in build order — a factory may rely on every
    field the contract table in the module docstring lists for its slot.
    """

    spec: ScenarioSpec
    cfg: ScenarioConfig
    sim: Simulator
    rngs: RngRegistry
    tracer: Tracer
    noise: ConstantNoise
    propagation: "PropagationModel | None" = None
    mobility_plan: MobilityPlan | None = None
    energy_plan: EnergyPlan | None = None
    obs_plan: ObservabilityPlan | None = None
    fault_plan: "FaultPlan | None" = None
    reception_plan: "ReceptionPlan | None" = None
    data_channel: Channel | None = None
    control_channel: Channel | None = None
    positions: list[Position] = field(default_factory=list)

    def make_radio(
        self, node_id: int, mobility: MobilityModel, channel_name: str
    ) -> Radio:
        """A radio with the scenario's PHY thresholds on ``channel_name``.

        Every radio in the build — data and PCMAC control alike — comes
        through here, which is what makes it the single wiring point for the
        ``reception`` slot: a non-null plan installs a SINR receiver on the
        radio before anything else sees it.
        """
        radio = Radio(
            self.sim,
            node_id,
            mobility=mobility,
            rx_threshold_w=self.cfg.phy.rx_threshold_w,
            cs_threshold_w=self.cfg.phy.cs_threshold_w,
            capture_threshold=self.cfg.phy.capture_threshold,
            noise=self.noise,
            tracer=self.tracer,
            channel_name=channel_name,
        )
        if self.reception_plan is not None:
            from repro.phy.reception.sinr import SinrReceiver

            radio.reception = SinrReceiver(radio, self.reception_plan)
        return radio


def pick_flow_pairs(
    rngs: RngRegistry, node_count: int, flow_count: int
) -> list[tuple[int, int]]:
    """Random distinct (src, dst) pairs, src ≠ dst, no repeated pair.

    Draws from the ``"flows"`` stream — the same consumption as every
    historical scenario, so seeds reproduce identical endpoints.
    """
    rng = rngs.stream("flows")
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    guard = 0
    while len(pairs) < flow_count:
        src = int(rng.integers(0, node_count))
        dst = int(rng.integers(0, node_count))
        guard += 1
        if guard > 100 * flow_count:
            raise RuntimeError("could not find enough distinct flow pairs")
        if src == dst or (src, dst) in seen:
            continue
        seen.add((src, dst))
        pairs.append((src, dst))
    return pairs


def _wire_energy(ctx: BuildContext, node: "Node", radio: Radio) -> None:
    """Attach meters (and optionally a battery) to one node's radios.

    Only called for non-null energy plans, so the null model leaves the
    network object graph — and therefore the event schedule — untouched.
    The data radio is always metered; PCMAC's control radio only when the
    plan asks (its radio hangs off ``mac.control``).  A finite battery
    installs the node-death hook: power off the meters (the battery does
    that first), detach every radio from its channel, shut the MAC down,
    and notify routing — neighbours then discover the dead hop through the
    normal retry/RERR machinery and route around it.
    """
    from repro.energy.battery import Battery
    from repro.energy.meter import EnergyLedger, RadioPowerMeter

    plan = ctx.energy_plan
    battery_j = plan.battery_j
    if isinstance(battery_j, tuple):
        battery_j = battery_j[node.node_id]
    battery = Battery(ctx.sim, battery_j) if battery_j > 0 else None
    ledger = EnergyLedger(node.node_id, battery=battery)
    radio.power_meter = RadioPowerMeter(
        ctx.sim, plan.model, ledger, battery=battery
    )
    control_agent = getattr(node.mac, "control", None)
    if plan.meter_control and control_agent is not None:
        control_agent.radio.power_meter = RadioPowerMeter(
            ctx.sim, plan.model, ledger, battery=battery
        )
    node.energy = ledger

    if battery is not None:
        data_channel = ctx.data_channel
        control_channel = ctx.control_channel

        def _drop_orphan(packet) -> None:
            # Mirror AODV's link-failure accounting: only data packets are
            # metered losses; routing control traffic just evaporates.
            if getattr(packet, "kind", None) == "data":
                node.metrics_drop(packet, "node_dead")

        def _on_depleted(now: float) -> None:
            ledger.died_at_s = now
            data_channel.detach(radio)
            if control_agent is not None and control_channel is not None:
                control_channel.detach(control_agent.radio)
            node.mac.shutdown(on_packet_drop=_drop_orphan)
            node.routing.on_node_down()

        battery.on_depleted.append(_on_depleted)


#: ``[full collections, allocated blocks]`` at the last full collection
#: :func:`_collect_if_grown` knows of; ``-1`` until the first build.
#: Process-wide, as are the heap and the collector it describes.
_heap_mark = [-1, 0]


def _collect_if_grown() -> None:
    """Run one full collection if the heap grew by a quarter since the last.

    CPython runs a full pass once its long-lived objects have grown by a
    quarter, and that pass is what frees a network dropped after its run
    (its reference cycles).  Builds and runs pause the collector, so in a
    process that runs cell after cell the pass would hardly ever come and
    dead networks would pile up.  This applies the same rule, counted in
    allocated blocks, at the one point where it matters: before a build
    allocates the next network.  When anyone ran a full collection since
    the mark was taken (the generation-2 count of :func:`gc.get_stats`
    moved), the mark is re-taken instead.  A caller that disabled the
    collector gets no collection.
    """
    if not gc.isenabled():
        return
    full = gc.get_stats()[2]["collections"]
    blocks = sys.getallocatedblocks()
    if full == _heap_mark[0]:
        if 4 * (blocks - _heap_mark[1]) < _heap_mark[1]:
            return
        gc.collect()
        full = gc.get_stats()[2]["collections"]
        blocks = sys.getallocatedblocks()
    _heap_mark[:] = full, blocks


class NetworkBuilder:
    """Wire a complete network for one :class:`ScenarioSpec`.

    Runtime-only knobs (they do not change what is simulated, so they are
    deliberately *not* part of the spec's content hash):

    Args:
        spec: the declarative scenario.
        tracer: optional tracer shared by every layer.
        spatial_index: use the channels' uniform-grid fan-out (default).
            The brute-force scan is event-schedule bit-identical (enforced
            by the PHY equivalence suite); the flag only trades build/lookup
            overhead against per-frame fan-out cost.
        fused_kernel: use the kernel's fused single-traversal hot loop
            (default).  ``False`` selects the reference peek-then-pop loop —
            dispatch is bit-identical (enforced by the kernel equivalence
            suite); the flag only selects the loop implementation.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        *,
        tracer: Tracer | None = None,
        spatial_index: bool = True,
        fused_kernel: bool = True,
    ) -> None:
        self.spec = spec
        self.tracer = tracer or NULL_TRACER
        self.spatial_index = spatial_index
        self.fused_kernel = fused_kernel

    # ------------------------------------------------------------------ util

    def _resolve(self) -> dict[str, tuple[ComponentEntry, dict[str, Any]]]:
        """Look up every slot's component and validate its params up front.

        Unknown names raise :class:`~repro.registry.UnknownComponentError`
        (listing what is registered); bad params raise
        :class:`~repro.registry.ParamError` naming the offending key —
        before any expensive construction happens.
        """
        resolved: dict[str, tuple[ComponentEntry, dict[str, Any]]] = {}
        for slot, comp in self.spec.components().items():
            entry = registry(slot).get(comp.name)
            resolved[slot] = (entry, entry.validate(comp.params_dict))
        return resolved

    def _apply_observability(self, ctx: BuildContext) -> None:
        """Configure tracing from a non-null observability plan.

        Runs before any radio/MAC/node binds its trace handles, so a tracer
        created here is the one every layer records into.  The process-wide
        :data:`~repro.sim.trace.NULL_TRACER` is never mutated — when the
        caller did not supply a tracer and the plan wants trace collection,
        a fresh per-build tracer replaces it.
        """
        plan = ctx.obs_plan
        if plan.trace_categories or plan.max_records:
            if ctx.tracer is NULL_TRACER:
                ctx.tracer = Tracer(
                    enabled_categories=plan.trace_categories,
                    max_records=plan.max_records or Tracer.DEFAULT_MAX_RECORDS,
                )
            else:
                ctx.tracer.enable(*plan.trace_categories)
                if plan.max_records:
                    ctx.tracer.max_records = plan.max_records

    # ----------------------------------------------------------------- build

    def build(self) -> "BuiltNetwork":
        """Construct the network (see the module docstring for the order).

        First frees old cyclic garbage if the heap has grown by a quarter
        (:func:`_collect_if_grown`), so a network dropped after its run is
        gone before the next one is allocated.  The build itself runs with
        the cyclic garbage collector paused
        (:func:`~repro.sim.kernel.collector_paused`), as
        :meth:`~repro.sim.kernel.Simulator.run_until` does: a build
        allocates over a hundred thousand long-lived objects on a 2000-node
        field and leaves no cyclic garbage, so collector passes here would
        only walk them.  The collector is re-enabled on return or on error
        if it was enabled on entry.
        """
        _collect_if_grown()
        with collector_paused():
            return self._build()

    def _build(self) -> "BuiltNetwork":
        from repro.experiments.scenario import BuiltNetwork

        spec = self.spec
        cfg = spec.cfg
        resolved = self._resolve()
        mac_entry, mac_params = resolved["mac"]
        mobility_entry, mobility_params = resolved["mobility"]
        routing_entry, routing_params = resolved["routing"]

        if routing_entry.meta.get("requires_immobile") and not mobility_entry.meta.get(
            "immobile"
        ):
            raise ValueError(
                f"routing {routing_entry.name!r} requires immobile nodes; "
                f"use mobility 'static' (got {mobility_entry.name!r})"
            )

        ctx = BuildContext(
            spec=spec,
            cfg=cfg,
            sim=Simulator(fused=self.fused_kernel),
            rngs=RngRegistry(cfg.seed),
            tracer=self.tracer,
            noise=ConstantNoise(cfg.phy.noise_floor_w),
        )

        prop_entry, prop_params = resolved["propagation"]
        ctx.propagation = prop_entry.factory(ctx, **prop_params)

        energy_entry, energy_params = resolved["energy"]
        ctx.energy_plan = energy_entry.factory(ctx, **energy_params)
        if ctx.energy_plan is not None and isinstance(
            ctx.energy_plan.battery_j, tuple
        ):
            if len(ctx.energy_plan.battery_j) != cfg.node_count:
                raise ValueError(
                    f"energy {energy_entry.name!r}: battery_j lists "
                    f"{len(ctx.energy_plan.battery_j)} capacities for "
                    f"{cfg.node_count} nodes"
                )

        obs_entry, obs_params = resolved["observability"]
        ctx.obs_plan = obs_entry.factory(ctx, **obs_params)
        if ctx.obs_plan is not None:
            self._apply_observability(ctx)

        faults_entry, faults_params = resolved["faults"]
        ctx.fault_plan = faults_entry.factory(ctx, **faults_params)

        reception_entry, reception_params = resolved["reception"]
        ctx.reception_plan = reception_entry.factory(ctx, **reception_params)

        ctx.mobility_plan = mobility_entry.factory(ctx, **mobility_params)
        channel_kwargs = dict(
            interference_floor_w=cfg.phy.interference_floor_w,
            model_propagation_delay=cfg.phy.model_propagation_delay,
            spatial_index=self.spatial_index,
            max_tx_power_w=cfg.phy.max_power_w,
            max_speed_mps=ctx.mobility_plan.max_speed_mps,
        )
        ctx.data_channel = Channel(
            ctx.sim, ctx.propagation, name="data", **channel_kwargs
        )
        if mac_entry.meta.get("control_channel"):
            ctx.control_channel = Channel(
                ctx.sim, ctx.propagation, name="control", **channel_kwargs
            )

        placement_entry, placement_params = resolved["placement"]
        ctx.positions = list(placement_entry.factory(ctx, **placement_params))
        if len(ctx.positions) != cfg.node_count:
            raise ValueError(
                f"placement {placement_entry.name!r} produced "
                f"{len(ctx.positions)} positions for {cfg.node_count} nodes"
            )

        make_router = routing_entry.factory(ctx, **routing_params)
        make_mac = mac_entry.factory(ctx, **mac_params)

        metrics = MetricsCollector()
        metrics.measure_start_s = cfg.traffic.start_time_s

        from repro.net.node import Node

        nodes: list[Node] = []
        for i in range(cfg.node_count):
            mobility = ctx.mobility_plan.make(i, ctx.positions[i])
            radio = ctx.make_radio(i, mobility, "data")
            ctx.data_channel.attach(radio)
            mac = make_mac(i, mobility, radio)
            router = make_router(i)
            node = Node(
                ctx.sim,
                i,
                mobility=mobility,
                mac=mac,
                routing=router,
                metrics=metrics,
                rngs=ctx.rngs,
                tracer=ctx.tracer,
            )
            if ctx.energy_plan is not None:
                _wire_energy(ctx, node, radio)
            nodes.append(node)

        if spec.flow_pairs is not None:
            for src, dst in spec.flow_pairs:
                if not (0 <= src < cfg.node_count and 0 <= dst < cfg.node_count):
                    raise ValueError(
                        f"flow pair ({src}, {dst}) out of range for "
                        f"{cfg.node_count} nodes"
                    )
            pairs = [tuple(p) for p in spec.flow_pairs]
        else:
            pairs = pick_flow_pairs(
                ctx.rngs, cfg.node_count, cfg.traffic.flow_count
            )
        traffic_entry, traffic_params = resolved["traffic"]
        sources = traffic_entry.factory(ctx, nodes, pairs, **traffic_params)

        extras: dict[str, Any] = {}
        if ctx.obs_plan is not None and ctx.obs_plan.profile:
            from repro.obs.profile import Sampler

            extras["profiler"] = Sampler()
        if ctx.obs_plan is not None and ctx.obs_plan.probe_interval_s > 0:
            from repro.obs.probes import GaugeSampler

            extras["sampler"] = GaugeSampler(
                ctx.sim,
                nodes,
                interval_s=ctx.obs_plan.probe_interval_s,
                horizon_s=cfg.duration_s,
                gauges=ctx.obs_plan.gauges,
            )

        if ctx.fault_plan is not None:
            from repro.faults.injector import FaultInjector
            from repro.faults.resilience import ResilienceMonitor

            injector = FaultInjector(
                ctx.sim,
                nodes,
                plan=ctx.fault_plan,
                data_channel=ctx.data_channel,
                control_channel=ctx.control_channel,
                tracer=ctx.tracer,
                rng=ctx.rngs.stream("faults.runtime"),
            )
            injector.arm(cfg.duration_s)
            extras["faults"] = injector
            if ctx.fault_plan.resilience_interval_s > 0:
                extras["resilience"] = ResilienceMonitor(
                    ctx.sim,
                    metrics,
                    ctx.fault_plan,
                    interval_s=ctx.fault_plan.resilience_interval_s,
                    horizon_s=cfg.duration_s,
                )

        return BuiltNetwork(
            sim=ctx.sim,
            cfg=cfg,
            protocol=spec.mac.name,
            nodes=nodes,
            metrics=metrics,
            sources=list(sources),
            flow_pairs=pairs,
            tracer=ctx.tracer,
            data_channel=ctx.data_channel,
            control_channel=ctx.control_channel,
            rngs=ctx.rngs,
            extras=extras,
            spec=spec,
        )
