"""Experiment results and the legacy scenario-construction surface.

Scenario *construction* now lives in :class:`~repro.builder.NetworkBuilder`,
driven by a declarative :class:`~repro.scenariospec.ScenarioSpec` whose
slots (mac / placement / mobility / routing / traffic / propagation) resolve
against :mod:`repro.registry`.  This module keeps:

* :class:`ExperimentResult` / :class:`FlowSummary` — the summary of one run;
* :class:`BuiltNetwork` — a fully wired scenario, ready to run;
* :func:`build_network` — the historical keyword API, now a thin
  compatibility shim that translates its arguments into a ``ScenarioSpec``
  and delegates to the builder (bit-identical results, enforced by
  ``tests/test_builder_compat.py``);
* :data:`MAC_REGISTRY` — the historical name → MAC-class mapping, derived
  from the ``mac`` component registry.

Migration: replace ``build_network(cfg, protocol, positions=..., ...)`` with
``ScenarioSpec(cfg=cfg, mac=protocol, placement=ComponentSpec("explicit",
positions=...), ...).build()`` — see the README's Architecture section.
"""

from __future__ import annotations

import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from repro.config import ScenarioConfig
from repro.energy.report import EnergyReport
from repro.faults.resilience import ResilienceReport
from repro.metrics.collector import MetricsCollector
from repro.metrics.fairness import jain_index
from repro.net.node import Node
from repro.obs.probes import TimeSeries
from repro.obs.profile import ProfileReport
from repro.phy.channel import Channel
from repro.registry import registry
from repro.scenariospec import ScenarioSpec
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer


class _MacRegistryView(Mapping):
    """Live name → MAC-class mapping over the ``mac`` component registry.

    Reads the registry on every access (not a snapshot), so protocols
    registered after import genuinely appear here.  Entries without a
    ``cls`` meta key (MACs built by composition rather than one class)
    are omitted.
    """

    def _table(self) -> dict[str, type]:
        return {
            entry.name: entry.meta["cls"]
            for entry in registry("mac").entries()
            if "cls" in entry.meta
        }

    def __getitem__(self, name: str) -> type:
        return self._table()[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._table())

    def __len__(self) -> int:
        return len(self._table())

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"MAC_REGISTRY({self._table()!r})"


#: MAC protocol name → class (compatibility view; the ``mac`` component
#: registry is the source of truth — new protocols registered there appear
#: here automatically).
MAC_REGISTRY: Mapping = _MacRegistryView()


@dataclass(frozen=True)
class FlowSummary:
    """Per-flow outcome carried inside an :class:`ExperimentResult`.

    Kept as plain numbers (not the live ``FlowStats``) so results survive a
    JSON round trip through the campaign result store unchanged.
    """

    flow_id: int
    sent: int
    received: int
    delivery_ratio: float
    throughput_kbps: float
    avg_delay_ms: float


@dataclass
class ExperimentResult:
    """Summary of one simulation run."""

    protocol: str
    offered_load_kbps: float
    duration_s: float
    throughput_kbps: float
    avg_delay_ms: float
    delivery_ratio: float
    fairness: float
    sent: int
    received: int
    drops: dict[str, int]
    mac_totals: dict[str, float]
    routing_totals: dict[str, int]
    events_executed: int
    wallclock_s: float
    seed: int = 0
    #: Per-flow outcomes, in flow-id order (empty for legacy results).
    flows: tuple[FlowSummary, ...] = ()
    #: Full-stack energy accounting (per-node, per-state), present only
    #: when the scenario ran with a non-null ``energy`` component.
    energy: EnergyReport | None = None
    #: Periodic per-node gauge samples, present only when the scenario ran
    #: with a probing ``observability`` component (``probes`` / ``flight``).
    timeseries: TimeSeries | None = None
    #: Sampled CPU attribution by layer and root handler, present only
    #: when the scenario ran with profiling enabled (``flight``
    #: observability).
    profile: ProfileReport | None = None
    #: Delivery-under-faults curves and per-crash reaction times, present
    #: only when the scenario ran with a non-null ``faults`` component.
    resilience: ResilienceReport | None = None

    def row(self) -> str:
        """One formatted table row (load, throughput, delay, PDR)."""
        return (
            f"{self.protocol:<8} load={self.offered_load_kbps:7.1f}kbps  "
            f"thr={self.throughput_kbps:7.1f}kbps  "
            f"delay={self.avg_delay_ms:8.1f}ms  pdr={self.delivery_ratio:5.3f}"
        )


@dataclass
class BuiltNetwork:
    """A fully wired scenario, ready to run."""

    sim: Simulator
    cfg: ScenarioConfig
    protocol: str
    nodes: list[Node]
    metrics: MetricsCollector
    sources: list
    flow_pairs: list[tuple[int, int]]
    tracer: Tracer
    data_channel: Channel
    control_channel: Channel | None
    rngs: RngRegistry
    extras: dict = field(default_factory=dict)
    #: The declarative spec this network was built from (None only for
    #: callers that assemble a BuiltNetwork by hand).
    spec: ScenarioSpec | None = None

    def run(self, *, measure_from: float | None = None) -> ExperimentResult:
        """Execute to ``cfg.duration_s`` and summarise.

        ``measure_from`` defaults to the traffic start time so warm-up does
        not dilute throughput (the denominator is the measured window).
        """
        start = self.cfg.traffic.start_time_s if measure_from is None else measure_from
        window = self.cfg.duration_s - start
        if window <= 0:
            # Checked before simulating: the throughput denominator would
            # be empty only after the whole horizon had been paid for.
            raise ValueError(
                f"empty measurement window: duration_s={self.cfg.duration_s!r} "
                f"ends at or before the measurement start {start!r} "
                "(traffic.start_time_s unless measure_from is given)"
            )
        profiler = self.extras.get("profiler")
        t0 = time.perf_counter()
        with profiler or nullcontext():
            self.sim.run_until(self.cfg.duration_s)
        wall = time.perf_counter() - t0
        if self.tracer.dropped:
            warnings.warn(
                f"trace truncated: {self.tracer.dropped} records beyond "
                f"max_records={self.tracer.max_records} were dropped — "
                "counters are exact but stored records are incomplete "
                "(raise Tracer(max_records=...) or enable fewer categories)",
                RuntimeWarning,
                stacklevel=2,
            )
        mac_totals: dict[str, float] = {}
        for node in self.nodes:
            for key, val in node.mac.stats.as_dict().items():
                mac_totals[key] = mac_totals.get(key, 0) + val
        routing_totals: dict[str, int] = {}
        for node in self.nodes:
            for key, val in node.routing.stats().items():
                routing_totals[key] = routing_totals.get(key, 0) + val
        energy: EnergyReport | None = None
        ledgers = [node.energy for node in self.nodes if node.energy is not None]
        if ledgers:
            # Close every live meter's open state at the horizon; dead
            # nodes were finalized at their death instant already.
            for ledger in ledgers:
                ledger.finalize(self.sim.now)
            model = self.spec.energy.name if self.spec is not None else "custom"
            energy = EnergyReport.from_ledgers(model, ledgers)
        sampler = self.extras.get("sampler")
        timeseries = sampler.timeseries() if sampler is not None else None
        profile = profiler.report(self.sim.events_executed) if profiler else None
        monitor = self.extras.get("resilience")
        resilience = monitor.report() if monitor is not None else None
        per_flow = self.metrics.per_flow_throughput_kbps(window)
        flow_summaries = tuple(
            FlowSummary(
                flow_id=fid,
                sent=st.sent,
                received=st.received,
                delivery_ratio=st.delivery_ratio,
                throughput_kbps=per_flow[fid],
                avg_delay_ms=st.avg_delay_s * 1000.0,
            )
            for fid, st in sorted(self.metrics.flows.items())
        )
        return ExperimentResult(
            protocol=self.protocol,
            offered_load_kbps=self.cfg.traffic.offered_load_bps / 1000.0,
            duration_s=window,
            throughput_kbps=self.metrics.throughput_kbps(window),
            avg_delay_ms=self.metrics.avg_delay_ms(),
            delivery_ratio=self.metrics.delivery_ratio(),
            fairness=jain_index(per_flow.values()),
            sent=self.metrics.total_sent,
            received=self.metrics.total_received,
            drops=dict(self.metrics.drop_breakdown()),
            mac_totals=mac_totals,
            routing_totals=routing_totals,
            events_executed=self.sim.events_executed,
            wallclock_s=wall,
            seed=self.cfg.seed,
            flows=flow_summaries,
            energy=energy,
            timeseries=timeseries,
            profile=profile,
            resilience=resilience,
        )

    def node_by_id(self, node_id: int) -> Node:
        """Fetch a node by id."""
        return self.nodes[node_id]


def build_network(
    cfg: ScenarioConfig,
    protocol: str,
    *,
    positions: Sequence[tuple[float, float]] | None = None,
    mobile: bool = True,
    routing: str = "aodv",
    flow_pairs: Sequence[tuple[int, int]] | None = None,
    tracer: Tracer | None = None,
    propagation=None,
    spatial_index: bool = True,
) -> BuiltNetwork:
    """Wire a complete network for one protocol under one scenario config.

    Compatibility shim: the keyword surface maps onto a
    :class:`~repro.scenariospec.ScenarioSpec`
    (via :meth:`ScenarioSpec.from_legacy`) which a
    :class:`~repro.builder.NetworkBuilder` then wires — new code should
    construct the spec directly.

    Args:
        cfg: scenario parameters (defaults = the paper's Section IV).
        protocol: a registered ``mac`` component — "basic", "pcmac",
            "scheme1", "scheme2".
        positions: explicit initial positions (the ``explicit`` placement
            component); default uniform random.
        mobile: random waypoint motion when True, static nodes when False.
        routing: "aodv" (paper) or "static" (precomputed shortest paths;
            requires ``mobile=False``).
        flow_pairs: explicit (src, dst) flows; default random distinct pairs.
        tracer: optional tracer shared by every layer.
        propagation: optional :class:`~repro.phy.propagation.PropagationModel`
            instance override (mapped onto the matching ``propagation``
            component; default: the paper's two-ray ground from ``cfg.phy``).
        spatial_index: use the channels' uniform-grid fan-out (default);
            runtime-only knob, not part of the scenario's content hash.
    """
    from repro.builder import NetworkBuilder

    spec = ScenarioSpec.from_legacy(
        cfg,
        protocol,
        positions=positions,
        mobile=mobile,
        routing=routing,
        flow_pairs=flow_pairs,
        propagation=propagation,
    )
    return NetworkBuilder(spec, tracer=tracer, spatial_index=spatial_index).build()
