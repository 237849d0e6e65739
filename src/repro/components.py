"""Built-in scenario components, registered into :mod:`repro.registry`.

One ``@registry(slot).register(...)`` block per component; this module is
imported lazily on first registry access.  The paper's Section IV
environment is exactly the all-defaults pick — ``uniform`` placement,
``waypoint`` mobility, ``aodv`` routing, ``cbr`` traffic, ``two_ray``
propagation, one of the four ``mac`` protocols — and everything else here
(grid/cluster/line placement, static mobility/routing, poisson traffic,
alternative propagation) opens the evaluation to non-paper workloads with
zero builder changes.

The builtin factories follow the slot contracts documented in
:mod:`repro.builder` and consume the same named RNG streams the historical
``build_network`` did (``placement``, ``mobility.<i>``, ``mac.<i>``,
``flows``), preserving bit-identical results for legacy scenarios.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.builder import (
    BuildContext,
    EnergyPlan,
    MobilityPlan,
    ObservabilityPlan,
)
from repro.energy.model import EnergyModel
from repro.core.pcmac import PcmacMac
from repro.mac.basic import Basic80211Mac
from repro.mac.scheme1 import Scheme1Mac
from repro.mac.scheme2 import Scheme2Mac
from repro.mobility.placement import grid_positions, line_positions, uniform_positions
from repro.mobility.static import StaticMobility
from repro.mobility.waypoint import RandomWaypoint
from repro.net.aodv.protocol import AodvProtocol
from repro.net.static_routing import StaticRouting
from repro.phy.propagation import (
    FreeSpace,
    LogDistanceShadowing,
    model_from_config,
)
from repro.registry import REQUIRED, Param, registry
from repro.traffic.cbr import CbrSource
from repro.traffic.poisson import PoissonSource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.node import Node

_mac = registry("mac")
_placement = registry("placement")
_mobility = registry("mobility")
_routing = registry("routing")
_traffic = registry("traffic")
_propagation = registry("propagation")
_energy = registry("energy")
_observability = registry("observability")
_faults = registry("faults")
_reception = registry("reception")


# ---------------------------------------------------------------------------
# MAC
# ---------------------------------------------------------------------------


def _single_channel_mac(cls):
    """Factory-of-factories for the three single-channel MAC protocols."""

    def factory(ctx: BuildContext):
        def make(node_id: int, mobility, radio):
            return cls(
                ctx.sim,
                node_id,
                radio,
                ctx.data_channel,
                mac_cfg=ctx.cfg.mac,
                phy_cfg=ctx.cfg.phy,
                power_cfg=ctx.cfg.power,
                rng=ctx.rngs.stream(f"mac.{node_id}"),
                tracer=ctx.tracer,
            )

        return make

    return factory


_mac.register(
    "basic",
    doc="IEEE 802.11 DCF at maximum power (the paper's baseline)",
    meta={"cls": Basic80211Mac},
)(_single_channel_mac(Basic80211Mac))

_mac.register(
    "scheme1",
    doc="RTS/CTS at maximum power, DATA/ACK at minimum needed power",
    meta={"cls": Scheme1Mac},
)(_single_channel_mac(Scheme1Mac))

_mac.register(
    "scheme2",
    doc="every frame at minimum needed power (asymmetric-link prone)",
    meta={"cls": Scheme2Mac},
)(_single_channel_mac(Scheme2Mac))


@_mac.register(
    "pcmac",
    doc="the paper's PCMAC: power control channel + three-way handshake",
    meta={"cls": PcmacMac, "control_channel": True},
)
def _pcmac(ctx: BuildContext):
    def make(node_id: int, mobility, radio):
        assert ctx.control_channel is not None
        control_radio = ctx.make_radio(node_id, mobility, "control")
        ctx.control_channel.attach(control_radio)
        return PcmacMac(
            ctx.sim,
            node_id,
            radio,
            ctx.data_channel,
            control_radio=control_radio,
            control_channel=ctx.control_channel,
            mac_cfg=ctx.cfg.mac,
            phy_cfg=ctx.cfg.phy,
            power_cfg=ctx.cfg.power,
            pcmac_cfg=ctx.cfg.pcmac,
            rng=ctx.rngs.stream(f"mac.{node_id}"),
            tracer=ctx.tracer,
        )

    return make


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------


@_placement.register(
    "uniform", doc="uniform random over the field (paper Section IV)"
)
def _uniform(ctx: BuildContext):
    return uniform_positions(
        ctx.rngs.stream("placement"),
        ctx.cfg.node_count,
        ctx.cfg.mobility.field_width_m,
        ctx.cfg.mobility.field_height_m,
    )


@_placement.register("grid", doc="near-square grid covering the field")
def _grid(ctx: BuildContext):
    return grid_positions(
        ctx.cfg.node_count,
        ctx.cfg.mobility.field_width_m,
        ctx.cfg.mobility.field_height_m,
    )


@_placement.register(
    "line",
    params=(Param("spacing_m", float, 200.0), Param("y_m", float, 0.0)),
    doc="horizontal chain with fixed spacing (paper Figure 1 geometry)",
)
def _line(ctx: BuildContext, spacing_m: float, y_m: float):
    return line_positions(ctx.cfg.node_count, spacing_m, y_m)


@_placement.register(
    "cluster",
    params=(Param("clusters", int, 4), Param("spread_m", float, 80.0)),
    doc="gaussian blobs around uniformly drawn cluster centres",
)
def _cluster(ctx: BuildContext, clusters: int, spread_m: float):
    if clusters < 1:
        raise ValueError(f"clusters must be >= 1, got {clusters!r}")
    if spread_m < 0:
        raise ValueError(f"spread_m must be non-negative, got {spread_m!r}")
    rng = ctx.rngs.stream("placement")
    width = ctx.cfg.mobility.field_width_m
    height = ctx.cfg.mobility.field_height_m
    centres = [
        (float(rng.uniform(0.0, width)), float(rng.uniform(0.0, height)))
        for _ in range(clusters)
    ]
    positions = []
    for i in range(ctx.cfg.node_count):
        cx, cy = centres[i % clusters]
        x = min(max(cx + float(rng.normal(0.0, spread_m)), 0.0), width)
        y = min(max(cy + float(rng.normal(0.0, spread_m)), 0.0), height)
        positions.append((x, y))
    return positions


@_placement.register(
    "explicit",
    params=(Param("positions", (list, tuple), REQUIRED),),
    doc="caller-specified (x, y) positions (controlled geometries)",
)
def _explicit(ctx: BuildContext, positions):
    if len(positions) != ctx.cfg.node_count:
        raise ValueError(
            f"got {len(positions)} positions for {ctx.cfg.node_count} nodes"
        )
    return [(float(x), float(y)) for x, y in positions]


# ---------------------------------------------------------------------------
# Mobility
# ---------------------------------------------------------------------------


@_mobility.register(
    "waypoint",
    doc="random waypoint from cfg.mobility (static when speed is 0)",
    meta={"immobile": False},
)
def _waypoint(ctx: BuildContext):
    cfg = ctx.cfg
    if cfg.mobility.speed_mps <= 0:
        # Degenerate speed: identical to static nodes (and lets the channel
        # pin its spatial index), matching the historical builder.
        return MobilityPlan(0.0, lambda i, pos: StaticMobility(pos))
    return MobilityPlan(
        cfg.mobility.speed_mps,
        lambda i, pos: RandomWaypoint(
            ctx.rngs.stream(f"mobility.{i}"), cfg.mobility, pos
        ),
    )


@_mobility.register(
    "static", doc="immobile nodes (controlled MAC-level topologies)",
    meta={"immobile": True},
)
def _static(ctx: BuildContext):
    return MobilityPlan(0.0, lambda i, pos: StaticMobility(pos))


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------


@_routing.register("aodv", doc="AODV route discovery (paper Section IV)")
def _aodv(ctx: BuildContext):
    return lambda node_id: AodvProtocol(ctx.cfg.aodv)


@_routing.register(
    "static",
    doc="precomputed shortest paths over max-power links (immobile only)",
    meta={"requires_immobile": True},
)
def _static_routing(ctx: BuildContext):
    comm_range = ctx.propagation.range_for(
        ctx.cfg.phy.max_power_w, ctx.cfg.phy.rx_threshold_w
    )
    table = StaticRouting.from_positions(
        dict(enumerate(ctx.positions)), comm_range
    )
    return lambda node_id: table.view()


# ---------------------------------------------------------------------------
# Traffic
# ---------------------------------------------------------------------------


@_traffic.register(
    "cbr", doc="constant-bit-rate UDP flows (paper: 512 B packets)"
)
def _cbr(ctx: BuildContext, nodes: "list[Node]", pairs):
    cfg = ctx.cfg
    interval = cfg.traffic.packet_size_bytes * 8.0 / (
        cfg.traffic.offered_load_bps / len(pairs)
    )
    return [
        CbrSource(
            nodes[src],
            flow_id=k,
            dst=dst,
            interval_s=interval,
            size_bytes=cfg.traffic.packet_size_bytes,
            start_s=cfg.traffic.start_time_s + k * cfg.traffic.start_stagger_s,
        )
        for k, (src, dst) in enumerate(pairs)
    ]


@_traffic.register(
    "poisson",
    doc="exponential inter-arrivals at the same mean rate as cbr",
)
def _poisson(ctx: BuildContext, nodes: "list[Node]", pairs):
    cfg = ctx.cfg
    mean_interval = cfg.traffic.packet_size_bytes * 8.0 / (
        cfg.traffic.offered_load_bps / len(pairs)
    )
    return [
        PoissonSource(
            nodes[src],
            flow_id=k,
            dst=dst,
            mean_interval_s=mean_interval,
            size_bytes=cfg.traffic.packet_size_bytes,
            start_s=cfg.traffic.start_time_s + k * cfg.traffic.start_stagger_s,
            rng=ctx.rngs.stream(f"traffic.{k}"),
        )
        for k, (src, dst) in enumerate(pairs)
    ]


# ---------------------------------------------------------------------------
# Energy
# ---------------------------------------------------------------------------


@_energy.register(
    "null",
    doc="no energy accounting (default; zero instrumentation, bit-identical)",
)
def _null_energy(ctx: BuildContext):
    return None


@_energy.register(
    "wavelan",
    params=(
        Param("tx_base_w", float, 1.3682),
        Param("tx_scale", float, 1.0),
        Param("rx_w", float, 1.4),
        Param("idle_w", float, 1.15),
        Param("sleep_w", float, 0.045),
        Param("battery_j", (float, list, tuple), 0.0),
        Param("meter_control", bool, False),
    ),
    doc="WaveLAN-style per-state draws (1.65/1.4/1.15 W); battery_j>0 adds "
        "finite batteries and node death (a list gives node i battery_j[i])",
)
def _wavelan_energy(
    ctx: BuildContext,
    tx_base_w: float,
    tx_scale: float,
    rx_w: float,
    idle_w: float,
    sleep_w: float,
    battery_j: float,
    meter_control: bool,
):
    if isinstance(battery_j, (list, tuple)):
        battery_j = tuple(float(b) for b in battery_j)
        if any(b < 0 for b in battery_j):
            raise ValueError("battery_j entries must be non-negative")
    elif battery_j < 0:
        raise ValueError(f"battery_j must be non-negative, got {battery_j!r}")
    model = EnergyModel(
        tx_base_w=tx_base_w,
        tx_scale=tx_scale,
        rx_w=rx_w,
        idle_w=idle_w,
        sleep_w=sleep_w,
    )
    return EnergyPlan(
        model=model, battery_j=battery_j, meter_control=meter_control
    )


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


def _check_categories(categories) -> tuple[str, ...]:
    out = tuple(str(c) for c in categories)
    if any(not c for c in out):
        raise ValueError("trace categories must be non-empty strings")
    return out


def _check_gauges(gauges) -> tuple[str, ...]:
    from repro.obs.probes import GAUGE_FNS

    out = tuple(str(g) for g in gauges)
    unknown = [g for g in out if g not in GAUGE_FNS]
    if unknown:
        raise ValueError(
            f"unknown gauge(s): {', '.join(unknown)}; "
            f"available: {', '.join(GAUGE_FNS)}"
        )
    return out


@_observability.register(
    "null",
    doc="no observability (default; zero instrumentation, bit-identical)",
)
def _null_observability(ctx: BuildContext):
    return None


@_observability.register(
    "trace",
    params=(
        Param("categories", (list, tuple), ()),
        Param("max_records", int, 0),
    ),
    doc="record trace categories (empty = counters only); passive — the "
        "event schedule is unchanged",
)
def _trace_observability(ctx: BuildContext, categories, max_records: int):
    if max_records < 0:
        raise ValueError(f"max_records must be >= 0, got {max_records!r}")
    return ObservabilityPlan(
        trace_categories=_check_categories(categories),
        max_records=max_records,
    )


@_observability.register(
    "probes",
    params=(
        Param("interval_s", float, 1.0),
        Param("gauges", (list, tuple), ()),
    ),
    doc="sample per-node gauges every interval_s into result.timeseries "
        "(adds sampling events to the schedule)",
)
def _probes_observability(ctx: BuildContext, interval_s: float, gauges):
    if interval_s <= 0:
        raise ValueError(f"interval_s must be positive, got {interval_s!r}")
    return ObservabilityPlan(
        probe_interval_s=interval_s, gauges=_check_gauges(gauges)
    )


@_observability.register(
    "flight",
    params=(
        Param("interval_s", float, 1.0),
        Param("gauges", (list, tuple), ()),
        Param("categories", (list, tuple), ()),
        Param("max_records", int, 0),
        Param("profile", bool, True),
    ),
    doc="the full flight recorder: probes + trace recording + kernel "
        "self-profiling in one component",
)
def _flight_observability(
    ctx: BuildContext,
    interval_s: float,
    gauges,
    categories,
    max_records: int,
    profile: bool,
):
    if interval_s <= 0:
        raise ValueError(f"interval_s must be positive, got {interval_s!r}")
    if max_records < 0:
        raise ValueError(f"max_records must be >= 0, got {max_records!r}")
    return ObservabilityPlan(
        trace_categories=_check_categories(categories),
        max_records=max_records,
        probe_interval_s=interval_s,
        gauges=_check_gauges(gauges),
        profile=profile,
    )


# ---------------------------------------------------------------------------
# Faults
# ---------------------------------------------------------------------------


@_faults.register(
    "null",
    doc="no fault injection (default; zero instrumentation, bit-identical)",
)
def _null_faults(ctx: BuildContext):
    return None


@_faults.register(
    "churn",
    params=(
        Param("crash_count", int, 1),
        Param("window_start_s", float, 0.0),
        Param("window_end_s", float, 0.0),
        Param("downtime_s", float, 5.0),
        Param("rejoin", bool, True),
        Param("exclude", (list, tuple), ()),
        Param("resilience_interval_s", float, 1.0),
    ),
    doc="seeded node crash/recover churn: crash_count distinct nodes crash "
        "at uniform times in [window_start_s, window_end_s] (0 = horizon) "
        "and rejoin after downtime_s; exclude protects e.g. flow endpoints",
)
def _churn_faults(
    ctx: BuildContext,
    crash_count: int,
    window_start_s: float,
    window_end_s: float,
    downtime_s: float,
    rejoin: bool,
    exclude,
    resilience_interval_s: float,
):
    from repro.faults.plan import CrashEvent, FaultPlan

    if crash_count < 0:
        raise ValueError(f"crash_count must be >= 0, got {crash_count!r}")
    if downtime_s <= 0:
        raise ValueError(f"downtime_s must be positive, got {downtime_s!r}")
    end = window_end_s if window_end_s > 0 else ctx.cfg.duration_s
    if not (0.0 <= window_start_s < end):
        raise ValueError(
            f"churn window [{window_start_s}, {end}] is empty or negative"
        )
    excluded = {int(n) for n in exclude}
    candidates = [
        n for n in range(ctx.cfg.node_count) if n not in excluded
    ]
    if crash_count > len(candidates):
        raise ValueError(
            f"crash_count {crash_count} exceeds the {len(candidates)} "
            "crashable nodes (after exclusions)"
        )
    # All draws come from the dedicated "faults" stream, so (a) the plan is
    # a pure function of (seed, spec) and (b) every other stream — and with
    # it the fault-free part of the run — is unperturbed.
    rng = ctx.rngs.stream("faults")
    picked = rng.choice(len(candidates), size=crash_count, replace=False)
    times = rng.uniform(window_start_s, end, size=crash_count)
    crashes = tuple(
        sorted(
            (
                CrashEvent(
                    node=candidates[int(i)],
                    at_s=float(t),
                    recover_at_s=float(t) + downtime_s if rejoin else None,
                )
                for i, t in zip(picked, times)
            ),
            key=lambda c: (c.at_s, c.node),
        )
    )
    return FaultPlan(
        crashes=crashes, resilience_interval_s=resilience_interval_s
    )


@_faults.register(
    "scripted",
    params=(
        Param("crashes", (list, tuple), ()),
        Param("noise_bursts", (list, tuple), ()),
        Param("link_fades", (list, tuple), ()),
        Param("corrupt", (list, tuple), ()),
        Param("resilience_interval_s", float, 1.0),
    ),
    doc="explicit fault schedule: crashes [[node, at_s, recover_at_s<0=never]"
        "], noise_bursts [[start_s, end_s, noise_w]], link_fades [[src, dst, "
        "start_s, end_s, factor]], corrupt [[start_s, end_s, probability]]",
)
def _scripted_faults(
    ctx: BuildContext,
    crashes,
    noise_bursts,
    link_fades,
    corrupt,
    resilience_interval_s: float,
):
    from repro.faults.plan import (
        CorruptionWindow,
        CrashEvent,
        FaultPlan,
        LinkFade,
        NoiseBurst,
    )

    def _rows(raw, width: int, what: str):
        for row in raw:
            if len(row) != width:
                raise ValueError(
                    f"scripted faults: each {what} row needs {width} "
                    f"values, got {list(row)!r}"
                )
            yield row

    return FaultPlan(
        crashes=tuple(
            CrashEvent(
                node=int(node),
                at_s=float(at),
                recover_at_s=float(rec) if rec >= 0 else None,
            )
            for node, at, rec in _rows(crashes, 3, "crash")
        ),
        noise_bursts=tuple(
            NoiseBurst(start_s=float(s), end_s=float(e), noise_w=float(w))
            for s, e, w in _rows(noise_bursts, 3, "noise burst")
        ),
        link_fades=tuple(
            LinkFade(
                src=int(src),
                dst=int(dst),
                start_s=float(s),
                end_s=float(e),
                factor=float(f),
            )
            for src, dst, s, e, f in _rows(link_fades, 5, "link fade")
        ),
        corruption=tuple(
            CorruptionWindow(start_s=float(s), end_s=float(e), probability=float(p))
            for s, e, p in _rows(corrupt, 3, "corruption")
        ),
        resilience_interval_s=resilience_interval_s,
    )


# ---------------------------------------------------------------------------
# Reception
# ---------------------------------------------------------------------------


@_reception.register(
    "null",
    doc="radio's inline threshold decode rules (default; bit-identical)",
)
def _null_reception(ctx: BuildContext):
    return None


@_reception.register(
    "sinr",
    params=(
        Param("capture_threshold_db", float, None),
        Param("rx_sensitivity_dbm", float, None),
    ),
    doc="cumulative-SINR receiver state machine with preamble capture and "
        "typed loss reasons; unset params come from cfg.phy",
)
def _sinr_reception(
    ctx: BuildContext, capture_threshold_db, rx_sensitivity_dbm
):
    from repro.phy.reception.plan import ReceptionPlan
    from repro.units import db_to_ratio, dbm_to_watts

    phy = ctx.cfg.phy
    capture_threshold = (
        phy.capture_threshold
        if capture_threshold_db is None
        else db_to_ratio(capture_threshold_db)
    )
    rx_sensitivity_w = (
        phy.rx_threshold_w
        if rx_sensitivity_dbm is None
        else dbm_to_watts(rx_sensitivity_dbm)
    )
    return ReceptionPlan(
        capture_threshold=capture_threshold,
        rx_sensitivity_w=rx_sensitivity_w,
    )


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------

_PROP_OVERRIDES = (
    Param("frequency_hz", float, None),
    Param("gain_tx", float, None),
    Param("gain_rx", float, None),
    Param("system_loss", float, None),
)


def _phy_default(value, fallback):
    return fallback if value is None else value


@_propagation.register(
    "two_ray",
    params=_PROP_OVERRIDES
    + (Param("height_tx_m", float, None), Param("height_rx_m", float, None)),
    doc="NS-2 two-ray ground (paper); unset params come from cfg.phy",
)
def _two_ray(ctx: BuildContext, **overrides):
    # Reuse the canonical PhyConfig → TwoRayGround mapping; the component's
    # param names deliberately equal the model's field names, so explicit
    # params drop onto the paper model with dataclasses.replace.
    given = {k: v for k, v in overrides.items() if v is not None}
    model = model_from_config(ctx.cfg.phy)
    return dataclasses.replace(model, **given) if given else model


@_propagation.register(
    "free_space",
    params=_PROP_OVERRIDES,
    doc="Friis free-space (1/d²); unset params come from cfg.phy",
)
def _free_space(ctx: BuildContext, frequency_hz, gain_tx, gain_rx, system_loss):
    phy = ctx.cfg.phy
    return FreeSpace(
        frequency_hz=_phy_default(frequency_hz, phy.frequency_hz),
        gain_tx=_phy_default(gain_tx, phy.antenna_gain_tx),
        gain_rx=_phy_default(gain_rx, phy.antenna_gain_rx),
        system_loss=_phy_default(system_loss, phy.system_loss),
    )


@_propagation.register(
    "log_distance",
    params=_PROP_OVERRIDES
    + (
        Param("exponent", float, 2.7),
        Param("reference_m", float, 1.0),
        Param("shadowing_db", float, 0.0),
    ),
    doc="log-distance path loss for robustness studies (exponent, shadowing)",
)
def _log_distance(
    ctx: BuildContext,
    frequency_hz,
    gain_tx,
    gain_rx,
    system_loss,
    exponent,
    reference_m,
    shadowing_db,
):
    phy = ctx.cfg.phy
    return LogDistanceShadowing(
        frequency_hz=_phy_default(frequency_hz, phy.frequency_hz),
        exponent=exponent,
        reference_m=reference_m,
        shadowing_db=shadowing_db,
        gain_tx=_phy_default(gain_tx, phy.antenna_gain_tx),
        gain_rx=_phy_default(gain_rx, phy.antenna_gain_rx),
        system_loss=_phy_default(system_loss, phy.system_loss),
    )

