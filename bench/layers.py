"""Outside-in layer tracer: timing wrappers installed on ``repro`` classes.

The benchmark never edits the simulator to measure it.  A traced run
replaces each entry point listed in :data:`ENTRY_POINTS` with a wrapper
(on the class, before anything is built, because MAC timers and delivery
callbacks bind at construction) and restores the originals afterwards.

Each wrapper records one span on a stack: the span's duration goes to its
parent, and its *self* time is the duration minus the time its child spans
cover.  Summed over every entry point, self time partitions the wall time
of the traced region exactly, so whatever no layer claims is the glue
between the wrapped calls.  A wrapper costs time of its own; :func:`calibrate`
measures that cost on an empty call and :class:`Spans` subtracts it, per
call, from the self time it lands in.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass
from time import perf_counter

#: (layer, module, class, attributes).  Layers are named after the ``repro``
#: packages; ``phy`` is split into channel fan-out, radio signal edges and
#: reception (decode completion plus the SINR receiver).  Mobility models are
#: found by subclass search, so a new model is traced without a new row.
ENTRY_POINTS: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    ("sim", "repro.sim.kernel", "Simulator",
     ("run_until", "schedule", "schedule_in", "cancel")),
    ("phy.channel", "repro.phy.channel", "Channel", ("transmit",)),
    ("phy.radio", "repro.phy.radio", "Radio",
     ("signal_start", "signal_end", "begin_tx", "_finish_tx")),
    ("phy.reception", "repro.phy.radio", "Radio", ("_complete_lock",)),
    ("phy.reception", "repro.phy.reception.sinr", "SinrReceiver",
     ("on_arrival", "on_departure")),
    ("mac", "repro.mac.base", "DcfMac",
     ("on_carrier_busy", "on_carrier_idle", "on_rx_start", "on_rx_drop",
      "on_rx_end", "on_tx_end", "enqueue_packet")),
    ("mac", "repro.mac.base", "_MacTimer", ("__call__",)),
    ("core", "repro.core.pcmac", "PcmacMac",
     ("power_for_rts", "power_for_cts", "power_for_data", "power_for_ack",
      "on_rts_failure", "admission_delay", "admission_delay_data",
      "decorate_rts", "decorate_cts", "on_cts_feedback", "on_data_sent",
      "on_data_received", "data_needs_ack", "on_rx_start", "on_route_event")),
    ("core", "repro.core.control_channel", "ControlChannelAgent",
     ("announce_reception", "_refresh_pcn", "_send_pcn", "on_rx_end",
      "on_carrier_busy", "on_carrier_idle", "on_rx_start", "on_tx_end")),
    ("net", "repro.net.node", "Node", ("app_send", "mac_send", "_on_mac_deliver")),
    ("net", "repro.net.aodv.protocol", "AodvProtocol",
     ("route_packet", "on_packet", "on_mac_failure", "_discovery_timeout")),
    ("metrics", "repro.metrics.collector", "MetricsCollector",
     ("on_app_send", "on_app_receive", "on_drop")),
    ("traffic", "repro.traffic.cbr", "CbrSource", ("_emit",)),
    ("traffic", "repro.traffic.poisson", "PoissonSource", ("_emit",)),
    ("builder", "repro.builder", "NetworkBuilder", ("build",)),
    ("campaign", "repro.campaign.spec", "RunSpec", ("key", "run")),
    ("campaign", "repro.experiments.scenario", "BuiltNetwork", ("run",)),
    ("fleet", "repro.fleet.shards", "ShardedResultStore", ("__init__", "put", "get")),
)

#: Mobility models are traced on every subclass that defines these.
MOBILITY_METHODS = ("position_at", "poll")


def _targets() -> list[tuple[str, type, str]]:
    """Resolve :data:`ENTRY_POINTS` to ``(layer, class, attribute)`` rows.

    Entry points that no longer exist are skipped, so a refactor that
    renames one shows up as a layer losing time, not as a crashed run.
    """
    importlib.import_module("repro.components")  # registers every model
    rows = []
    for layer, module, cls_name, attrs in ENTRY_POINTS:
        cls = getattr(importlib.import_module(module), cls_name, None)
        if cls is None:
            continue
        for attr in attrs:
            if inspect.isfunction(getattr(cls, attr, None)):
                rows.append((layer, cls, attr))
    from repro.mobility.base import MobilityModel

    pending = list(MobilityModel.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        for attr in MOBILITY_METHODS:
            if inspect.isfunction(cls.__dict__.get(attr)):
                rows.append(("mobility", cls, attr))
    return rows


def _wrap(fn, i, stack, self_t, calls, kids, top):
    """A span-recording stand-in for ``fn`` (entry point number ``i``)."""
    clock = perf_counter

    def traced(*args, **kwargs):
        frame = [0.0, 0]  # child time, child calls
        stack.append(frame)
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = clock() - t0
            stack.pop()
            self_t[i] += dt - frame[0]
            calls[i] += 1
            kids[i] += frame[1]
            if stack:
                parent = stack[-1]
                parent[0] += dt
                parent[1] += 1
            else:
                top[0] += dt
                top[1] += 1

    return traced


@dataclass(frozen=True)
class Calibration:
    """Per-call wrapper cost [s]: inside the span and outside it."""

    inside_s: float
    outside_s: float

    @property
    def total_s(self) -> float:
        return self.inside_s + self.outside_s


class Spans:
    """Span accumulators for a fixed set of ``(layer, class, attribute)`` rows."""

    def __init__(self, rows: list[tuple[str, type, str]]) -> None:
        self.rows = rows
        self.keys = [f"{cls.__name__}.{attr}" for _, cls, attr in rows]
        self.layers = [layer for layer, _, _ in rows]
        self._saved: list[tuple[type, str, object]] = []
        self.reset()

    def reset(self) -> None:
        n = len(self.rows)
        self.stack: list[list] = []
        self.self_t = [0.0] * n
        self.calls = [0] * n
        self.kids = [0] * n
        self.top = [0.0, 0]

    def install(self) -> None:
        """Swap every entry point for its wrapper."""
        for i, (_, cls, attr) in enumerate(self.rows):
            own = cls.__dict__.get(attr)
            fn = getattr(cls, attr)
            self._saved.append((cls, attr, own))
            setattr(
                cls, attr,
                _wrap(fn, i, self.stack, self.self_t, self.calls, self.kids, self.top),
            )

    def uninstall(self) -> None:
        """Put every original back (an inherited one by deleting the shadow)."""
        for cls, attr, own in reversed(self._saved):
            if own is None:
                delattr(cls, attr)
            else:
                setattr(cls, attr, own)
        self._saved = []

    def __enter__(self) -> "Spans":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def corrected(self, cal: Calibration) -> list[tuple[str, str, float, int]]:
        """``(layer, entry, self seconds, calls)`` rows, wrapper cost removed.

        Each call's in-span cost sits in its own self time; its out-of-span
        cost sits in its parent's self time (or in the unwrapped glue).
        """
        return [
            (
                self.layers[i],
                key,
                self.self_t[i] - self.calls[i] * cal.inside_s - self.kids[i] * cal.outside_s,
                self.calls[i],
            )
            for i, key in enumerate(self.keys)
        ]


def _empty(a, b):
    return None


def calibrate(calls: int = 50_000, rounds: int = 5) -> Calibration:
    """Per-call wrapper cost, measured on an empty two-argument call.

    The wrapped calls run as children of one outer span, as most calls in a
    traced run do.  Inside cost = the empty call's recorded self time minus
    what the bare call costs; outside = the rest of the measured slowdown.
    Each time is the minimum over ``rounds``: a busy host only adds time.
    """
    bare, wrapped, recorded = [], [], []
    for _ in range(rounds):
        t0 = perf_counter()
        for _ in range(calls):
            _empty(1, 2)
        bare.append((perf_counter() - t0) / calls)

        stack, self_t, n, kids, top = [], [0.0, 0.0], [0, 0], [0, 0], [0.0, 0]
        inner = _wrap(_empty, 1, stack, self_t, n, kids, top)

        def loop():
            t = perf_counter()
            for _ in range(calls):
                inner(1, 2)
            return perf_counter() - t

        wrapped.append(_wrap(loop, 0, stack, self_t, n, kids, top)() / calls)
        recorded.append(self_t[1] / calls)
    inside = min(recorded) - min(bare)
    return Calibration(inside, min(wrapped) - min(bare) - inside)


def new_spans() -> Spans:
    """Spans over every entry point present in the imported ``repro``."""
    return Spans(_targets())


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(
    rows: list[tuple[str, str, float, int]],
    cal: Calibration,
    *,
    wall: float,
    events: int,
    results: list,
    nodes: int,
    traced_run_s: float,
    untraced_run_s: float,
    pooled_wall: float,
    jobs: int,
) -> dict[str, float]:
    """Per-layer metrics of one traced region.

    ``rows`` come from :meth:`Spans.corrected`; ``wall`` is the traced
    region's wall time and ``results`` its cells' results.  ``*_run_s`` are
    seconds spent simulating in the traced pass and in an untraced serial
    pass; ``pooled_wall`` is the wall time of an untraced pass with ``jobs``
    workers.
    """
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer_s: dict[str, float] = {}
    layer_calls: dict[str, int] = {}
    for layer, key, t, n in rows:
        self_s[key] = self_s.get(key, 0.0) + t
        calls[key] = calls.get(key, 0) + n
        layer_s[layer] = layer_s.get(layer, 0.0) + t
        layer_calls[layer] = layer_calls.get(layer, 0) + n

    def s(*keys: str) -> float:
        return sum(self_s.get(k, 0.0) for k in keys)

    def c(*keys: str) -> int:
        return sum(calls.get(k, 0) for k in keys)

    def mac(key: str) -> float:
        return sum(r.mac_totals.get(key, 0) for r in results)

    loop_s = s("Simulator.run_until")
    scheduled = c("Simulator.schedule", "Simulator.schedule_in")
    transmits = c("Channel.transmit")
    edges = c("Radio.signal_start", "Radio.signal_end")
    attributed = sum(layer_s.values()) + sum(layer_calls.values()) * cal.total_s
    return {
        "sim.loop_s": loop_s,
        "sim.schedule_s": s("Simulator.schedule", "Simulator.schedule_in"),
        "sim.schedule_calls": scheduled,
        "sim.cancel_ratio": 1.0 - _ratio(events, scheduled),
        "sim.ns_per_event": _ratio(loop_s, events) * 1e9,
        "phy.channel.self_s": layer_s.get("phy.channel", 0.0),
        "phy.channel.transmits": transmits,
        "phy.radio.self_s": layer_s.get("phy.radio", 0.0),
        "phy.radio.edges": edges,
        "phy.edges_per_transmit": _ratio(edges, transmits),
        "phy.ns_per_edge": _ratio(s("Radio.signal_start", "Radio.signal_end"), edges) * 1e9,
        "phy.lock_ratio": _ratio(
            c("DcfMac.on_rx_start", "PcmacMac.on_rx_start",
              "ControlChannelAgent.on_rx_start"),
            c("Radio.signal_start"),
        ),
        "phy.reception.self_s": layer_s.get("phy.reception", 0.0),
        "mac.self_s": layer_s.get("mac", 0.0),
        "mac.calls": layer_calls.get("mac", 0),
        "mac.retry_ratio": _ratio(
            mac("cts_timeouts") + mac("ack_timeouts"), mac("rts_sent") + mac("data_sent")
        ),
        "mac.broadcast_share": _ratio(
            mac("broadcast_sent"), mac("broadcast_sent") + mac("data_sent")
        ),
        "core.self_s": layer_s.get("core", 0.0),
        "core.calls": layer_calls.get("core", 0),
        "net.self_s": layer_s.get("net", 0.0),
        "net.calls": layer_calls.get("net", 0),
        "net.rreq_forwarded": sum(r.routing_totals.get("rreq_forwarded", 0) for r in results),
        "mobility.self_s": layer_s.get("mobility", 0.0),
        "mobility.position_calls": layer_calls.get("mobility", 0),
        "metrics.self_s": layer_s.get("metrics", 0.0),
        "traffic.self_s": layer_s.get("traffic", 0.0),
        "builder.self_s": layer_s.get("builder", 0.0),
        "builder.us_per_node": _ratio(layer_s.get("builder", 0.0), nodes) * 1e6,
        "campaign.key_s": s("RunSpec.key"),
        "campaign.cell_s": s("RunSpec.run", "BuiltNetwork.run"),
        "campaign.parallel_efficiency": _ratio(untraced_run_s, jobs * pooled_wall),
        "fleet.put_s": s("ShardedResultStore.put"),
        "fleet.open_s": s("ShardedResultStore.__init__"),
        "fleet.get_s": s("ShardedResultStore.get"),
        "trace.overhead": _ratio(traced_run_s, untraced_run_s),
        "trace.unattributed_share": _ratio(wall - attributed, wall),
        "trace.wrapper_ns": cal.total_s * 1e9,
    }
