"""The fault schedule as immutable data: what breaks, when, and how badly.

A :class:`FaultPlan` is what a (non-null) ``faults`` component factory
returns: four tuples of frozen event records, fully determined at build
time.  Nothing here touches the simulator — the plan is pure description,
which is what makes the determinism contract checkable: building the same
(seed, spec) twice yields ``==`` plans, and the injector replays a plan
into an identical event schedule.

Times are validated against the scenario horizon at wiring time (the plan
itself does not know the node count or duration; the builder does).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CrashEvent:
    """One node going down hard — and, optionally, coming back.

    A crash drives the same machinery as battery death: the node's radios
    detach from their channels, the MAC shuts down (dropping its queue),
    and routing is notified.  ``recover_at_s`` of ``None`` means the node
    never rejoins.
    """

    #: The node that crashes.
    node: int
    #: Crash instant [sim s].
    at_s: float
    #: Rejoin instant [sim s]; None = permanent failure.
    recover_at_s: float | None = None


@dataclass(frozen=True)
class NoiseBurst:
    """A timed rise of the noise floor at some (or all) receivers.

    During the window every affected radio evaluates SINR against
    ``noise_w`` instead of the ambient floor — weak links stop decoding,
    and a burst arriving mid-frame corrupts the lock exactly like an
    interference rise would.  Carrier sense is unaffected (the burst
    models front-end noise, not sensable energy).
    """

    #: Window start [sim s].
    start_s: float
    #: Window end [sim s].
    end_s: float
    #: Noise floor during the window [W].
    noise_w: float
    #: Affected node ids; empty tuple = every node.
    nodes: tuple[int, ...] = ()


@dataclass(frozen=True)
class LinkFade:
    """A timed multiplicative fade on one directed link.

    Frames from ``src`` arriving at ``dst`` during the window have their
    received power scaled by ``factor`` (attenuation only, so the channel's
    spatial-index culling stays a sound superset and its replay memo stays
    untouched — the fade is applied at the receiving radio).
    """

    #: Transmitting node id.
    src: int
    #: Receiving node id (where the fade is applied).
    dst: int
    #: Window start [sim s].
    start_s: float
    #: Window end [sim s].
    end_s: float
    #: Received-power multiplier in (0, 1].
    factor: float = 0.1


@dataclass(frozen=True)
class CorruptionWindow:
    """Probabilistic frame damage at some (or all) receivers.

    During the window each otherwise-successful decode at an affected
    radio is flipped to a failure with probability ``probability`` (drawn
    from the scenario's dedicated fault stream, so the damage pattern is
    deterministic per seed).
    """

    #: Window start [sim s].
    start_s: float
    #: Window end [sim s].
    end_s: float
    #: Per-frame corruption probability in [0, 1].
    probability: float
    #: Affected node ids; empty tuple = every node.
    nodes: tuple[int, ...] = ()


@dataclass(frozen=True)
class FaultPlan:
    """A complete, immutable fault schedule for one scenario.

    Equality is structural — two builds of the same (seed, spec) must
    produce ``==`` plans (regression-tested by a hypothesis property).
    """

    #: Node crash/recover churn, in schedule order.
    crashes: tuple[CrashEvent, ...] = ()
    #: Noise-floor bursts.
    noise_bursts: tuple[NoiseBurst, ...] = ()
    #: Per-link gain fades.
    link_fades: tuple[LinkFade, ...] = ()
    #: Probabilistic packet-corruption windows.
    corruption: tuple[CorruptionWindow, ...] = ()
    #: Resilience-metric bin width [sim s]; 0 disables the monitor (the
    #: injector still runs, but no ResilienceReport is produced).
    resilience_interval_s: float = 1.0

    @property
    def empty(self) -> bool:
        """True when the plan schedules nothing at all."""
        return not (
            self.crashes
            or self.noise_bursts
            or self.link_fades
            or self.corruption
        )

    def fault_windows(self, horizon_s: float) -> tuple[tuple[float, float], ...]:
        """Every degradation window as (start, end), clamped to the horizon.

        Crash windows run from the crash to the recovery (or the horizon
        for permanent failures).  Used by the resilience monitor to split
        delivery into during-fault vs. nominal time.
        """
        windows: list[tuple[float, float]] = []
        for c in self.crashes:
            end = horizon_s if c.recover_at_s is None else c.recover_at_s
            windows.append((c.at_s, min(end, horizon_s)))
        for b in self.noise_bursts:
            windows.append((b.start_s, min(b.end_s, horizon_s)))
        for f in self.link_fades:
            windows.append((f.start_s, min(f.end_s, horizon_s)))
        for w in self.corruption:
            windows.append((w.start_s, min(w.end_s, horizon_s)))
        return tuple(sorted(windows))

    def validate(self, node_count: int, duration_s: float) -> None:
        """Check node ids, window ordering and value ranges.

        Called by the builder at wiring time (the plan is constructible
        without knowing the topology, like a :class:`ScenarioSpec` naming
        an unregistered component).  Raises :class:`ValueError` naming the
        offending record.
        """
        def _node(n: int, what: str) -> None:
            if not (0 <= n < node_count):
                raise ValueError(
                    f"fault plan: {what} node {n} out of range for "
                    f"{node_count} nodes"
                )

        for c in self.crashes:
            _node(c.node, "crash")
            if c.at_s < 0 or c.at_s > duration_s:
                raise ValueError(
                    f"fault plan: crash of node {c.node} at {c.at_s}s is "
                    f"outside the scenario horizon [0, {duration_s}]"
                )
            if c.recover_at_s is not None and c.recover_at_s <= c.at_s:
                raise ValueError(
                    f"fault plan: node {c.node} recovery at "
                    f"{c.recover_at_s}s does not follow its crash at {c.at_s}s"
                )
        down: set[int] = set()
        for c in sorted(self.crashes, key=lambda c: c.at_s):
            if c.node in down:
                raise ValueError(
                    f"fault plan: node {c.node} crashes again before "
                    "recovering (overlapping crash windows)"
                )
            if c.recover_at_s is None:
                down.add(c.node)
        for b in self.noise_bursts:
            if b.end_s <= b.start_s:
                raise ValueError(
                    f"fault plan: noise burst window [{b.start_s}, "
                    f"{b.end_s}] is empty"
                )
            if b.noise_w <= 0:
                raise ValueError(
                    f"fault plan: noise burst power {b.noise_w!r} W must be "
                    "positive"
                )
            for n in b.nodes:
                _node(n, "noise burst")
        for f in self.link_fades:
            _node(f.src, "fade src")
            _node(f.dst, "fade dst")
            if f.end_s <= f.start_s:
                raise ValueError(
                    f"fault plan: fade window [{f.start_s}, {f.end_s}] "
                    "is empty"
                )
            if not (0.0 < f.factor <= 1.0):
                raise ValueError(
                    f"fault plan: fade factor {f.factor!r} must be in "
                    "(0, 1] (fades attenuate; they never amplify)"
                )
        for w in self.corruption:
            if w.end_s <= w.start_s:
                raise ValueError(
                    f"fault plan: corruption window [{w.start_s}, "
                    f"{w.end_s}] is empty"
                )
            if not (0.0 <= w.probability <= 1.0):
                raise ValueError(
                    f"fault plan: corruption probability {w.probability!r} "
                    "must be in [0, 1]"
                )
            for n in w.nodes:
                _node(n, "corruption")
