"""Replays a :class:`FaultPlan` onto a built network, deterministically.

The injector schedules one kernel event per fault edge (crash, recover,
window open, window close) at arm time, in plan order — so the same plan
always produces the same event schedule.  Crashes drive the exact sequence
battery death uses (channel detach, MAC shutdown with orphan-drop
attribution, routing notification); recovery is the new inverse path
(channel re-attach, MAC restart, routing resume).  Channel-quality faults
are applied at the receiving radios (see
:class:`~repro.phy.radio.RadioFaultState`) so the channel's spatial index
and replay memo stay untouched.

Every fault edge is emitted through the tracer (categories ``fault.crash``,
``fault.recover``, ``fault.noise``, ``fault.link``, ``fault.corrupt``), so
``repro trace`` / ``repro stats`` show the fault timeline alongside the
protocol's reaction to it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.faults.plan import FaultPlan
from repro.phy.radio import RadioFaultState
from repro.sim.trace import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.node import Node
    from repro.phy.channel import Channel
    from repro.sim.kernel import Simulator


class FaultInjector:
    """Schedules and executes one scenario's fault plan.

    Built by the network builder when the ``faults`` slot is non-null;
    lives in ``BuiltNetwork.extras["faults"]``.

    Args:
        sim: the simulation kernel.
        nodes: every node, indexed by id.
        plan: the validated fault schedule.
        data_channel: the data channel (crash detach / rejoin attach).
        control_channel: PCMAC's control channel, if the MAC has one.
        tracer: trace sink for the fault timeline.
        rng: the scenario's dedicated runtime fault stream (packet
            corruption draws).
    """

    def __init__(
        self,
        sim: "Simulator",
        nodes: Sequence["Node"],
        *,
        plan: FaultPlan,
        data_channel: "Channel",
        control_channel: "Channel | None" = None,
        tracer: Tracer = NULL_TRACER,
        rng=None,
    ) -> None:
        self.sim = sim
        self.nodes = list(nodes)
        self.plan = plan
        self.data_channel = data_channel
        self.control_channel = control_channel
        self.tracer = tracer
        self.rng = rng
        #: Nodes currently down *because this injector crashed them* —
        #: battery deaths are not ours to recover.
        self._down: set[int] = set()
        #: Fault-edge counters (surfaced via :meth:`stats`).
        self.counts = {"crashes": 0, "recoveries": 0, "orphan_drops": 0}
        self._armed = False

    # ------------------------------------------------------------------ arm

    def arm(self, horizon_s: float) -> None:
        """Validate the plan and schedule every fault edge (idempotent-safe:
        arming twice is a bug and raises)."""
        if self._armed:
            raise RuntimeError("fault injector is already armed")
        self._armed = True
        self.plan.validate(len(self.nodes), horizon_s)
        sim = self.sim
        for c in self.plan.crashes:
            sim.schedule(
                c.at_s, _Edge(self._crash, c.node), label="fault.crash"
            )
            if c.recover_at_s is not None:
                sim.schedule(
                    c.recover_at_s,
                    _Edge(self._recover, c.node),
                    label="fault.recover",
                )
        for b in self.plan.noise_bursts:
            sim.schedule(
                b.start_s, _Edge(self._noise_on, b), label="fault.noise"
            )
            sim.schedule(
                b.end_s, _Edge(self._noise_off, b), label="fault.noise"
            )
        for f in self.plan.link_fades:
            sim.schedule(
                f.start_s, _Edge(self._fade_on, f), label="fault.link"
            )
            sim.schedule(f.end_s, _Edge(self._fade_off, f), label="fault.link")
        for w in self.plan.corruption:
            if w.probability <= 0.0:
                continue
            sim.schedule(
                w.start_s, _Edge(self._corrupt_on, w), label="fault.corrupt"
            )
            sim.schedule(
                w.end_s, _Edge(self._corrupt_off, w), label="fault.corrupt"
            )

    def stats(self) -> dict[str, int]:
        """Fault-edge counters (crashes executed, recoveries, orphan drops)."""
        return dict(self.counts)

    # ------------------------------------------------------------ crash path

    def _crash(self, node_id: int) -> None:
        node = self.nodes[node_id]
        if node.mac.dead:
            # Already down (battery death, or an earlier permanent crash).
            return
        self._down.add(node_id)
        self.counts["crashes"] += 1
        radio = node.mac.radio
        self.data_channel.detach(radio)
        control = getattr(node.mac, "control", None)
        if control is not None and self.control_channel is not None:
            self.control_channel.detach(control.radio)

        def _drop_orphan(packet) -> None:
            # Mirror battery death's accounting: only data packets are
            # metered losses; routing control traffic just evaporates.
            if getattr(packet, "kind", None) == "data":
                self.counts["orphan_drops"] += 1
                node.metrics_drop(packet, "node_dead")

        node.mac.shutdown(on_packet_drop=_drop_orphan)
        node.routing.on_node_down()
        self.tracer.emit(self.sim.now, "fault.crash", node_id)

    def _recover(self, node_id: int) -> None:
        if node_id not in self._down:
            # The crash never happened (node was battery-dead first), so
            # the rejoin must not happen either.
            return
        self._down.discard(node_id)
        self.counts["recoveries"] += 1
        node = self.nodes[node_id]
        radio = node.mac.radio
        self.data_channel.attach(radio)
        control = getattr(node.mac, "control", None)
        if control is not None and self.control_channel is not None:
            self.control_channel.attach(control.radio)
        node.mac.restart()
        node.routing.on_node_up()
        self.tracer.emit(self.sim.now, "fault.recover", node_id)

    # --------------------------------------------------------- channel faults

    def _radios(self, node_ids: tuple[int, ...]):
        ids = node_ids if node_ids else range(len(self.nodes))
        for nid in ids:
            yield nid, self.nodes[nid].mac.radio

    def _fault_state(self, radio) -> RadioFaultState:
        state = radio.faults
        if state is None:
            state = RadioFaultState(self.rng)
            radio.faults = state
        return state

    @staticmethod
    def _maybe_uninstall(radio) -> None:
        state = radio.faults
        if state is not None and not state.active:
            # Drop the state object entirely so the fault-free hot path is
            # back to a single is-not-None check that fails fast.
            radio.faults = None

    def _noise_on(self, burst) -> None:
        for nid, radio in self._radios(burst.nodes):
            radio.set_noise_floor_w(burst.noise_w)
            self.tracer.emit(
                self.sim.now, "fault.noise", nid, on=True, noise_w=burst.noise_w
            )

    def _noise_off(self, burst) -> None:
        for nid, radio in self._radios(burst.nodes):
            radio.set_noise_floor_w(None)
            self.tracer.emit(self.sim.now, "fault.noise", nid, on=False)

    def _fade_on(self, fade) -> None:
        radio = self.nodes[fade.dst].mac.radio
        self._fault_state(radio).gains[fade.src] = fade.factor
        self.tracer.emit(
            self.sim.now,
            "fault.link",
            fade.dst,
            on=True,
            src=fade.src,
            factor=fade.factor,
        )

    def _fade_off(self, fade) -> None:
        state = self.nodes[fade.dst].mac.radio.faults
        if state is not None:
            state.gains.pop(fade.src, None)
        self._maybe_uninstall(self.nodes[fade.dst].mac.radio)
        self.tracer.emit(
            self.sim.now, "fault.link", fade.dst, on=False, src=fade.src
        )

    def _corrupt_on(self, window) -> None:
        for nid, radio in self._radios(window.nodes):
            self._fault_state(radio).corrupt_p = window.probability
            self.tracer.emit(
                self.sim.now,
                "fault.corrupt",
                nid,
                on=True,
                probability=window.probability,
            )

    def _corrupt_off(self, window) -> None:
        for nid, radio in self._radios(window.nodes):
            state = radio.faults
            if state is not None:
                state.corrupt_p = 0.0
            self._maybe_uninstall(radio)
            self.tracer.emit(self.sim.now, "fault.corrupt", nid, on=False)


class _Edge:
    """A pre-bound fault-edge callback (no per-event closure allocation)."""

    __slots__ = ("_fn", "_arg")

    def __init__(self, fn, arg) -> None:
        self._fn = fn
        self._arg = arg

    def __call__(self) -> None:
        self._fn(self._arg)
