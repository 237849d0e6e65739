"""The IEEE 802.11 DCF state machine shared by all protocol variants.

The paper's four compared protocols (basic 802.11, Scheme 1, Scheme 2,
PCMAC) are identical DCF machines that differ in a small set of policy
hooks.  :class:`DcfMac` implements the machine and exposes the hooks:

``power_for_rts / power_for_cts / power_for_data / power_for_ack /
power_for_broadcast``
    transmit-power selection per frame type;
``data_needs_ack``
    whether DATA uses the four-way (ACK) or three-way handshake;
``admission_delay``
    PCMAC's noise-tolerance admission test — returns a time to defer to,
    or ``None`` to transmit;
``on_rts_failure``
    power escalation after a CTS timeout (paper Step 2);
``decorate_rts / decorate_cts / on_cts_feedback / on_data_received``
    PCMAC's extra header fields and sent/received-table maintenance.

State machine summary (sender side)::

    IDLE --enqueue--> CONTEND --defer+backoff--> TX RTS --> WAIT_CTS
      WAIT_CTS --CTS--> TX DATA --> (WAIT_ACK --ACK--> done | done)
      WAIT_CTS --timeout--> retry/drop ; WAIT_ACK --timeout--> retry/drop

Responder side: RTS --SIFS--> CTS --...--> DATA --SIFS--> ACK (if needed).
SIFS responses do not carrier-sense (802.11); contention access does, both
physically (radio) and virtually (NAV), with EIFS after undecodable
receptions — the mechanism the paper's asymmetric-link analysis hinges on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable

from repro.config import MacConfig, PhyConfig, PowerControlConfig
from repro.mac.backoff import BackoffEngine
from repro.mac.frames import BROADCAST, FrameType, MacFrame
from repro.mac.ifqueue import IfQueue, QueuedPacket
from repro.mac.nav import Nav
from repro.mac.power_history import PowerHistoryTable, PowerRecord
from repro.mac.timing import MacTiming
from repro.phy.channel import Channel
from repro.phy.frame import PhyFrame
from repro.phy.power import PowerLevelTable
from repro.phy.radio import Radio
from repro.sim.kernel import Simulator
from repro.sim.rng import StreamLike
from repro.sim.trace import NULL_TRACER, Tracer

#: Slop added when comparing elapsed time to whole slots (float guard).
_SLOT_EPS = 1e-9


class _MacTimer:
    """A reusable one-shot timer owned by one MAC.

    Every MAC frame sets and usually cancels a timeout; doing that with a
    fresh closure per frame allocates a function object, a cell and a bound
    method each time.  A ``_MacTimer`` binds its callback once at MAC
    construction and is re-armed for every frame — the only per-arm
    allocation left is the kernel's own heap entry.  The optional
    ``payload`` slot carries the frame a deferred send needs, replacing the
    historical per-frame ``lambda: self._send_control(cts)`` closures.

    The callback is invoked as ``fn(payload)`` (payload is None for plain
    timeouts).  Re-arming cancels any pending shot first, exactly like the
    old cancel-then-schedule sequence, so event sequence numbers — and with
    them the whole event schedule — are unchanged.
    """

    __slots__ = ("_sim", "_fn", "_label", "_event", "payload")

    def __init__(self, sim: Simulator, fn: Callable[[Any], None], label: str) -> None:
        self._sim = sim
        self._fn = fn
        self._label = label
        self._event = None
        self.payload: Any = None

    @property
    def armed(self) -> bool:
        """True while a shot is scheduled and not yet fired/cancelled."""
        return self._event is not None

    @property
    def expiry(self) -> float | None:
        """Absolute fire time of the pending shot, or None."""
        return self._event.time if self._event is not None else None

    def arm_at(self, time: float, payload: Any = None, *, label: str | None = None) -> None:
        """(Re)arm to fire at absolute ``time``; cancels any pending shot."""
        ev = self._event
        if ev is not None:
            ev.cancel()
        self.payload = payload
        self._event = self._sim.schedule(time, self, label=label or self._label)

    def arm_in(self, delay: float, payload: Any = None, *, label: str | None = None) -> None:
        """(Re)arm to fire ``delay`` seconds from now."""
        ev = self._event
        if ev is not None:
            ev.cancel()
        self.payload = payload
        self._event = self._sim.schedule_in(delay, self, label=label or self._label)

    def cancel(self) -> None:
        """Disarm without firing; safe when not armed."""
        ev = self._event
        if ev is not None:
            ev.cancel()
            self._event = None
            self.payload = None

    def __call__(self) -> None:
        self._event = None
        payload = self.payload
        self.payload = None
        self._fn(payload)


class MacState(enum.Enum):
    """Coarse sender-side state (responder activity tracked separately)."""

    IDLE = "idle"
    CONTEND = "contend"
    WAIT_CTS = "wait_cts"
    SEND_DATA = "send_data"
    WAIT_ACK = "wait_ack"


# Enum members as module constants, compared by identity on the per-frame
# paths: a module global is one dict lookup, ``FrameType.RTS`` an
# ``EnumType`` attribute lookup several times dearer.
_RTS = FrameType.RTS
_CTS = FrameType.CTS
_DATA = FrameType.DATA
_ACK = FrameType.ACK
_CONTEND = MacState.CONTEND
_WAIT_CTS = MacState.WAIT_CTS
_SEND_DATA = MacState.SEND_DATA
_WAIT_ACK = MacState.WAIT_ACK


@dataclass
class MacStats:
    """Per-MAC counters surfaced to the metrics layer."""

    rts_sent: int = 0
    cts_sent: int = 0
    data_sent: int = 0
    ack_sent: int = 0
    broadcast_sent: int = 0
    data_delivered_up: int = 0
    duplicates: int = 0
    cts_timeouts: int = 0
    ack_timeouts: int = 0
    drops_retry_limit: int = 0
    drops_queue_full: int = 0
    admission_blocks: int = 0
    power_escalations: int = 0
    implicit_retransmits: int = 0
    tx_energy_j: float = 0.0
    #: Airtime spent transmitting, split by frame type [s].  Control overhead
    #: vs payload airtime explains most throughput differences between the
    #: protocol variants.
    airtime_control_s: float = 0.0
    airtime_data_s: float = 0.0
    #: Typed receiver discards, reported by a (non-null) reception model
    #: through ``on_rx_drop`` — zero under the inline threshold rules, which
    #: classify nothing (see :mod:`repro.phy.reception`).
    rx_drop_collision: int = 0
    rx_drop_capture_lost: int = 0
    rx_drop_below_sensitivity: int = 0

    def as_dict(self) -> dict[str, float]:
        """Counters as a plain dict."""
        return dict(vars(self))


@dataclass(slots=True)
class _TxAttempt:
    """Book-keeping for the packet currently owned by the sender machine."""

    entry: QueuedPacket
    short_retries: int = 0
    long_retries: int = 0
    #: Power override set by escalation (paper Step 2); None = use policy.
    boosted_rts_power_w: float | None = None
    #: Set by PCMAC when the CTS implicit-ACK demands a retransmission: the
    #: stored copy is sent instead of the current entry's packet.
    substitute: MacFrame | None = None
    #: MAC sequence number, assigned at the first DATA build and reused on
    #: retries so the receiver's duplicate filter works.
    seq: int | None = None


class DcfMac:
    """IEEE 802.11 DCF over one data radio.  Subclass to change power policy."""

    #: Human-readable protocol name (overridden per variant).
    name = "dcf"

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        radio: Radio,
        channel: Channel,
        *,
        mac_cfg: MacConfig,
        phy_cfg: PhyConfig,
        power_cfg: PowerControlConfig | None = None,
        rng: StreamLike,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.radio = radio
        self.channel = channel
        self.mac_cfg = mac_cfg
        self.phy_cfg = phy_cfg
        self.power_cfg = power_cfg or PowerControlConfig()
        self.timing = MacTiming(mac_cfg, phy_cfg)
        self.levels = PowerLevelTable(phy_cfg.power_levels_w)
        self.tracer = tracer
        self.stats = MacStats()
        self.nav = Nav()
        self.backoff = BackoffEngine(mac_cfg.cw_min, mac_cfg.cw_max, rng)
        self.ifq = IfQueue(mac_cfg.ifq_capacity)
        self.history = PowerHistoryTable(self.power_cfg.history_expiry_s)
        #: ``needed_tx_power``'s numerator (decode threshold x margin), taken
        #: once from the frozen configs: ``on_rx_end`` refreshes the history
        #: with ``_needed_num / (rx / tx)``, that function's exact operations.
        self._needed_num = phy_cfg.rx_threshold_w * self.power_cfg.decode_margin

        radio.listener = self

        #: Set by :meth:`shutdown` (battery death): a dead MAC accepts and
        #: transmits nothing.
        self._dead = False

        # Sender-side machine.  Timers are reusable _MacTimer objects —
        # callbacks bound once here, re-armed per frame with no closures.
        self._state = MacState.IDLE
        self._current: _TxAttempt | None = None
        self._substitute_in_flight = False
        self._access_timer = _MacTimer(sim, self._access_fire, "mac.access")
        self._access_is_countdown = False
        self._countdown_defer_end = 0.0
        self._cts_timer = _MacTimer(sim, self._on_cts_timeout, "mac.cts_to")
        self._ack_timer = _MacTimer(sim, self._on_ack_timeout, "mac.ack_to")
        #: SIFS-delayed DATA send (payload: the CTS that granted the medium).
        self._data_timer = _MacTimer(sim, self._send_data_after_cts, "mac.data")

        # Responder-side machine.
        self._responding = False
        #: SIFS-delayed CTS/ACK send (payload: the frame to transmit).
        self._resp_timer = _MacTimer(sim, self._send_control, "mac.resp")
        self._resp_watchdog = _MacTimer(sim, self._resp_watchdog_fire, "mac.resp_wd")

        # Pre-bound trace handles (exact counters, records only when stored).
        self._tr_drop = tracer.handle("mac.drop")
        self._tr_defer = tracer.handle("mac.defer")
        self._tr_handshake = tracer.handle("mac.handshake")

        # Duplicate filtering: last (seq) delivered per source.
        self._last_rx_seq: dict[int, int] = {}
        self._next_seq = 0

        # Upper-layer callbacks (wired by the Node).
        self.deliver_up: Callable[[Any, int], None] = lambda pkt, src: None
        self.on_link_failure: Callable[[Any, int], None] = lambda pkt, nh: None

    # ------------------------------------------------------------------ API

    @property
    def state(self) -> MacState:
        """Current sender-side state."""
        return self._sender_state

    @property
    def _state(self) -> MacState:
        return self._sender_state

    @_state.setter
    def _state(self, state: MacState) -> None:
        # The access timer is armed only in CONTEND, so outside it a busy
        # edge has no countdown to pause and an idle edge nothing to
        # schedule: the radio may skip both callbacks (it books EIFS debt
        # itself).
        self._sender_state = state
        self.radio.carrier_watch = state is MacState.CONTEND

    @property
    def queue_depth(self) -> int:
        """Interface-queue occupancy [packets] (the ``ifq_depth`` gauge)."""
        return len(self.ifq)

    @property
    def contention_window(self) -> int:
        """Current contention window [slots] (the ``cw`` gauge)."""
        return self.backoff.cw

    @property
    def retry_timeouts(self) -> int:
        """Cumulative CTS+ACK timeouts (the ``retry_timeouts`` gauge)."""
        return self.stats.cts_timeouts + self.stats.ack_timeouts

    @property
    def rx_drops(self) -> int:
        """Cumulative typed receiver discards (the ``rx_drops`` gauge)."""
        stats = self.stats
        return (
            stats.rx_drop_collision
            + stats.rx_drop_capture_lost
            + stats.rx_drop_below_sensitivity
        )

    @property
    def busy(self) -> bool:
        """True while the MAC owns a packet or is responding."""
        return self._current is not None or self._responding

    @property
    def dead(self) -> bool:
        """True once :meth:`shutdown` powered this MAC down for good."""
        return self._dead

    def shutdown(self, on_packet_drop: Callable[[Any], None] | None = None) -> None:
        """Power the MAC down permanently (the node's battery died).

        Cancels every pending timer, drops the owned packet and the whole
        interface queue (each orphaned network packet is reported through
        ``on_packet_drop`` so the metrics layer can attribute the loss),
        and detaches from the radio's callbacks (in-flight signal edges may
        still reach a detached radio — see
        :meth:`~repro.phy.channel.Channel.detach` — and must not restart
        the state machine).  Subsequent :meth:`enqueue_packet` calls are
        refused, so upper layers see the node as a black hole, exactly what
        neighbours' retry/RERR machinery needs to route around it.
        """
        self._dead = True
        for timer in (
            self._access_timer,
            self._cts_timer,
            self._ack_timer,
            self._data_timer,
            self._resp_timer,
            self._resp_watchdog,
        ):
            timer.cancel()
        orphans = []
        if self._current is not None:
            orphans.append(self._current.entry.packet)
        self._current = None
        self._substitute_in_flight = False
        self._responding = False
        self._state = MacState.IDLE
        entry = self.ifq.pop()
        while entry is not None:
            orphans.append(entry.packet)
            entry = self.ifq.pop()
        if on_packet_drop is not None:
            for packet in orphans:
                on_packet_drop(packet)
        self.radio.mute()

    def restart(self) -> None:
        """Power a shut-down MAC back up (fault-injection rejoin).

        The inverse of :meth:`shutdown` for recoverable crashes: clears
        the dead flag, resets the sender/responder machines to a
        cold-boot state (fresh contention window, no pending backoff,
        expired NAV, no EIFS debt) and re-installs this MAC as the
        radio's listener.  The caller must re-attach the radio to its
        channel first.  Sequence numbers and the duplicate filter
        survive — a rebooted node keeps its identity.
        """
        self._dead = False
        self._state = MacState.IDLE
        self.radio.eifs_due = False
        self.nav.reset()
        # Cold-boot contention state: cw back to cw_min, nothing pending.
        self.backoff.on_success()
        self.radio.listener = self

    def enqueue_packet(self, packet: Any, next_hop: int, *, needs_ack: bool = True) -> bool:
        """Accept a network packet for transmission to ``next_hop``.

        Returns False when the interface queue is full (the packet is
        lost) or the MAC has been :meth:`shutdown`.
        """
        if self._dead:
            return False
        entry = QueuedPacket(
            packet=packet,
            next_hop=next_hop,
            needs_ack=needs_ack,
            enqueued_at=self.sim.now,
        )
        if not self.ifq.push(entry):
            self.stats.drops_queue_full += 1
            tr = self._tr_drop
            tr.count += 1
            if tr.store:
                tr.record(self.sim.now, self.node_id, reason="ifq_full")
            return False
        self._try_dequeue()
        return True

    # ----------------------------------------------------- power policy hooks

    def power_for_rts(self, next_hop: int) -> float:
        """Transmit power for an RTS toward ``next_hop`` (default: max)."""
        return self.levels.max_w

    def power_for_cts(self, rts: MacFrame, rx_power_w: float) -> float:
        """Transmit power for a CTS answering ``rts`` (default: max)."""
        return self.levels.max_w

    def power_for_data(self, next_hop: int, cts: MacFrame | None) -> float:
        """Transmit power for a DATA frame (default: max)."""
        return self.levels.max_w

    def power_for_ack(self, data: MacFrame, rx_power_w: float) -> float:
        """Transmit power for an ACK answering ``data`` (default: max)."""
        return self.levels.max_w

    def power_for_broadcast(self) -> float:
        """Broadcasts always use the normal (maximal) level — all protocols."""
        return self.levels.max_w

    def needed_power_to(self, neighbour: int) -> float:
        """History-estimated needed power to ``neighbour``, quantised.

        Falls back to the maximum level on a (possibly expired) miss,
        exactly as the paper prescribes.
        """
        needed = self.history.needed_power(neighbour, self.sim.now)
        if needed is None:
            return self.levels.max_w
        return self.levels.select(needed)

    # ------------------------------------------------------- behaviour hooks

    def data_needs_ack(self, entry: QueuedPacket) -> bool:
        """Whether this DATA uses the four-way handshake (default: yes)."""
        return entry.needs_ack

    def admission_delay(self, power_w: float) -> float | None:
        """PCMAC hook: return a defer-until time, or None to transmit now."""
        return None

    def on_rts_failure(self, attempt: _TxAttempt) -> None:
        """Hook after a CTS timeout; power-controlled variants escalate."""

    def decorate_rts(self, frame: MacFrame) -> None:
        """Hook: add variant-specific fields to an outgoing RTS."""

    def decorate_cts(self, frame: MacFrame, rts: MacFrame, rx_power_w: float) -> None:
        """Hook: add variant-specific fields to an outgoing CTS."""

    def admission_delay_data(self, power_w: float) -> float | None:
        """PCMAC hook: repeat the collision computation before DATA
        (paper Step 4).  Return a defer-until time or None to proceed."""
        return None

    def on_cts_feedback(self, cts: MacFrame) -> None:
        """Hook: PCMAC inspects the implicit-ACK fields of a received CTS."""

    def on_data_sent(self, frame: MacFrame, entry: QueuedPacket) -> None:
        """Hook: PCMAC records the DATA in its sent-table."""

    def on_data_received(self, frame: MacFrame) -> bool:
        """Hook called for every DATA addressed to this node.

        Returns True if the frame is a duplicate (do not deliver upward).
        The default applies 802.11 (src, seq, retry) filtering.
        """
        last = self._last_rx_seq.get(frame.src)
        if frame.retry and last == frame.seq:
            return True
        self._last_rx_seq[frame.src] = frame.seq
        return False

    def on_route_event(self, event: str, neighbour: int) -> None:
        """Hook: routing notifications (PCMAC resets its tables here)."""

    # =================================================================
    # Sender machine
    # =================================================================

    def _try_dequeue(self) -> None:
        if self._current is not None:
            return
        entry = self.ifq.pop()
        if entry is None:
            self._state = MacState.IDLE
            return
        self._current = _TxAttempt(entry=entry)
        self._state = MacState.CONTEND
        self.backoff.draw()
        self._schedule_access()

    def _schedule_access(self) -> None:
        """(Re)arm the defer+backoff countdown if conditions permit.

        Runs on every carrier-idle edge and NAV change while contending, so
        it reads the fields behind ``timer.armed``, ``radio.carrier_busy``
        and ``nav.busy_at`` directly.
        """
        if self._current is None or self._sender_state is not _CONTEND:
            return
        timer = self._access_timer
        if timer._event is not None:
            return
        radio = self.radio
        if (
            radio._tx_frame is not None
            or radio._total_power_w >= radio.cs_threshold_w
            or self._responding
        ):
            return  # carrier-idle / responder-done callbacks re-enter
        now = self.sim._now
        nav_until = self.nav._until
        if now < nav_until:
            self._access_is_countdown = False
            timer.arm_at(nav_until, label="mac.nav_wake")
            return
        defer = self.timing.eifs if radio.eifs_due else self.timing.difs
        slots = self.backoff.draw()
        self._countdown_defer_end = now + defer
        self._access_is_countdown = True
        timer.arm_at(now + defer + slots * self.timing.slot)

    def _access_fire(self, _payload: Any = None) -> None:
        """Access-timer callback: countdown completion or a plain wake."""
        if self._access_is_countdown:
            self._access_complete()
        else:
            self._access_wake()

    def _access_wake(self) -> None:
        self._schedule_access()

    def _pause_access(self) -> None:
        """Freeze the countdown, banking fully elapsed backoff slots."""
        timer = self._access_timer
        if timer._event is None:
            return
        timer.cancel()
        if self._access_is_countdown:
            elapsed = self.sim._now - self._countdown_defer_end
            if elapsed > 0 and self.backoff.pending:
                self.backoff.consume(int(elapsed / self.timing.slot + _SLOT_EPS))

    def _access_complete(self) -> None:
        self.backoff.finish()
        self.radio.eifs_due = False
        self._transmit_current()

    # --------------------------------------------------------------- transmit

    def _transmit_current(self) -> None:
        attempt = self._current
        assert attempt is not None
        entry = attempt.entry

        if entry.packet is not None and getattr(entry, "next_hop", None) == BROADCAST:
            self._send_broadcast(entry)
            return

        rts_power = (
            attempt.boosted_rts_power_w
            if attempt.boosted_rts_power_w is not None
            else self.power_for_rts(entry.next_hop)
        )
        delay_until = self.admission_delay(rts_power)
        if delay_until is not None:
            self.stats.admission_blocks += 1
            tr = self._tr_defer
            tr.count += 1
            if tr.store:
                tr.record(
                    self.sim.now, self.node_id, reason="admission", until=delay_until
                )
            self._access_is_countdown = False
            self._access_timer.arm_at(
                max(delay_until, self.sim.now), label="mac.admission_wake"
            )
            return

        needs_ack = self.data_needs_ack(entry)
        payload_bytes = entry.packet.size_bytes
        rts = MacFrame(
            ftype=FrameType.RTS,
            src=self.node_id,
            dst=entry.next_hop,
            size_bytes=self.mac_cfg.rts_size,
            duration_s=self.timing.rts_duration(payload_bytes, with_ack=needs_ack),
            tx_power_w=rts_power,
        )
        self.decorate_rts(rts)
        self.stats.rts_sent += 1
        self._state = MacState.WAIT_CTS
        self._send_control(rts)

    def _send_broadcast(self, entry: QueuedPacket) -> None:
        power = self.power_for_broadcast()
        frame = MacFrame(
            ftype=FrameType.DATA,
            src=self.node_id,
            dst=BROADCAST,
            size_bytes=entry.packet.size_bytes + self.mac_cfg.data_overhead,
            duration_s=0.0,
            tx_power_w=power,
            packet=entry.packet,
            seq=self._take_seq(),
            needs_ack=False,
        )
        self.stats.broadcast_sent += 1
        self._transmit_frame(frame, self.phy_cfg.data_rate_bps)

    def _send_control(self, frame: MacFrame) -> None:
        self._transmit_frame(frame, self.phy_cfg.basic_rate_bps)

    def _transmit_frame(self, frame: MacFrame, bitrate: float) -> None:
        phy = PhyFrame(
            payload=frame,
            size_bytes=frame.size_bytes,
            bitrate_bps=bitrate,
            plcp_s=self.phy_cfg.plcp_overhead_s,
            tx_power_w=frame.tx_power_w,
            src=self.node_id,
        )
        self.stats.tx_energy_j += frame.tx_power_w * phy.duration_s
        if frame.ftype == FrameType.DATA:
            self.stats.airtime_data_s += phy.duration_s
        else:
            self.stats.airtime_control_s += phy.duration_s
        tr = self._tr_handshake
        tr.count += 1
        if tr.store:
            tr.record(
                self.sim.now,
                self.node_id,
                kind=frame.ftype.value,
                dst=frame.dst,
                power_w=frame.tx_power_w,
            )
        self.channel.transmit(self.radio, phy)

    def _take_seq(self) -> int:
        self._next_seq += 1
        return self._next_seq

    # ------------------------------------------------------------- radio events

    def on_carrier_busy(self) -> None:
        """Radio callback (while contending): medium busy — freeze contention."""
        self._pause_access()

    def on_carrier_idle(self, failed: bool) -> None:
        """Radio callback (while contending): medium idle — resume contention.

        ``failed`` (EIFS requested) is already booked on ``radio.eifs_due``.
        """
        self._schedule_access()

    def on_rx_start(self, frame: PhyFrame) -> None:
        """Radio callback: locked onto an incoming frame (PCMAC hook point)."""

    def on_rx_drop(self, phy_frame: PhyFrame, reason: str) -> None:
        """Radio callback: a (non-null) reception model discarded an arrival.

        ``reason`` is one of :data:`~repro.phy.reception.plan.DROP_REASONS`;
        the counters feed the ``rx_drops`` gauge and ``repro stats``.  The
        inline threshold rules never call this.
        """
        if reason == "collision":
            self.stats.rx_drop_collision += 1
        elif reason == "capture_lost":
            self.stats.rx_drop_capture_lost += 1
        else:
            self.stats.rx_drop_below_sensitivity += 1

    def on_tx_end(self, phy_frame: PhyFrame) -> None:
        """Radio callback: our own transmission finished."""
        frame: MacFrame = phy_frame.payload
        ftype = frame.ftype
        if ftype is _RTS:
            self._cts_timer.arm_in(self.timing.cts_timeout)
        elif ftype is _CTS:
            self._resp_watchdog.arm_in(self.timing.sifs + self.phy_cfg.plcp_overhead_s
                                       + 4 * self.mac_cfg.timeout_slack_s)
        elif ftype is _DATA:
            if self._substitute_in_flight:
                # A PCMAC implicit-ACK retransmission finished; the fresh
                # packet is still current and re-contends for the medium.
                self._substitute_in_flight = False
            elif frame.is_broadcast:
                self._complete_current(success=True)
            elif frame.needs_ack:
                self._ack_timer.arm_in(self.timing.ack_timeout)
            else:
                # Three-way handshake: hand-off complete; recovery, if any,
                # rides on the next CTS (paper Section III).
                self._complete_current(success=True)
        elif ftype is _ACK:
            self._finish_responding()
        self._schedule_access()

    # --------------------------------------------------------------- timers

    def _on_cts_timeout(self, _payload: Any = None) -> None:
        if self._sender_state is not _WAIT_CTS or self._current is None:
            return
        self.stats.cts_timeouts += 1
        attempt = self._current
        attempt.short_retries += 1
        if attempt.short_retries >= self.mac_cfg.short_retry_limit:
            self._complete_current(success=False, reason="rts_retry_limit")
            return
        self.on_rts_failure(attempt)
        self.backoff.on_failure()
        self.backoff.draw()
        self._state = MacState.CONTEND
        self._schedule_access()

    def _on_ack_timeout(self, _payload: Any = None) -> None:
        if self._sender_state is not _WAIT_ACK or self._current is None:
            return
        self.stats.ack_timeouts += 1
        attempt = self._current
        attempt.long_retries += 1
        if attempt.long_retries >= self.mac_cfg.long_retry_limit:
            self._complete_current(success=False, reason="ack_retry_limit")
            return
        self.backoff.on_failure()
        self.backoff.draw()
        self._state = MacState.CONTEND
        self._schedule_access()

    # ------------------------------------------------------------ completion

    def _complete_current(self, success: bool, reason: str = "") -> None:
        attempt = self._current
        assert attempt is not None
        self._cts_timer.cancel()
        self._ack_timer.cancel()
        self._data_timer.cancel()
        self.backoff.on_success()
        self.backoff.draw()
        if not success:
            self.stats.drops_retry_limit += 1
            tr = self._tr_drop
            tr.count += 1
            if tr.store:
                tr.record(
                    self.sim.now,
                    self.node_id,
                    reason=reason,
                    dst=attempt.entry.next_hop,
                )
            self.on_link_failure(attempt.entry.packet, attempt.entry.next_hop)
        self._current = None
        self._state = MacState.IDLE
        self._try_dequeue()
        if self._current is not None:
            self._schedule_access()

    # =================================================================
    # Receive path
    # =================================================================

    def on_rx_end(self, phy_frame: PhyFrame, ok: bool, rx_power_w: float) -> None:
        """Radio callback: a locked frame finished (EIFS debt already set).

        Runs once per decoded frame at every receiver, so the power-history
        refresh and the NAV update are written out here rather than called.
        """
        if not ok:
            return
        frame: MacFrame = phy_frame.payload
        if not isinstance(frame, MacFrame):
            return
        now = self.sim._now
        src = frame.src
        node_id = self.node_id
        # Every decodable frame that advertises its power refreshes the
        # power history table (paper Section III): ``gain = rx / tx`` and
        # ``needed_tx_power``'s ``threshold * margin / gain``.  Both are
        # positive: a locked frame's SINR cleared the capture threshold
        # (>= 1), and PhyConfig keeps the decode threshold positive.
        tx_power_w = frame.tx_power_w
        if tx_power_w > 0 and src != node_id:
            gain = rx_power_w / tx_power_w
            self.history._records[src] = PowerRecord(
                self._needed_num / gain, gain, now
            )

        ftype = frame.ftype
        dst = frame.dst
        if dst == node_id:
            if ftype is _RTS:
                self._handle_rts(frame, rx_power_w)
            elif ftype is _CTS:
                self._handle_cts(frame, rx_power_w)
            elif ftype is _DATA:
                self._handle_data(frame, rx_power_w)
            elif ftype is _ACK:
                self._handle_ack(frame)
        elif dst == BROADCAST and ftype is _DATA:
            self.stats.data_delivered_up += 1
            self.deliver_up(frame.packet, src)
        else:
            # Overheard unicast traffic: honour its NAV reservation.  The
            # NAV only ever grows; a grown NAV that is busy now freezes the
            # countdown and re-arms access at its end.  The access timer is
            # armed only in CONTEND, so outside it there is nothing to do.
            until = now + frame.duration_s
            nav = self.nav
            if until > nav._until:
                nav._until = until
                if now < until and self._sender_state is _CONTEND:
                    self._pause_access()
                    self._schedule_access()

    # ------------------------------------------------------------- responder

    def _handle_rts(self, rts: MacFrame, rx_power_w: float) -> None:
        state = self._sender_state
        if state is _WAIT_CTS or state is _WAIT_ACK or state is _SEND_DATA:
            return  # mid-exchange as sender; cannot respond
        if self._responding or self.radio._tx_frame is not None:
            return
        if self.sim._now < self.nav._until:
            return  # virtual carrier sense forbids the CTS
        cts_power = self.power_for_cts(rts, rx_power_w)
        if cts_power <= 0:
            return
        delay_until = self.admission_delay(cts_power)
        if delay_until is not None:
            # Paper: the responder also runs the collision computation; when
            # blocked it stays silent and the sender retries.
            self.stats.admission_blocks += 1
            return
        self._responding = True
        self._pause_access()
        cts = MacFrame(
            ftype=FrameType.CTS,
            src=self.node_id,
            dst=rts.src,
            size_bytes=self.mac_cfg.cts_size,
            duration_s=max(
                rts.duration_s - self.timing.sifs - self.timing.cts_airtime, 0.0
            ),
            tx_power_w=cts_power,
        )
        self.decorate_cts(cts, rts, rx_power_w)
        self.stats.cts_sent += 1
        self._resp_timer.arm_in(self.timing.sifs, cts, label="mac.cts")

    def _resp_watchdog_fire(self, _payload: Any = None) -> None:
        if not self._responding:
            return
        busy_until = self.radio.lock_end_time or self.radio.tx_end_time
        if busy_until is not None:
            # The expected DATA (or our own frame) is in flight: sleep until
            # just past its end rather than polling.
            self._resp_watchdog.arm_in(
                max(busy_until - self.sim.now, 0.0) + self.timing.sifs
            )
            return
        self._finish_responding()

    def _finish_responding(self) -> None:
        self._resp_watchdog.cancel()
        self._resp_timer.cancel()
        self._responding = False
        self._schedule_access()

    def _handle_data(self, data: MacFrame, rx_power_w: float) -> None:
        self._resp_watchdog.cancel()
        duplicate = self.on_data_received(data)
        if duplicate:
            self.stats.duplicates += 1
        if data.needs_ack:
            ack = MacFrame(
                ftype=FrameType.ACK,
                src=self.node_id,
                dst=data.src,
                size_bytes=self.mac_cfg.ack_size,
                duration_s=0.0,
                tx_power_w=self.power_for_ack(data, rx_power_w),
            )
            self.stats.ack_sent += 1
            self._responding = True
            self._resp_timer.arm_in(self.timing.sifs, ack, label="mac.ack")
        else:
            self._finish_responding()
        if not duplicate:
            self.stats.data_delivered_up += 1
            self.deliver_up(data.packet, data.src)

    # --------------------------------------------------------------- sender RX

    def _handle_cts(self, cts: MacFrame, rx_power_w: float) -> None:
        if self._sender_state is not _WAIT_CTS or self._current is None:
            return
        attempt = self._current
        if cts.src != attempt.entry.next_hop:
            return
        self._cts_timer.cancel()
        attempt.short_retries = 0
        self.on_cts_feedback(cts)
        self._state = MacState.SEND_DATA
        self._data_timer.arm_in(self.timing.sifs, cts)

    def _send_data_after_cts(self, cts: MacFrame) -> None:
        attempt = self._current
        if attempt is None or self._sender_state is not _SEND_DATA:
            return
        entry = attempt.entry

        data_power = self.power_for_data(entry.next_hop, cts)
        delay_until = self.admission_delay_data(data_power)
        if delay_until is not None:
            # Paper Step 4: the collision computation is repeated before the
            # DATA itself; when blocked the exchange is abandoned and the
            # sender re-contends after the protected reception completes.
            self.stats.admission_blocks += 1
            self._state = MacState.CONTEND
            self.backoff.draw()
            self._access_is_countdown = False
            self._access_timer.arm_at(
                max(delay_until, self.sim.now), label="mac.admission_wake"
            )
            return

        if attempt.substitute is not None:
            # PCMAC implicit-ACK recovery: resend the retained copy; the
            # fresh packet stays queued for the next exchange.
            frame = attempt.substitute
            attempt.substitute = None
            frame = frame.clone_for_retry()
            frame.tx_power_w = data_power
            self.stats.implicit_retransmits += 1
            self.stats.data_sent += 1
            self._state = MacState.CONTEND
            self.backoff.draw()
            self._substitute_in_flight = True
            self._transmit_frame(frame, self.phy_cfg.data_rate_bps)
            # After this retransmission the machine re-contends to send the
            # still-pending fresh packet (entry remains current).
            return

        needs_ack = self.data_needs_ack(entry)
        packet = entry.packet
        if attempt.seq is None:
            attempt.seq = self._take_seq()
        frame = MacFrame(
            ftype=FrameType.DATA,
            src=self.node_id,
            dst=entry.next_hop,
            size_bytes=packet.size_bytes + self.mac_cfg.data_overhead,
            duration_s=self.timing.data_duration(with_ack=needs_ack),
            tx_power_w=data_power,
            packet=packet,
            seq=attempt.seq,
            retry=attempt.long_retries > 0,
            needs_ack=needs_ack,
            session_id=getattr(packet, "flow_id", None),
            session_seq=getattr(packet, "seq", None),
        )
        self.on_data_sent(frame, entry)
        self.stats.data_sent += 1
        if needs_ack:
            self._state = MacState.WAIT_ACK
        self._transmit_frame(frame, self.phy_cfg.data_rate_bps)

    def _handle_ack(self, ack: MacFrame) -> None:
        if self._sender_state is not _WAIT_ACK or self._current is None:
            return
        if ack.src != self._current.entry.next_hop:
            return
        self._complete_current(success=True)
