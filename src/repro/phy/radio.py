"""Half-duplex radio with SINR tracking, capture and carrier-sense edges.

State machine
-------------
A radio is either transmitting (``tx_frame`` set), locked onto an incoming
frame it is trying to decode (``lock`` set), or neither.  Independently it
tracks the *total* in-band received power from all concurrent arrivals; the
carrier is "busy" whenever that total meets the carrier-sense threshold or
the radio itself transmits.

Decode rules (NS-2 ``CPThresh`` semantics, made interference-cumulative):

* A new arrival is **lockable** iff the radio is neither transmitting nor
  already locked, its received power meets ``rx_threshold_w``, and its SINR
  against all other current arrivals plus the noise floor meets the capture
  threshold.
* While locked, every interference change re-checks the lock's SINR; one dip
  below the capture threshold latches corruption (a real receiver cannot
  "unsee" the corrupted symbols).
* An arrival that was decodable in power but could not be locked (receiver
  busy, or SINR too low at its start) counts as a *failed decode attempt* —
  this is what drives the MAC's EIFS deferral, which the paper's
  asymmetric-link argument depends on.

These inline rules are the ``null`` reception model.  A scenario whose
``reception`` slot is non-null installs a
:class:`~repro.phy.reception.sinr.SinrReceiver` on :attr:`Radio.reception`,
which then owns every decode decision (preamble sync windows, mid-sync
capture, typed loss reasons) while the radio keeps the interference ledger,
carrier-sense edges and TX bookkeeping.  The radio hands the receiver every
leading edge (``on_arrival``) but only the locked frame's trailing edge
(``on_departure``): any other departure lowers the interference sum, which
cannot hurt the lock, and its frame was classified when it arrived.  The
default is ``None`` with a single ``is not None`` check per leading edge
and per lock completion — the ``power_meter`` / ``faults`` opt-in precedent
— so null-reception runs are bit-identical to builds that predate the slot.

Interference ledger: ``_arrivals`` maps each in-flight frame id to its
received power, nothing more.  The :class:`_Arrival` record (frame, power,
end time) is built only when a frame is locked — by the inline rules or by
the receiver — because most arrivals are never decoded.

Carrier sense and EIFS: the radio tracks every busy/idle edge (and counts it
as ``phy.cs``) whoever listens.  An idle edge is *failed* when the ending
busy period contained foreign energy and its last decode attempt did not
succeed — "can sense but cannot decode" per the paper's Section II.  The
radio keeps the resulting EIFS debt itself in :attr:`Radio.eifs_due`: a
failed idle edge sets it and every finished decode sets it to ``not ok``;
the MAC reads it when it arms its deferral and clears it when it takes the
medium.  The ``on_carrier_busy`` / ``on_carrier_idle(failed)`` callbacks
are delivered only while :attr:`Radio.carrier_watch` is true, so a listener
that has no use for an edge (a MAC with no packet contending, the PCMAC
control radio) does not pay for the call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol

from repro.phy.frame import PhyFrame
from repro.phy.noise import NoiseModel
from repro.sim.kernel import Simulator
from repro.sim.trace import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.mobility.base import MobilityModel


class RadioListener(Protocol):
    """MAC-facing callbacks a radio invokes.

    The two carrier callbacks are on demand: the radio calls them only
    while its ``carrier_watch`` attribute is true (the default, so a plain
    listener sees every edge).  A listener that switches the watch off
    must not depend on edges it misses; the radio still tracks the busy
    state and the EIFS debt (``radio.eifs_due``) across them.

    A listener may additionally implement ``on_rx_drop(frame, reason)`` —
    called only under a non-null ``reception`` model for every arrival the
    receiver discards, with ``reason`` one of
    :data:`~repro.phy.reception.plan.DROP_REASONS`.  It is looked up
    dynamically, so listeners that do not care simply omit it.
    """

    def on_carrier_busy(self) -> None:
        """Total in-band power rose to the carrier-sense threshold."""

    def on_carrier_idle(self, failed: bool) -> None:
        """Carrier dropped below threshold; ``failed`` requests EIFS."""

    def on_rx_start(self, frame: PhyFrame) -> None:
        """The radio locked onto ``frame`` and is attempting to decode it."""

    def on_rx_end(self, frame: PhyFrame, ok: bool, rx_power_w: float) -> None:
        """A locked frame finished; ``ok`` is the decode outcome."""

    def on_tx_end(self, frame: PhyFrame) -> None:
        """The radio finished transmitting ``frame``."""


class _NullListener:
    """Default listener: ignores everything (used before a MAC attaches)."""

    def on_carrier_busy(self) -> None:  # pragma: no cover - trivial
        pass

    def on_carrier_idle(self, failed: bool) -> None:  # pragma: no cover
        pass

    def on_rx_start(self, frame: PhyFrame) -> None:  # pragma: no cover
        pass

    def on_rx_end(self, frame, ok, rx_power_w) -> None:  # pragma: no cover
        pass

    def on_tx_end(self, frame: PhyFrame) -> None:  # pragma: no cover
        pass


@dataclass(slots=True)
class _Arrival:
    """The frame a radio is locked onto (built only when a lock is taken)."""

    frame: PhyFrame
    power_w: float
    end_time: float


class RadioError(RuntimeError):
    """Raised on protocol misuse of the radio (e.g. TX while TX)."""


class RadioFaultState:
    """Receiver-side fault-injection state (installed by the fault injector).

    Only exists while at least one fault window is active at this radio —
    ``Radio.faults`` is None otherwise, so the fault-free hot path pays a
    single ``is not None`` check (the ``power_meter`` precedent).

    Attributes:
        gains: per-transmitter received-power multipliers (link fades);
            sources not listed are unaffected.
        corrupt_p: probability that an otherwise-successful decode is
            flipped to a failure (0 = corruption off).
        rng: the scenario's dedicated fault stream (draws happen in event
            order, so the damage pattern is deterministic per seed).
    """

    __slots__ = ("gains", "corrupt_p", "rng")

    def __init__(self, rng=None) -> None:
        self.gains: dict[int, float] = {}
        self.corrupt_p = 0.0
        self.rng = rng

    @property
    def active(self) -> bool:
        """True while any fade or corruption window is in force."""
        return bool(self.gains) or self.corrupt_p > 0.0


class Radio:
    """A single half-duplex radio attached to one channel.

    Args:
        sim: the simulation kernel.
        node_id: owning node id (for traces).
        position_fn: callable returning the node's current (x, y) [m];
            may be omitted when ``mobility`` is given.
        mobility: optional mobility model.  When set, the radio's position
            is sampled from it directly, and the channel can use the model's
            speed bound and still intervals to keep its spatial index fresh
            and replay fan-outs (see :class:`~repro.phy.channel.Channel`).
        rx_threshold_w: minimum power to decode.
        cs_threshold_w: minimum power to sense carrier.
        capture_threshold: required linear SINR for successful decode.
        noise: ambient noise model.
        tracer: optional structured tracer.
    """

    __slots__ = (
        "sim",
        "node_id",
        "position_fn",
        "mobility",
        "rx_threshold_w",
        "cs_threshold_w",
        "capture_threshold",
        "noise",
        "tracer",
        "listener",
        "carrier_watch",
        "eifs_due",
        "channel_name",
        "_arrivals",
        "_total_power_w",
        "_lock",
        "_lock_corrupted",
        "_tx_frame",
        "_tx_end_event",
        "_busy_reported",
        "_busy_saw_foreign",
        "_busy_last_decode",
        "power_meter",
        "faults",
        "reception",
        "stats",
        "_tr_tx",
        "_tr_rx_ok",
        "_tr_rx_err",
        "_tr_cs",
        "_noise_w",
    )

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        position_fn: Callable[[], tuple[float, float]] | None = None,
        *,
        mobility: MobilityModel | None = None,
        rx_threshold_w: float,
        cs_threshold_w: float,
        capture_threshold: float,
        noise: NoiseModel,
        tracer: Tracer = NULL_TRACER,
        channel_name: str = "data",
    ) -> None:
        if rx_threshold_w <= cs_threshold_w:
            raise ValueError("rx threshold must exceed cs threshold")
        if position_fn is None and mobility is None:
            raise ValueError("radio needs a position_fn or a mobility model")
        self.sim = sim
        self.node_id = node_id
        self.position_fn = position_fn
        self.mobility = mobility
        self.rx_threshold_w = rx_threshold_w
        self.cs_threshold_w = cs_threshold_w
        self.capture_threshold = capture_threshold
        self.noise = noise
        #: Cached time-invariant noise floor, or None for varying models —
        #: the SINR checks below run per signal edge.
        self._noise_w = noise.constant_w()
        self.tracer = tracer
        self.listener: RadioListener = _NullListener()
        #: Deliver ``on_carrier_busy`` / ``on_carrier_idle`` to the listener?
        #: Edges are tracked and traced either way; a listener turns this
        #: off while no edge can change what it does.
        self.carrier_watch = True
        #: EIFS debt: the last busy period ended "sensed but not decoded",
        #: or the last decode failed.  The MAC reads and clears it.
        self.eifs_due = False
        self.channel_name = channel_name
        #: In-flight arrivals: frame id -> received power [W].
        self._arrivals: dict[int, float] = {}
        self._total_power_w = 0.0
        self._lock: _Arrival | None = None
        self._lock_corrupted = False
        self._tx_frame: PhyFrame | None = None
        self._tx_end_event = None
        # Carrier-sense busy-period bookkeeping.
        self._busy_reported = False
        self._busy_saw_foreign = False
        self._busy_last_decode: bool | None = None  # None = no attempt yet
        #: Optional :class:`~repro.energy.meter.RadioPowerMeter`.  Energy
        #: accounting is opt-in: every transition site below guards with a
        #: single ``is not None`` check, and the meter itself schedules no
        #: events, so unmetered runs are untouched and metered runs are
        #: event-schedule identical.
        self.power_meter = None
        #: Optional :class:`RadioFaultState`.  Fault injection is opt-in with
        #: the same contract as metering: a single ``is not None`` guard per
        #: hook site, installed only while a fault window is active, so
        #: fault-free runs are event-schedule bit-identical.
        self.faults = None
        #: Optional :class:`~repro.phy.reception.sinr.SinrReceiver`.  Same
        #: opt-in contract: when None the inline decode rules below apply
        #: unchanged; when set, the receiver owns lock acquisition/loss and
        #: the radio only keeps the ledger and carrier-sense edges.
        self.reception = None
        # Pre-bound trace handles: counters bump with one integer add and
        # the detail kwargs dict is only built for stored categories.
        self._tr_tx = tracer.handle("phy.tx")
        self._tr_rx_ok = tracer.handle("phy.rx_ok")
        self._tr_rx_err = tracer.handle("phy.rx_err")
        self._tr_cs = tracer.handle("phy.cs")
        self.stats = {
            "tx_frames": 0,
            "rx_ok": 0,
            "rx_corrupted": 0,
            "rx_unlockable": 0,
            "rx_aborted_by_tx": 0,
        }

    # ------------------------------------------------------------------ state

    def mute(self) -> None:
        """Replace the listener with a null one (node power-down).

        In-flight signal edges still reach the radio after it detaches from
        its channel; muting guarantees they can no longer drive the MAC.
        """
        self.listener = _NullListener()

    def set_noise_floor_w(self, noise_w: float | None) -> None:
        """Override the noise floor (fault injection); None restores ambient.

        Only the decode-side SINR is affected — carrier sense keeps its
        threshold semantics (the burst models front-end noise, not
        sensable energy).  A rise can corrupt the lock currently being
        decoded, exactly like an interference rise would.
        """
        self._noise_w = self.noise.constant_w() if noise_w is None else noise_w
        reception = self.reception
        if reception is not None:
            reception.on_noise_change()
            return
        if (
            self._lock is not None
            and not self._lock_corrupted
            and self.sinr_of(self._lock.power_w) < self.capture_threshold
        ):
            self._lock_corrupted = True

    @property
    def position(self) -> tuple[float, float]:
        """Current node position [m]."""
        if self.mobility is not None:
            return self.mobility.position_at(self.sim.now)
        return self.position_fn()

    @property
    def transmitting(self) -> bool:
        """True while this radio is emitting a frame."""
        return self._tx_frame is not None

    @property
    def tx_power_w(self) -> float:
        """Transmit power of the frame currently on air [W]; 0 when idle.

        The ``tx_power_w`` observability gauge — a per-instant view of the
        power-control decision the protocols make per frame.
        """
        frame = self._tx_frame
        return frame.tx_power_w if frame is not None else 0.0

    @property
    def receiving(self) -> bool:
        """True while locked onto an incoming frame."""
        return self._lock is not None

    @property
    def lock_power_w(self) -> float | None:
        """Received power of the frame currently being decoded, if any."""
        return self._lock.power_w if self._lock is not None else None

    @property
    def lock_end_time(self) -> float | None:
        """When the current locked reception finishes, if any."""
        return self._lock.end_time if self._lock is not None else None

    @property
    def tx_end_time(self) -> float | None:
        """When the current transmission finishes, if any."""
        return self._tx_end_event.time if self._tx_end_event is not None else None

    @property
    def carrier_busy(self) -> bool:
        """Medium state as 802.11 sees it: own TX or sensed energy."""
        return self.transmitting or self._total_power_w >= self.cs_threshold_w

    @property
    def total_power_w(self) -> float:
        """Sum of all in-flight arrival powers at this radio [W]."""
        return self._total_power_w

    @property
    def interference_w(self) -> float:
        """Noise floor plus all arrival power not part of the current lock."""
        lock_p = self._lock.power_w if self._lock is not None else 0.0
        noise = self._noise_w
        if noise is None:
            noise = self.noise.noise_w()
        return noise + max(self._total_power_w - lock_p, 0.0)

    def sinr_of(self, power_w: float) -> float:
        """SINR a signal of ``power_w`` would see against current arrivals.

        The signal's own power is excluded from the interference sum if it is
        already among the arrivals (caller passes the arrival's power).
        """
        other = max(self._total_power_w - power_w, 0.0)
        noise = self._noise_w
        if noise is None:
            noise = self.noise.noise_w()
        return power_w / (noise + other)

    # ------------------------------------------------------------- transmit

    def begin_tx(self, frame: PhyFrame) -> None:
        """Start emitting ``frame``; schedules the local TX-end event.

        The channel is responsible for delivering the signal to other radios.
        Raises :class:`RadioError` if already transmitting (a MAC bug).
        """
        if self._tx_frame is not None:
            raise RadioError(
                f"node {self.node_id}: begin_tx while already transmitting"
            )
        if self._lock is not None:
            # Transmitting stomps an ongoing reception; the lock is silently
            # abandoned (we are now deaf) and counted.  A correct MAC only
            # hits this through deliberate protocol choices.
            reception = self.reception
            if reception is not None:
                reception.on_tx_abort()
            else:
                self.stats["rx_aborted_by_tx"] += 1
                self._lock = None
                self._lock_corrupted = False
        was_busy = self._busy_reported
        self._tx_frame = frame
        self.stats["tx_frames"] += 1
        meter = self.power_meter
        if meter is not None:
            meter.note_tx(frame.tx_power_w)
        tr = self._tr_tx
        tr.count += 1
        if tr.store:
            tr.record(
                self.sim.now,
                self.node_id,
                frame=frame.frame_id,
                power_w=frame.tx_power_w,
                dur=frame.duration_s,
                chan=self.channel_name,
            )
        self._tx_end_event = self.sim.schedule_in(
            frame.duration_s, self._finish_tx, label="phy.tx_end"
        )
        if not was_busy:
            # The own-TX busy edge opens a busy period like a sensed edge
            # does: foreign energy counts only if it is on air now, so a
            # sub-threshold arrival that ended before this TX cannot mark
            # the idle edge after it as failed.
            self._busy_reported = True
            self._busy_saw_foreign = bool(self._arrivals)
            self._busy_last_decode = None
            tr = self._tr_cs
            tr.count += 1
            if tr.store:
                tr.record(self.sim.now, self.node_id, busy=True)
            if self.carrier_watch:
                self.listener.on_carrier_busy()

    def _finish_tx(self) -> None:
        frame = self._tx_frame
        assert frame is not None
        self._tx_frame = None
        self._tx_end_event = None
        meter = self.power_meter
        if meter is not None:
            # A lock cannot survive into TX (begin_tx abandons it), so the
            # radio is idle-listening the instant its own emission ends.
            meter.note_idle()
        self.listener.on_tx_end(frame)
        # Own TX kept the carrier busy, so the only possible edge now is
        # busy -> idle, once the arrivals alone fall below the threshold
        # (and unless the callback already started the next TX).
        if (
            self._busy_reported
            and self._tx_frame is None
            and self._total_power_w < self.cs_threshold_w
        ):
            self._report_idle()

    # -------------------------------------------------------------- receive

    def signal_start(self, frame: PhyFrame, rx_power_w: float) -> None:
        """A signal's leading edge reached this radio (called by the channel).

        Handler contract: the channel delivers this and :meth:`signal_end`
        as kernel events or, on the indexed fan-out, as edges of an
        uncancellable batch (:meth:`~repro.sim.kernel.Simulator.schedule_fanout`).
        Either way it runs once, at its own time with ``sim.now`` set, in
        the ``(time, priority, seq)`` order; no :class:`~repro.sim.event.Event`
        need exist for it, so nothing may try to cancel it.  It may
        schedule or cancel other events and call ``stop()``.  Edges of
        frames already in flight are still delivered after a
        :meth:`~repro.phy.channel.Channel.detach`.
        """
        faults = self.faults
        if faults is not None:
            # Link fade: attenuation-only, applied at the receiver so the
            # channel's culling and replay memo stay untouched.
            gain = faults.gains.get(frame.src)
            if gain is not None:
                rx_power_w *= gain
        self._arrivals[frame.frame_id] = rx_power_w
        self._total_power_w += rx_power_w
        self._busy_saw_foreign = True

        reception = self.reception
        if reception is not None:
            reception.on_arrival(frame, rx_power_w)
        elif self._tx_frame is not None:
            # Deaf while transmitting; energy still tracked above.  Already
            # carrier-busy by the own-TX invariant — no edge can fire here.
            return
        elif self._lock is None:
            if rx_power_w >= self.rx_threshold_w:
                if self.sinr_of(rx_power_w) >= self.capture_threshold:
                    self._lock = _Arrival(
                        frame, rx_power_w, self.sim._now + frame.duration_s
                    )
                    self._lock_corrupted = False
                    meter = self.power_meter
                    if meter is not None:
                        meter.note_rx()
                    self.listener.on_rx_start(frame)
                else:
                    # Decodable power but drowned at its start: failed attempt.
                    self.stats["rx_unlockable"] += 1
                    self._busy_last_decode = False
        else:
            # Interference rose for the current lock: re-check its SINR.
            if (
                not self._lock_corrupted
                and self.sinr_of(self._lock.power_w) < self.capture_threshold
            ):
                self._lock_corrupted = True
            if rx_power_w >= self.rx_threshold_w:
                # Arrived while the receiver was occupied: cannot be decoded.
                self.stats["rx_unlockable"] += 1
        # Power only rose: the sole possible carrier edge is idle -> busy.
        # A busy period opens with a foreign arrival on the ledger and no
        # decode attempt yet.
        if not self._busy_reported and self._total_power_w >= self.cs_threshold_w:
            self._busy_reported = True
            self._busy_last_decode = None
            tr = self._tr_cs
            tr.count += 1
            if tr.store:
                tr.record(self.sim._now, self.node_id, busy=True)
            if self.carrier_watch:
                self.listener.on_carrier_busy()

    def signal_end(self, frame_id: int) -> None:
        """A signal's trailing edge passed this radio (called by the channel).

        Same handler contract as :meth:`signal_start`; an end whose start
        was never seen (no matching arrival) is ignored.
        """
        power_w = self._arrivals.pop(frame_id, None)
        if power_w is None:
            return
        self._total_power_w -= power_w
        if not self._arrivals:
            # Kill accumulated float drift whenever the air goes quiet.
            self._total_power_w = 0.0

        lock = self._lock
        if lock is not None and lock.frame.frame_id == frame_id:
            # Only the lock's trailing edge can finish a decode: any other
            # departure lowers the interference sum, which cannot hurt it.
            reception = self.reception
            if reception is not None:
                reception.on_departure(frame_id)
            else:
                self._complete_lock(
                    lock, not self._lock_corrupted and self._tx_frame is None
                )
        # Power only fell: the sole possible carrier edge is busy -> idle
        # (own TX keeps the carrier busy regardless of arrivals).  Inlined
        # copy of :meth:`_report_idle`, the per-edge hot path.
        if (
            self._busy_reported
            and self._tx_frame is None
            and self._total_power_w < self.cs_threshold_w
        ):
            self._busy_reported = False
            failed = self._busy_saw_foreign and self._busy_last_decode is not True
            self._busy_saw_foreign = False
            self._busy_last_decode = None
            if failed:
                self.eifs_due = True
            tr = self._tr_cs
            tr.count += 1
            if tr.store:
                tr.record(self.sim._now, self.node_id, busy=False, failed=failed)
            if self.carrier_watch:
                self.listener.on_carrier_idle(failed)

    def _complete_lock(self, arrival: _Arrival, ok: bool) -> None:
        """Finish the locked reception ``arrival`` with decode outcome ``ok``.

        Shared by the inline (null-reception) rules and the pluggable
        receiver: applies the fault-injection corruption draw, clears the
        lock, updates the EIFS flags, meters, stats and traces, and fires
        ``listener.on_rx_end``.
        """
        faults = self.faults
        if (
            ok
            and faults is not None
            and faults.corrupt_p > 0.0
            and faults.rng.random() < faults.corrupt_p
        ):
            # Injected frame damage: an otherwise-clean decode fails.
            ok = False
            self.tracer.emit(
                self.sim.now,
                "fault.corrupt",
                self.node_id,
                frame=arrival.frame.frame_id,
                src=arrival.frame.src,
            )
        self._lock = None
        self._lock_corrupted = False
        self._busy_last_decode = ok
        meter = self.power_meter
        if meter is not None:
            meter.note_idle()
        if ok:
            self.stats["rx_ok"] += 1
            tr = self._tr_rx_ok
        else:
            self.stats["rx_corrupted"] += 1
            tr = self._tr_rx_err
        tr.count += 1
        if tr.store:
            tr.record(
                self.sim.now,
                self.node_id,
                frame=arrival.frame.frame_id,
                power_w=arrival.power_w,
                chan=self.channel_name,
            )
        # A failed decode owes EIFS; a clean one settles any earlier debt.
        self.eifs_due = not ok
        self.listener.on_rx_end(arrival.frame, ok, arrival.power_w)

    # ---------------------------------------------------------- carrier sense

    def _report_idle(self) -> None:
        """Transition to carrier-idle: settle EIFS, trace, notify if watched.

        Used at TX end; :meth:`signal_end` inlines the same steps.
        """
        self._busy_reported = False
        failed = self._busy_saw_foreign and self._busy_last_decode is not True
        self._busy_saw_foreign = False
        self._busy_last_decode = None
        if failed:
            self.eifs_due = True
        tr = self._tr_cs
        tr.count += 1
        if tr.store:
            tr.record(self.sim._now, self.node_id, busy=False, failed=failed)
        if self.carrier_watch:
            self.listener.on_carrier_idle(failed)
