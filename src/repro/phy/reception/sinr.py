"""Cumulative-SINR receiver state machine with preamble capture.

A :class:`SinrReceiver` hangs off one :class:`~repro.phy.radio.Radio` (the
``radio.reception`` slot, ``None`` by default — the ``power_meter`` /
``faults`` opt-in precedent) and takes over the radio's *decode* decisions.
The radio keeps what it already does well: the per-arrival interference
ledger (``_arrivals``, frame id -> power, and ``total_power_w``),
carrier-sense edges, half-duplex TX bookkeeping and the listener plumbing.
The receiver decides who gets the lock (building the radio's lock record
only then) and whether the locked frame survives.

States (derived, never stored redundantly):

=========  ================================================================
IDLE       no lock; any decodable arrival with SINR ≥ capture may sync
SYNC       locked, still inside the frame's preamble window
           (``now < arrival time + plcp_s``); the lock is *abandonable* —
           a sufficiently stronger arrival captures the receiver, and an
           interference rise that breaks the sync SINR releases it
RX         locked past the preamble; the lock is latched — interference
           dips now corrupt (a receiver cannot "unsee" lost symbols) and
           no arrival can capture
TX-deaf    the radio transmits; every arrival is undecodable here
=========  ================================================================

Decode success therefore means: the frame's SINR met the capture threshold
at its leading edge and at every interference change across its airtime —
exactly the "worst-interval SINR" rule, evaluated lazily at signal edges so
the receiver schedules **no events of its own**.  A departure can only
lower the interference, so the radio calls :meth:`SinrReceiver.on_arrival`
for every leading edge but :meth:`SinrReceiver.on_departure` only for the
locked frame's own trailing edge; every other departure just lowers the
radio's interference sum.

Every arrival is classified exactly once — decoded, or dropped with a typed
reason from :data:`~repro.phy.reception.plan.DROP_REASONS` — counted in
:attr:`SinrReceiver.drops`, traced as ``phy.rx_drop``, and reported to the
MAC through the optional ``on_rx_drop(frame, reason)`` listener callback.

Ordering invariance: at equal timestamps the channel delivers trailing
edges before leading edges (event priority), and within a same-instant
batch of leading edges the *decode outcomes* are order-invariant — the
capture criterion equals the sync-from-idle criterion and ``capture_threshold
>= 1`` makes the winner strictly the strongest signal on air
(property-tested in ``tests/reception/test_sinr_receiver.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.phy.reception.plan import (
    DROP_BELOW_SENSITIVITY,
    DROP_CAPTURE_LOST,
    DROP_COLLISION,
    DROP_REASONS,
    ReceptionPlan,
)

from repro.phy.radio import _Arrival

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.phy.frame import PhyFrame
    from repro.phy.radio import Radio


class SinrReceiver:
    """Per-radio SINR decode engine (installed as ``radio.reception``).

    The receiver manages the radio's ``_lock`` / ``_lock_corrupted`` state
    directly so every consumer of the public lock surface —
    ``radio.receiving``, ``lock_power_w``, ``lock_end_time``, PCMAC's
    noise-tolerance announcements — keeps working unchanged, and drives the
    power meter through the same ``note_rx`` / ``note_idle`` transitions the
    inline rules use.

    Args:
        radio: the owning radio.
        plan: validated parameters (capture threshold, sensitivity).
    """

    __slots__ = (
        "radio",
        "capture_threshold",
        "rx_sensitivity_w",
        "drops",
        "_sync_until",
        "_tr_drop",
    )

    def __init__(self, radio: "Radio", plan: ReceptionPlan) -> None:
        self.radio = radio
        self.capture_threshold = plan.capture_threshold
        self.rx_sensitivity_w = plan.rx_sensitivity_w
        #: Typed loss-reason counters for every arrival this radio discarded.
        self.drops: dict[str, int] = {reason: 0 for reason in DROP_REASONS}
        #: End of the current lock's preamble window (SYNC → RX boundary).
        self._sync_until = 0.0
        self._tr_drop = radio.tracer.handle("phy.rx_drop")

    # ------------------------------------------------------------- queries

    @property
    def drop_total(self) -> int:
        """Sum of all typed drops at this receiver."""
        return sum(self.drops.values())

    @property
    def in_sync(self) -> bool:
        """True while the current lock is still inside its preamble window."""
        return (
            self.radio._lock is not None
            and self.radio.sim.now < self._sync_until
        )

    # ----------------------------------------------------------- radio hooks

    def on_arrival(self, frame: "PhyFrame", power_w: float) -> None:
        """A signal's leading edge reached the radio (power already booked).

        The sync test is ``radio.sinr_of(power_w) >= capture_threshold``,
        written out: it runs for every decodable arrival at an idle
        receiver.
        """
        radio = self.radio

        if power_w < self.rx_sensitivity_w:
            # Undecodable at any SINR: interference only.  The power it
            # adds can still break the current lock, checked below.
            self._drop(frame, power_w, DROP_BELOW_SENSITIVITY)
            self._recheck_lock()
            return

        if radio._tx_frame is not None:
            # Half-duplex: deaf to a decodable frame while transmitting.
            self._drop(frame, power_w, DROP_COLLISION)
            return

        # An idle receiver syncs onto an arrival that clears the capture
        # threshold.  An occupied one in its preamble window is captured by
        # one that clears it against *everything* on air (the lock
        # included); past the preamble the lock is immutable and the
        # newcomer can only do damage.
        now = radio.sim._now
        lock = radio._lock
        syncs = False
        if lock is None or now < self._sync_until:
            other = radio._total_power_w - power_w
            if other < 0.0:
                other = 0.0
            noise = radio._noise_w
            if noise is None:
                noise = radio.noise.noise_w()
            syncs = power_w / (noise + other) >= self.capture_threshold
        if lock is None:
            if not syncs:
                # Decodable power, drowned at its leading edge.
                radio.stats["rx_unlockable"] += 1
                radio._busy_last_decode = False
                self._drop(frame, power_w, DROP_COLLISION)
                return
        elif syncs:
            self._drop(lock.frame, lock.power_w, DROP_CAPTURE_LOST)
            self._release_lock()
        else:
            radio.stats["rx_unlockable"] += 1
            self._drop(frame, power_w, DROP_COLLISION)
            self._recheck_lock()
            return

        # Sync: lock onto the newcomer.
        radio._lock = _Arrival(frame, power_w, now + frame.duration_s)
        radio._lock_corrupted = False
        self._sync_until = now + frame.plcp_s
        meter = radio.power_meter
        if meter is not None:
            meter.note_rx()
        radio.listener.on_rx_start(frame)

    def on_departure(self, frame_id: int) -> None:
        """The locked frame's trailing edge passed (power already released).

        The radio calls this only for the lock's own edge: every other
        arrival was classified at its leading edge, and a falling
        interference sum can only improve the lock's SINR.
        """
        radio = self.radio
        lock = radio._lock
        ok = not radio._lock_corrupted
        if not ok:
            self._drop(lock.frame, lock.power_w, DROP_COLLISION)
        self._sync_until = 0.0
        radio._complete_lock(lock, ok)

    def on_tx_abort(self) -> None:
        """The radio's own TX stomped the current lock (now deaf)."""
        radio = self.radio
        lock = radio._lock
        assert lock is not None
        radio.stats["rx_aborted_by_tx"] += 1
        self._drop(lock.frame, lock.power_w, DROP_CAPTURE_LOST)
        radio._lock = None
        radio._lock_corrupted = False
        self._sync_until = 0.0

    def on_noise_change(self) -> None:
        """The noise floor moved (fault injection): re-check the lock."""
        self._recheck_lock()

    # ------------------------------------------------------------- internals

    def _release_lock(self) -> None:
        radio = self.radio
        radio._lock = None
        radio._lock_corrupted = False
        self._sync_until = 0.0
        meter = radio.power_meter
        if meter is not None:
            meter.note_idle()

    def _recheck_lock(self) -> None:
        """Interference (or noise) changed: does the lock still hold?"""
        radio = self.radio
        lock = radio._lock
        if lock is None or radio._lock_corrupted:
            return
        if radio.sinr_of(lock.power_w) >= self.capture_threshold:
            return
        if radio.sim._now < self._sync_until:
            # Preamble sync broken before the receiver latched: abandon the
            # lock entirely — the receiver returns to IDLE (it cannot
            # re-sync onto frames whose preambles have already passed).
            self._drop(lock.frame, lock.power_w, DROP_COLLISION)
            self._release_lock()
            radio._busy_last_decode = False
        else:
            # Mid-frame stomp: the symbols are gone, corruption latches.
            radio._lock_corrupted = True

    def _drop(self, frame: "PhyFrame", power_w: float, reason: str) -> None:
        """Record one typed discard: counter, trace, MAC callback."""
        self.drops[reason] += 1
        radio = self.radio
        tr = self._tr_drop
        tr.count += 1
        if tr.store:
            tr.record(
                radio.sim._now,
                radio.node_id,
                frame=frame.frame_id,
                src=frame.src,
                reason=reason,
                power_w=power_w,
                chan=radio.channel_name,
            )
        on_rx_drop = getattr(radio.listener, "on_rx_drop", None)
        if on_rx_drop is not None:
            on_rx_drop(frame, reason)
