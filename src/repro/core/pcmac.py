"""PCMAC — Power Control MAC protocol (paper Section III, Steps 1–7).

Subclasses :class:`~repro.mac.base.DcfMac`, adding:

* **Step 1** — RTS power from the power history table (max on a miss).
* **Step 2** — the admission test against every known active receiver
  (``caused noise ≤ 0.7 × tolerance``); CTS-timeout escalates the RTS power
  one class at a time up to the maximum.
* **Step 3** — CTS power ``C_p · N_A / G_BA`` (so the CTS is capturable at
  the sender despite the sender's local noise ``N_A``, which rides in the
  RTS header), plus the required-DATA-power field ``C_p · N_B / G_AB``;
  the responder runs the same admission test before answering.
* **Step 4** — the sender obeys the CTS's required DATA power and checks the
  CTS's implicit-ACK fields against its sent-table, retransmitting the
  retained copy on mismatch; the collision computation is repeated before
  the DATA.
* **Step 5** — on locking a DATA addressed to it, the receiver broadcasts
  its noise tolerance on the control channel at maximum power.
* **Step 6** — the received-table records (session, seq) of delivered DATA.
* **Step 7** — DATA needs no ACK (three-way); routing unicasts (RREP/RERR)
  keep the four-way handshake.

Routing hooks: sending an RREP to a neighbour or receiving an RERR from one
resets the handshake tables for that neighbour (paper's maintenance rule).
"""

from __future__ import annotations

from repro.config import (
    MacConfig,
    PcmacConfig,
    PhyConfig,
    PowerControlConfig,
)
from repro.core.control_channel import ControlChannelAgent
from repro.core.handshake import ReceivedTable, SentTable
from repro.core.noise_tolerance import noise_tolerance_w
from repro.mac.base import _DATA, DcfMac, _TxAttempt
from repro.mac.frames import MacFrame
from repro.mac.ifqueue import QueuedPacket
from repro.phy.channel import Channel
from repro.phy.frame import PhyFrame
from repro.phy.radio import Radio
from repro.sim.kernel import Simulator
from repro.sim.rng import StreamLike
from repro.sim.trace import NULL_TRACER, Tracer


class PcmacMac(DcfMac):
    """The paper's power-control MAC: admission + control channel + 3-way."""

    name = "pcmac"

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        radio: Radio,
        channel: Channel,
        *,
        control_radio: Radio,
        control_channel: Channel,
        mac_cfg: MacConfig,
        phy_cfg: PhyConfig,
        power_cfg: PowerControlConfig | None = None,
        pcmac_cfg: PcmacConfig | None = None,
        rng: StreamLike,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        super().__init__(
            sim,
            node_id,
            radio,
            channel,
            mac_cfg=mac_cfg,
            phy_cfg=phy_cfg,
            power_cfg=power_cfg,
            rng=rng,
            tracer=tracer,
        )
        self.pcmac_cfg = pcmac_cfg or PcmacConfig()
        self.control = ControlChannelAgent(
            sim,
            node_id,
            control_radio,
            control_channel,
            pcmac_cfg=self.pcmac_cfg,
            phy_cfg=phy_cfg,
            tracer=tracer,
        )
        self.sent_table = SentTable()
        self.received_table = ReceivedTable()

    def shutdown(self, on_packet_drop=None) -> None:
        """Power down both the data MAC and the control-channel agent."""
        super().shutdown(on_packet_drop)
        self.control.shutdown()

    def restart(self) -> None:
        """Power both the data MAC and the control-channel agent back up."""
        super().restart()
        self.control.restart()

    # ------------------------------------------------------------ power policy

    def power_for_rts(self, next_hop: int) -> float:
        """Step 1: history-estimated needed level (max on a miss)."""
        return self.needed_power_to(next_hop)

    def power_for_cts(self, rts: MacFrame, rx_power_w: float) -> float:
        """Step 3: CTS power sized for capture at the sender."""
        gain = rx_power_w / rts.tx_power_w
        # Decodability bound: the CTS must clear the decode threshold at A.
        needed = self.phy_cfg.rx_threshold_w * self.power_cfg.decode_margin / gain
        if rts.noise_at_sender_w is not None:
            capture = self.phy_cfg.capture_threshold * rts.noise_at_sender_w / gain
            needed = max(needed, capture)
        return self.levels.select(needed)

    def power_for_data(self, next_hop: int, cts: MacFrame | None) -> float:
        """Step 4: obey the responder's required DATA power when present."""
        if cts is not None and cts.required_data_power_w is not None:
            return cts.required_data_power_w
        return self.needed_power_to(next_hop)

    def power_for_ack(self, data: MacFrame, rx_power_w: float) -> float:
        """ACKs exist only for routing unicasts; size them like Scheme 2."""
        return self.needed_power_to(data.src)

    def on_rts_failure(self, attempt: _TxAttempt) -> None:
        """Step 2: escalate one power class per CTS timeout, up to max."""
        current = (
            attempt.boosted_rts_power_w
            if attempt.boosted_rts_power_w is not None
            else self.power_for_rts(attempt.entry.next_hop)
        )
        if not self.levels.is_max(current):
            attempt.boosted_rts_power_w = self.levels.step_up(current)
            self.stats.power_escalations += 1

    # --------------------------------------------------------------- admission

    def admission_delay(self, power_w: float) -> float | None:
        """Step 2: defer while any known receiver would be corrupted."""
        return self.control.registry.blocking_until(
            power_w, self.sim.now, self.pcmac_cfg.margin_coefficient
        )

    def admission_delay_data(self, power_w: float) -> float | None:
        """Step 4: the computation is repeated before the DATA itself."""
        return self.admission_delay(power_w)

    # ---------------------------------------------------------------- headers

    def decorate_rts(self, frame: MacFrame) -> None:
        """Attach the sender's current noise level (Step 2's RTS fields)."""
        frame.noise_at_sender_w = self.radio.interference_w

    def decorate_cts(self, frame: MacFrame, rts: MacFrame, rx_power_w: float) -> None:
        """Attach required DATA power and the implicit-ACK fields (Step 3)."""
        gain = rx_power_w / rts.tx_power_w
        noise_here = self.radio.interference_w
        needed = self.phy_cfg.rx_threshold_w * self.power_cfg.decode_margin / gain
        capture = self.phy_cfg.capture_threshold * noise_here / gain
        frame.required_data_power_w = self.levels.select(max(needed, capture))
        last = self.received_table.last_from(rts.src)
        if last is not None:
            frame.last_session_id, frame.last_session_seq = last

    # ----------------------------------------------------------- implicit ACK

    def on_cts_feedback(self, cts: MacFrame) -> None:
        """Step 4: compare the CTS report against the sent-table."""
        attempt = self._current
        if attempt is None:
            return
        confirmed = self.sent_table.confirm(
            cts.src, cts.last_session_id, cts.last_session_seq
        )
        if not confirmed:
            rec = self.sent_table.get(cts.src)
            if rec is not None:
                attempt.substitute = rec.frame_copy

    def on_data_sent(self, frame: MacFrame, entry: QueuedPacket) -> None:
        """Retain a copy of every three-way DATA for possible retransmission."""
        if frame.needs_ack or frame.session_id is None or frame.session_seq is None:
            return
        self.sent_table.record(
            frame.dst, frame.session_id, frame.session_seq, frame
        )

    def on_data_received(self, frame: MacFrame) -> bool:
        """Step 6: update the received-table; filter duplicates through it.

        Only three-way (ACK-less) DATA participates: routing unicasts keep
        the classic four-way handshake and its (src, seq, retry) filter —
        their sequence space is unrelated to data sessions.
        """
        if frame.needs_ack or frame.session_id is None or frame.session_seq is None:
            return super().on_data_received(frame)
        if self.received_table.is_duplicate(
            frame.src, frame.session_id, frame.session_seq
        ):
            return True
        self.received_table.record(frame.src, frame.session_id, frame.session_seq)
        return False

    # ------------------------------------------------------------- handshakes

    def data_needs_ack(self, entry: QueuedPacket) -> bool:
        """Step 7: three-way for data packets, four-way for routing unicasts."""
        if not self.pcmac_cfg.three_way_data:
            return True
        kind = getattr(entry.packet, "kind", "data")
        return kind != "data"

    # -------------------------------------------------------- control channel

    def on_rx_start(self, phy_frame: PhyFrame) -> None:
        """Step 5: announce the noise tolerance when a DATA for us begins.

        Runs at every lock; the common case (not a DATA for this node)
        returns after two field reads.
        """
        frame = phy_frame.payload
        if not isinstance(frame, MacFrame):
            return
        if frame.ftype is not _DATA or frame.dst != self.node_id:
            return
        if getattr(frame.packet, "kind", "data") != "data":
            return  # the paper announces tolerance for data receptions only
        radio = self.radio
        lock = radio._lock
        if lock is None:
            return
        tolerance = noise_tolerance_w(
            lock.power_w, radio.interference_w, self.phy_cfg.capture_threshold
        )
        self.control.announce_reception(tolerance, lock.end_time)

    # ----------------------------------------------------------- routing hooks

    def on_route_event(self, event: str, neighbour: int) -> None:
        """Paper's table-maintenance rule on RREP/RERR events."""
        if event == "rrep_sent":
            self.received_table.reset(neighbour)
        elif event == "rerr_received":
            self.received_table.reset(neighbour)
            self.sent_table.reset(neighbour)
