"""The separate power-control channel (paper Section III).

Each PCMAC node owns a second radio attached to a dedicated
:class:`~repro.phy.channel.Channel` whose propagation model is shared with
the data channel (paper assumption 1: identical attenuation, no mutual
interference).  The channel runs at 500 kbps and carries only PCN broadcasts
(Fig. 7), always at the normal (maximal) power level.

The :class:`ControlChannelAgent` plays both roles:

* **Receiver side** — when the node's data radio locks onto a DATA frame
  addressed to it, :meth:`announce_reception` computes the noise tolerance
  and broadcasts a PCN.  Optionally the announcement repeats during the
  reception (IS-95-style periodic refresh; ``PcmacConfig.pcn_repeats``).
* **Listener side** — PCNs heard from neighbours populate the node's
  :class:`~repro.core.noise_tolerance.ActiveReceiverRegistry`, including the
  gain estimate ``rx_power / P_max`` used by the admission rule.

PCN frames can collide on the control channel like any other transmission;
a lost PCN simply leaves neighbours ignorant of the reception — the paper's
assumption 3 (short frames keep the collision probability low).
"""

from __future__ import annotations

from repro.config import PcmacConfig, PhyConfig
from repro.core.noise_tolerance import ActiveReceiverRegistry
from repro.core.pcn import PCN_SIZE_BYTES, decode_tolerance, encode_tolerance
from repro.mac.frames import BROADCAST, FrameType, MacFrame
from repro.phy.channel import Channel
from repro.phy.frame import PhyFrame
from repro.phy.radio import Radio
from repro.sim.kernel import Simulator
from repro.sim.trace import NULL_TRACER, Tracer

#: Compared by identity per received frame (cheaper than ``FrameType.PCN``).
_PCN = FrameType.PCN


class ControlChannelAgent:
    """PCN broadcaster + listener bound to one node's control radio."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        radio: Radio,
        channel: Channel,
        *,
        pcmac_cfg: PcmacConfig,
        phy_cfg: PhyConfig,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.radio = radio
        self.channel = channel
        self.pcmac_cfg = pcmac_cfg
        self.phy_cfg = phy_cfg
        self.tracer = tracer
        self._tr_pcn = tracer.handle("pcmac.pcn")
        self.registry = ActiveReceiverRegistry()
        self.stats = {"pcn_sent": 0, "pcn_heard": 0, "pcn_lost": 0, "pcn_skipped": 0}
        self._dead = False
        radio.listener = self
        # PCNs are fire-and-forget: no carrier-sense callbacks wanted.
        radio.carrier_watch = False

    def shutdown(self) -> None:
        """Node power-down: never broadcast again, ignore the radio."""
        self._dead = True
        self.radio.mute()

    def restart(self) -> None:
        """Node power-up (fault-injection rejoin): resume broadcasting.

        Inverse of :meth:`shutdown`; the caller re-attaches the control
        radio to its channel.  The active-receiver registry is kept —
        stale entries expire on their own.
        """
        self._dead = False
        self.radio.listener = self
        self.radio.carrier_watch = False

    # ------------------------------------------------------------- transmit

    def announce_reception(self, tolerance_w: float, reception_end: float) -> None:
        """Broadcast this node's noise tolerance for an ongoing reception.

        ``reception_end`` is when the protected DATA reception finishes; in
        the real protocol neighbours derive it from the fixed DATA length
        (paper assumption 4), here it rides in the frame object.
        """
        self._send_pcn(tolerance_w, reception_end)
        repeats = self.pcmac_cfg.pcn_repeats
        if repeats > 1:
            window = reception_end - self.sim.now
            if window > 0:
                step = window / repeats
                for k in range(1, repeats):
                    self.sim.schedule_in(
                        k * step,
                        lambda t=tolerance_w, e=reception_end: self._refresh_pcn(t, e),
                        label="pcmac.pcn_repeat",
                    )

    def _refresh_pcn(self, tolerance_w: float, reception_end: float) -> None:
        if self.sim.now >= reception_end:
            return
        self._send_pcn(tolerance_w, reception_end)

    def _send_pcn(self, tolerance_w: float, reception_end: float) -> None:
        if self._dead:
            # A pending pcn_repeat event may outlive a battery death; a
            # dead node transmits nothing.
            return
        if self.radio.transmitting:
            # A previous PCN is still on the air (possible with repeats and
            # back-to-back receptions); skip rather than queue.
            self.stats["pcn_skipped"] += 1
            return
        # Quantise through the 16-bit field exactly as the wire format would.
        quantised = decode_tolerance(encode_tolerance(tolerance_w))
        frame = MacFrame(
            ftype=FrameType.PCN,
            src=self.node_id,
            dst=BROADCAST,
            size_bytes=PCN_SIZE_BYTES,
            duration_s=0.0,
            tx_power_w=self.phy_cfg.max_power_w,
            tolerance_w=quantised,
            reception_end=reception_end,
            needs_ack=False,
        )
        phy = PhyFrame(
            payload=frame,
            size_bytes=PCN_SIZE_BYTES,
            bitrate_bps=self.pcmac_cfg.control_rate_bps,
            plcp_s=self.pcmac_cfg.control_plcp_s,
            tx_power_w=self.phy_cfg.max_power_w,
            src=self.node_id,
        )
        self.stats["pcn_sent"] += 1
        tr = self._tr_pcn
        tr.count += 1
        if tr.store:
            tr.record(
                self.sim.now, self.node_id, tolerance_w=quantised, until=reception_end
            )
        self.channel.transmit(self.radio, phy)

    # ------------------------------------------------------------- receive

    def on_rx_end(self, phy_frame: PhyFrame, ok: bool, rx_power_w: float) -> None:
        """Control-radio callback: a PCN finished arriving."""
        if not ok:
            self.stats["pcn_lost"] += 1
            return
        frame = phy_frame.payload
        if not isinstance(frame, MacFrame) or frame.ftype is not _PCN:
            return
        if frame.src == self.node_id:
            return
        assert frame.tolerance_w is not None and frame.reception_end is not None
        gain = rx_power_w / frame.tx_power_w
        self.stats["pcn_heard"] += 1
        self.registry.update(
            frame.src, frame.tolerance_w, frame.reception_end, gain
        )

    # Remaining RadioListener callbacks: the control channel needs none of
    # the carrier-sense machinery (PCNs are fire-and-forget broadcasts), and
    # with ``carrier_watch`` off the radio never calls the first two.

    def on_carrier_busy(self) -> None:  # pragma: no cover - trivial
        pass

    def on_carrier_idle(self, failed: bool) -> None:  # pragma: no cover
        pass

    def on_rx_start(self, frame: PhyFrame) -> None:  # pragma: no cover
        pass

    def on_tx_end(self, frame: PhyFrame) -> None:  # pragma: no cover
        pass
