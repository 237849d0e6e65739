"""The decode path's power-history refresh matches ``needed_tx_power``.

``DcfMac.on_rx_end`` refreshes the power history table from every decoded
frame with the arithmetic written out (``gain = rx / tx`` and the decode
threshold times the margin, over the gain).  These properties pin the
records it writes to the exact floats of :func:`needed_tx_power`, compared
with ``==``, for first sightings and refreshes alike.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.config import PhyConfig, PowerControlConfig
from repro.core.pcmac import PcmacMac
from repro.mac.basic import Basic80211Mac
from repro.mac.frames import FrameType, MacFrame
from repro.mac.scheme1 import Scheme1Mac
from repro.mac.scheme2 import Scheme2Mac
from repro.phy.frame import PhyFrame
from repro.phy.power import needed_tx_power
from tests.mac.harness import MacHarness

_POWER = st.floats(min_value=1e-12, max_value=1.0, allow_subnormal=False)
_RX = st.floats(min_value=1e-15, max_value=1e-2, allow_subnormal=False)
_SIGHTING = st.tuples(
    st.integers(min_value=1, max_value=3),  # source node
    _POWER,  # advertised tx power
    _RX,  # received power
    st.sampled_from([FrameType.RTS, FrameType.CTS, FrameType.DATA,
                     FrameType.ACK]),
    st.floats(min_value=0.0, max_value=0.5),  # time step
)


def _decoded(src: int, dst: int, ftype: FrameType, tx_power_w: float) -> PhyFrame:
    """A frame whose MAC header advertises ``tx_power_w`` (the MAC reads
    the header, not the PHY's own power field)."""
    mac_frame = MacFrame(ftype=ftype, src=src, dst=dst, size_bytes=40,
                         duration_s=1e-3, tx_power_w=tx_power_w)
    return PhyFrame(payload=mac_frame, size_bytes=40, bitrate_bps=1e6,
                    plcp_s=192e-6, tx_power_w=0.1, src=src)


@given(
    mac_cls=st.sampled_from([Basic80211Mac, Scheme1Mac, Scheme2Mac, PcmacMac]),
    rx_threshold_w=st.sampled_from([3.652e-10, 1e-9, 2.5e-11]),
    decode_margin=st.floats(min_value=1.0, max_value=4.0),
    sightings=st.lists(_SIGHTING, min_size=1, max_size=8),
)
def test_history_records_hold_needed_tx_power_exactly(
    mac_cls, rx_threshold_w, decode_margin, sightings
):
    harness = MacHarness(
        [(0.0, 0.0)],
        mac_cls,
        phy_cfg=PhyConfig(rx_threshold_w=rx_threshold_w,
                          cs_threshold_w=rx_threshold_w / 20),
        power_cfg=PowerControlConfig(decode_margin=decode_margin),
    )
    mac = harness.nodes[0].mac
    sim = harness.sim
    for src, tx, rx, ftype, step in sightings:
        sim.run_until(sim.now + step)
        # Overheard (dst 9): the frame only refreshes history and the NAV.
        mac.on_rx_end(_decoded(src, 9, ftype, tx), True, rx)
        rec = mac.history._records[src]
        assert rec.needed_w == needed_tx_power(
            rx, tx, rx_threshold_w, margin=decode_margin
        )
        assert rec.gain == rx / tx
        assert rec.updated_at == sim.now


@given(tx=_POWER, rx=_RX)
def test_undecoded_and_own_frames_leave_history_alone(tx, rx):
    mac = MacHarness([(0.0, 0.0)]).nodes[0].mac
    mac.on_rx_end(_decoded(4, 9, FrameType.RTS, tx), False, rx)
    mac.on_rx_end(_decoded(0, 9, FrameType.RTS, tx), True, rx)
    mac.on_rx_end(_decoded(5, 9, FrameType.RTS, 0.0), True, rx)
    assert len(mac.history) == 0
