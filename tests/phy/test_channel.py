"""Channel tests: fan-out, gain filtering, propagation delay."""

from __future__ import annotations

import pytest

from repro.phy.frame import PhyFrame
from repro.units import SPEED_OF_LIGHT
from tests.conftest import make_channel, make_radio
from tests.phy.test_radio import Listener

RX = 3.652e-10


def frame(src, power=0.2818, size=100, rate=1e6) -> PhyFrame:
    return PhyFrame(
        payload=None,
        size_bytes=size,
        bitrate_bps=rate,
        plcp_s=0.0,
        tx_power_w=power,
        src=src,
    )


class TestFanOut:
    def test_in_range_receiver_decodes(self, sim):
        chan = make_channel(sim)
        tx = make_radio(sim, 0, (0.0, 0.0))
        rx = make_radio(sim, 1, (100.0, 0.0))
        lis = Listener()
        rx.listener = lis
        chan.attach(tx)
        chan.attach(rx)
        chan.transmit(tx, frame(src=0))
        sim.run_until(1.0)
        assert lis.of("rx_end") and lis.of("rx_end")[0][2] is True

    def test_out_of_decode_range_does_not_decode(self, sim):
        chan = make_channel(sim)
        tx = make_radio(sim, 0, (0.0, 0.0))
        rx = make_radio(sim, 1, (300.0, 0.0))  # beyond 250 m decode
        lis = Listener()
        rx.listener = lis
        chan.attach(tx)
        chan.attach(rx)
        chan.transmit(tx, frame(src=0))
        sim.run_until(1.0)
        assert lis.of("rx_end") == []
        # But it is inside the 550 m sensing zone → busy/idle edges occurred.
        assert lis.of("busy") and lis.of("idle")

    def test_below_interference_floor_is_culled(self, sim):
        chan = make_channel(sim)
        tx = make_radio(sim, 0, (0.0, 0.0))
        far = make_radio(sim, 1, (5000.0, 0.0))
        lis = Listener()
        far.listener = lis
        chan.attach(tx)
        chan.attach(far)
        chan.transmit(tx, frame(src=0, power=1e-3))
        assert sim.pending_events == 1  # only the transmitter's tx-end
        sim.run_until(1.0)
        assert lis.events == []

    def test_transmitter_does_not_hear_itself(self, sim):
        chan = make_channel(sim)
        tx = make_radio(sim, 0, (0.0, 0.0))
        lis = Listener()
        tx.listener = lis
        chan.attach(tx)
        chan.transmit(tx, frame(src=0))
        sim.run_until(1.0)
        assert lis.of("rx_end") == []

    def test_multiple_receivers_all_reached(self, sim):
        chan = make_channel(sim)
        tx = make_radio(sim, 0, (0.0, 0.0))
        listeners = []
        chan.attach(tx)
        for k in range(5):
            rx = make_radio(sim, k + 1, (50.0 + 10 * k, 0.0))
            lis = Listener()
            rx.listener = lis
            listeners.append(lis)
            chan.attach(rx)
        chan.transmit(tx, frame(src=0))
        sim.run_until(1.0)
        for lis in listeners:
            assert lis.of("rx_end")[0][2] is True


class TestPropagationDelay:
    def test_leading_edge_arrives_after_distance_over_c(self, sim):
        chan = make_channel(sim)
        tx = make_radio(sim, 0, (0.0, 0.0))
        rx = make_radio(sim, 1, (150.0, 0.0))
        arrivals = []
        lis = Listener()
        lis.on_rx_start = lambda f: arrivals.append(sim.now)
        rx.listener = lis
        chan.attach(tx)
        chan.attach(rx)
        chan.transmit(tx, frame(src=0))
        sim.run_until(1.0)
        assert arrivals == [pytest.approx(150.0 / SPEED_OF_LIGHT)]

    def test_delay_can_be_disabled(self, sim):
        chan = make_channel(sim, model_propagation_delay=False)
        tx = make_radio(sim, 0, (0.0, 0.0))
        rx = make_radio(sim, 1, (150.0, 0.0))
        arrivals = []
        lis = Listener()
        lis.on_rx_start = lambda f: arrivals.append(sim.now)
        rx.listener = lis
        chan.attach(tx)
        chan.attach(rx)
        chan.transmit(tx, frame(src=0))
        sim.run_until(1.0)
        assert arrivals == [0.0]


class TestHiddenTerminalPhysics:
    def test_two_hidden_senders_collide_at_receiver(self, sim):
        """The classic hidden-terminal geometry on raw radios."""
        chan = make_channel(sim)
        a = make_radio(sim, 0, (0.0, 0.0))
        b = make_radio(sim, 1, (200.0, 0.0))     # receiver in the middle
        c = make_radio(sim, 2, (400.0, 0.0))     # hidden from A (400 m apart... sensed)
        lis = Listener()
        b.listener = lis
        for r in (a, b, c):
            chan.attach(r)
        chan.transmit(a, frame(src=0))
        chan.transmit(c, frame(src=2))
        sim.run_until(1.0)
        ends = lis.of("rx_end")
        # B locked onto one of the overlapping frames and it was corrupted.
        assert len(ends) == 1
        assert ends[0][2] is False


class TestQueries:
    def test_gain_symmetry(self, sim):
        chan = make_channel(sim)
        a = make_radio(sim, 0, (0.0, 0.0))
        b = make_radio(sim, 1, (123.0, 45.0))
        chan.attach(a)
        chan.attach(b)
        assert chan.gain_now(a, b) == pytest.approx(chan.gain_now(b, a))

    def test_rx_power_now(self, sim):
        chan = make_channel(sim)
        a = make_radio(sim, 0, (0.0, 0.0))
        b = make_radio(sim, 1, (250.0, 0.0))
        chan.attach(a)
        chan.attach(b)
        assert chan.rx_power_now(a, b, 0.2818) == pytest.approx(RX, rel=0.01)

    def test_attach_twice_rejected(self, sim):
        for spatial in (False, True):
            chan = make_channel(sim, **_spatial_kwargs(spatial))
            a = make_radio(sim, 0, (0.0, 0.0))
            chan.attach(a)
            with pytest.raises(ValueError, match="already attached"):
                chan.attach(a)
            assert chan.radios == (a,)

    def test_detach(self, sim):
        chan = make_channel(sim)
        a = make_radio(sim, 0, (0.0, 0.0))
        chan.attach(a)
        chan.detach(a)
        assert a not in chan.radios

    @pytest.mark.parametrize("spatial", [False, True])
    def test_detach_of_unattached_radio_rejected(self, sim, spatial):
        chan = make_channel(sim, **_spatial_kwargs(spatial))
        a = make_radio(sim, 0, (0.0, 0.0))
        b = make_radio(sim, 1, (100.0, 0.0))
        chan.attach(a)
        with pytest.raises(ValueError, match="not attached"):
            chan.detach(b)
        chan.detach(a)
        with pytest.raises(ValueError, match="not attached"):
            chan.detach(a)
        assert chan.radios == ()

    def test_reattach_after_churn_goes_last(self, sim):
        # The brute fan-out iterates radios in attach order.
        chan = make_channel(sim)
        a, b, c = (make_radio(sim, i, (100.0 * i, 0.0)) for i in range(3))
        for radio in (a, b, c):
            chan.attach(radio)
        chan.detach(a)
        chan.attach(a)
        assert chan.radios == (b, c, a)


def _spatial_kwargs(spatial):
    if not spatial:
        return {}
    return {"spatial_index": True, "max_tx_power_w": 0.2818}


class TestDetachSemantics:
    """Documented contract: detach stops future fan-out, not in-flight edges."""

    @pytest.mark.parametrize("spatial", [False, True])
    def test_detach_mid_frame_still_delivers_inflight_signal(self, sim, spatial):
        chan = make_channel(sim, **_spatial_kwargs(spatial))
        tx = make_radio(sim, 0, (0.0, 0.0))
        rx = make_radio(sim, 1, (100.0, 0.0))
        lis = Listener()
        rx.listener = lis
        chan.attach(tx)
        chan.attach(rx)
        f = frame(src=0)
        chan.transmit(tx, f)
        # Detach strictly inside the frame's airtime: the already-scheduled
        # signal_start has fired, the signal_end is still in flight.
        sim.schedule(f.duration_s / 2.0, lambda: chan.detach(rx))
        sim.run_until(1.0)
        assert rx not in chan.radios
        ends = lis.of("rx_end")
        assert len(ends) == 1 and ends[0][2] is True
        # The trailing edge arrived, so the radio's interference bookkeeping
        # is balanced (no stuck arrival energy).
        assert rx.total_power_w == 0.0

    @pytest.mark.parametrize("spatial", [False, True])
    def test_detached_radio_misses_subsequent_frames(self, sim, spatial):
        chan = make_channel(sim, **_spatial_kwargs(spatial))
        tx = make_radio(sim, 0, (0.0, 0.0))
        rx = make_radio(sim, 1, (100.0, 0.0))
        lis = Listener()
        rx.listener = lis
        chan.attach(tx)
        chan.attach(rx)
        chan.detach(rx)
        chan.transmit(tx, frame(src=0))
        sim.run_until(1.0)
        assert lis.events == []

    @pytest.mark.parametrize("spatial", [False, True])
    def test_detach_before_leading_edge_still_delivers(self, sim, spatial):
        """Even the leading edge is 'in flight' once transmit() returned."""
        chan = make_channel(sim, **_spatial_kwargs(spatial))
        tx = make_radio(sim, 0, (0.0, 0.0))
        rx = make_radio(sim, 1, (100.0, 0.0))
        lis = Listener()
        rx.listener = lis
        chan.attach(tx)
        chan.attach(rx)
        chan.transmit(tx, frame(src=0))
        chan.detach(rx)  # same instant, before the propagation delay elapses
        sim.run_until(1.0)
        ends = lis.of("rx_end")
        assert len(ends) == 1 and ends[0][2] is True
