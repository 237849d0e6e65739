"""Radio tests: locking, SINR corruption, capture, carrier sense, EIFS flag.

These drive radios directly through ``signal_start`` / ``signal_end`` with
hand-computed powers, so every decode rule is pinned individually.
"""

from __future__ import annotations

import pytest

from repro.phy.frame import PhyFrame
from repro.phy.radio import Radio, RadioError
from tests.conftest import make_radio

RX = 3.652e-10  # decode threshold
CS = 1.559e-11  # carrier-sense threshold
NOISE = 1e-13


class Listener:
    """Records every radio callback."""

    def __init__(self):
        self.events = []

    def on_carrier_busy(self):
        self.events.append(("busy",))

    def on_carrier_idle(self, failed):
        self.events.append(("idle", failed))

    def on_rx_start(self, frame):
        self.events.append(("rx_start", frame.frame_id))

    def on_rx_end(self, frame, ok, rx_power_w):
        self.events.append(("rx_end", frame.frame_id, ok))

    def on_tx_end(self, frame):
        self.events.append(("tx_end", frame.frame_id))

    def of(self, kind):
        return [e for e in self.events if e[0] == kind]


def frame(src=1, size=100, rate=1e6, power=0.1) -> PhyFrame:
    return PhyFrame(
        payload=None,
        size_bytes=size,
        bitrate_bps=rate,
        plcp_s=0.0,
        tx_power_w=power,
        src=src,
    )


@pytest.fixture
def radio(sim):
    r = make_radio(sim, 0, (0.0, 0.0))
    listener = Listener()
    r.listener = listener
    return r


class TestLocking:
    def test_decodable_frame_locks_and_succeeds(self, sim, radio):
        f = frame()
        radio.signal_start(f, RX * 10)
        assert radio.receiving
        assert radio.lock_power_w == RX * 10
        radio.signal_end(f.frame_id)
        assert radio.listener.of("rx_end") == [("rx_end", f.frame_id, True)]
        assert radio.stats["rx_ok"] == 1

    def test_below_threshold_does_not_lock(self, sim, radio):
        f = frame()
        radio.signal_start(f, RX * 0.9)
        assert not radio.receiving
        radio.signal_end(f.frame_id)
        assert radio.listener.of("rx_end") == []

    def test_rx_start_callback(self, sim, radio):
        f = frame()
        radio.signal_start(f, RX * 10)
        assert radio.listener.of("rx_start") == [("rx_start", f.frame_id)]

    def test_second_frame_cannot_steal_lock(self, sim, radio):
        f1, f2 = frame(src=1), frame(src=2)
        radio.signal_start(f1, RX * 1000)
        radio.signal_start(f2, RX * 10)  # decodable but receiver is occupied
        assert radio.lock_power_w == RX * 1000
        assert radio.stats["rx_unlockable"] == 1


class TestSinrCorruption:
    def test_weak_interference_does_not_corrupt(self, sim, radio):
        f1, f2 = frame(src=1), frame(src=2)
        radio.signal_start(f1, RX * 1000)
        # Interference 1/100 of signal: SINR ~100 >> 10.
        radio.signal_start(f2, RX * 10)
        radio.signal_end(f2.frame_id)
        radio.signal_end(f1.frame_id)
        assert radio.listener.of("rx_end") == [("rx_end", f1.frame_id, True)]

    def test_strong_interference_corrupts(self, sim, radio):
        f1, f2 = frame(src=1), frame(src=2)
        radio.signal_start(f1, RX * 10)
        # Equal-power interferer: SINR ~1 < 10 → corrupted.
        radio.signal_start(f2, RX * 10)
        radio.signal_end(f2.frame_id)
        radio.signal_end(f1.frame_id)
        assert radio.listener.of("rx_end") == [("rx_end", f1.frame_id, False)]

    def test_corruption_latches_even_after_interference_ends(self, sim, radio):
        """A mid-frame SINR dip is fatal no matter how the frame ends."""
        f1, f2 = frame(src=1), frame(src=2)
        radio.signal_start(f1, RX * 10)
        radio.signal_start(f2, RX * 10)
        radio.signal_end(f2.frame_id)  # interference gone...
        radio.signal_end(f1.frame_id)  # ...but the symbols were lost
        assert radio.listener.of("rx_end")[0][2] is False

    def test_sinr_boundary_exactly_at_capture_threshold(self, sim, radio):
        """SINR exactly at C_p decodes (the paper's ≥ relation)."""
        f1, f2 = frame(src=1), frame(src=2)
        signal = RX * 100
        radio.signal_start(f1, signal)
        # Pick interference so SINR == capture exactly: I = S/10 − noise.
        interference = signal / 10.0 - NOISE
        radio.signal_start(f2, interference)
        radio.signal_end(f2.frame_id)
        radio.signal_end(f1.frame_id)
        assert radio.listener.of("rx_end")[0][2] is True

    def test_drowned_at_start_never_locks(self, sim, radio):
        """Decodable power but SINR below capture at arrival: failed attempt."""
        f1, f2 = frame(src=1), frame(src=2)
        radio.signal_start(f1, RX * 10)  # locks
        radio.signal_end(f1.frame_id)
        # Now an undecodable-power background hum plus a decodable frame.
        hum = frame(src=3)
        radio.signal_start(hum, RX * 5)  # locks again? yes — it is decodable
        assert radio.receiving


class TestHalfDuplex:
    def test_cannot_tx_while_tx(self, sim, radio):
        radio.begin_tx(frame(src=0))
        with pytest.raises(RadioError):
            radio.begin_tx(frame(src=0))

    def test_tx_end_fires(self, sim, radio):
        f = frame(src=0, size=100, rate=1e6)
        radio.begin_tx(f)
        sim.run_until(1.0)
        assert radio.listener.of("tx_end") == [("tx_end", f.frame_id)]
        assert not radio.transmitting

    def test_deaf_while_transmitting(self, sim, radio):
        radio.begin_tx(frame(src=0))
        incoming = frame(src=1)
        radio.signal_start(incoming, RX * 100)
        assert not radio.receiving  # energy tracked, but no lock
        radio.signal_end(incoming.frame_id)
        assert radio.listener.of("rx_end") == []

    def test_tx_aborts_ongoing_lock_silently(self, sim, radio):
        incoming = frame(src=1)
        radio.signal_start(incoming, RX * 100)
        assert radio.receiving
        radio.begin_tx(frame(src=0))
        assert not radio.receiving
        assert radio.stats["rx_aborted_by_tx"] == 1
        radio.signal_end(incoming.frame_id)
        assert radio.listener.of("rx_end") == []  # no confusing callback


class TestCarrierSense:
    def test_busy_edge_at_cs_threshold(self, sim, radio):
        f = frame()
        radio.signal_start(f, CS * 1.01)
        assert radio.carrier_busy
        assert radio.listener.of("busy") == [("busy",)]

    def test_below_cs_threshold_not_busy(self, sim, radio):
        f = frame()
        radio.signal_start(f, CS * 0.5)
        assert not radio.carrier_busy
        assert radio.listener.of("busy") == []

    def test_aggregate_sub_cs_signals_become_busy(self, sim, radio):
        """Many sub-threshold signals can sum past the CS threshold."""
        frames = [frame(src=i) for i in range(3)]
        for f in frames:
            radio.signal_start(f, CS * 0.5)
        assert radio.carrier_busy

    def test_idle_edge_when_energy_clears(self, sim, radio):
        f = frame()
        radio.signal_start(f, CS * 2)
        radio.signal_end(f.frame_id)
        assert not radio.carrier_busy
        assert len(radio.listener.of("idle")) == 1

    def test_own_tx_is_busy(self, sim, radio):
        radio.begin_tx(frame(src=0))
        assert radio.carrier_busy

    def test_total_power_resets_cleanly(self, sim, radio):
        """Float drift dies when the air goes quiet."""
        frames = [frame(src=i) for i in range(10)]
        for f in frames:
            radio.signal_start(f, 1.7e-12)
        for f in frames:
            radio.signal_end(f.frame_id)
        assert radio.total_power_w == 0.0


class TestEifsFlag:
    def test_clean_decode_reports_not_failed(self, sim, radio):
        f = frame()
        radio.signal_start(f, RX * 100)
        radio.signal_end(f.frame_id)
        assert radio.listener.of("idle") == [("idle", False)]

    def test_sensed_but_undecodable_reports_failed(self, sim, radio):
        """Carrier-sensing-zone energy → EIFS (paper Section II)."""
        f = frame()
        radio.signal_start(f, CS * 5)  # sensed, not decodable
        radio.signal_end(f.frame_id)
        assert radio.listener.of("idle") == [("idle", True)]

    def test_collision_reports_failed(self, sim, radio):
        f1, f2 = frame(src=1), frame(src=2)
        radio.signal_start(f1, RX * 10)
        radio.signal_start(f2, RX * 10)
        radio.signal_end(f1.frame_id)
        radio.signal_end(f2.frame_id)
        idle = radio.listener.of("idle")
        assert idle and idle[0][1] is True

    def test_own_tx_alone_reports_not_failed(self, sim, radio):
        radio.begin_tx(frame(src=0))
        sim.run_until(1.0)
        assert radio.listener.of("idle") == [("idle", False)]


class TestInterferenceAccounting:
    def test_interference_excludes_lock(self, sim, radio):
        f1, f2 = frame(src=1), frame(src=2)
        radio.signal_start(f1, RX * 100)
        radio.signal_start(f2, RX * 2)
        assert radio.interference_w == pytest.approx(NOISE + RX * 2)

    def test_interference_is_noise_floor_when_quiet(self, sim, radio):
        assert radio.interference_w == pytest.approx(NOISE)

    def test_sinr_of_excludes_own_power(self, sim, radio):
        f1 = frame(src=1)
        radio.signal_start(f1, 2e-10)
        assert radio.sinr_of(2e-10) == pytest.approx(2e-10 / NOISE, rel=1e-6)
