"""SinrReceiver decision table: sync, capture, stomp, discard, TX abort.

These drive a receiver-equipped radio directly through ``signal_start`` /
``signal_end`` with hand-computed powers (the ``tests/phy/test_radio.py``
idiom), so every rule of the state machine is pinned individually — plus a
hypothesis property that the *decode outcome* of a same-instant arrival
batch is invariant to the order the channel happens to deliver the edges in.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.frame import PhyFrame
from repro.phy.reception import (
    DROP_BELOW_SENSITIVITY,
    DROP_CAPTURE_LOST,
    DROP_COLLISION,
    ReceptionPlan,
    SinrReceiver,
)
from repro.sim.kernel import Simulator
from tests.conftest import make_radio

RX = 3.652e-10  # decode threshold == receiver sensitivity here
NOISE = 1e-13
CAPTURE = 10.0  # linear SINR threshold
PLCP_S = 192e-6  # 802.11 long preamble


class Listener:
    """Records every radio callback, including typed drops."""

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

    def on_rx_drop(self, frame, reason):
        self.events.append(("rx_drop", frame.frame_id, reason))

    def on_tx_end(self, frame):
        self.events.append(("tx_end", frame.frame_id))

    def of(self, kind):
        return [e for e in self.events if e[0] == kind]


def frame(src=1, size=100, rate=1e6, power=0.1) -> PhyFrame:
    return PhyFrame(
        payload=None,
        size_bytes=size,
        bitrate_bps=rate,
        plcp_s=PLCP_S,
        tx_power_w=power,
        src=src,
    )


def sinr_radio(sim):
    radio = make_radio(sim, 0, (0.0, 0.0))
    radio.listener = Listener()
    radio.reception = SinrReceiver(
        radio, ReceptionPlan(capture_threshold=CAPTURE, rx_sensitivity_w=RX)
    )
    return radio


@pytest.fixture
def radio(sim):
    return sinr_radio(sim)


class TestDecisionTable:
    def test_clean_frame_decodes(self, sim, radio):
        f = frame()
        radio.signal_start(f, RX * 10)
        assert radio.receiving
        radio.signal_end(f.frame_id)
        assert radio.listener.of("rx_end") == [("rx_end", f.frame_id, True)]
        assert radio.reception.drop_total == 0

    def test_below_sensitivity_is_discarded(self, sim, radio):
        f = frame()
        radio.signal_start(f, RX * 0.9)
        assert not radio.receiving
        assert radio.reception.drops[DROP_BELOW_SENSITIVITY] == 1
        assert radio.listener.of("rx_drop") == [
            ("rx_drop", f.frame_id, DROP_BELOW_SENSITIVITY)
        ]
        radio.signal_end(f.frame_id)
        assert radio.listener.of("rx_end") == []

    def test_drowned_leading_edge_cannot_sync(self, sim, radio):
        """Decodable power but SINR < capture at the leading edge."""
        f1, f2 = frame(src=1), frame(src=2)
        radio.signal_start(f1, RX * 1000)
        # f2 is 5x weaker than the lock: SINR 1/5 < 10... and it also
        # drags f1's sync SINR to 5 < 10, so both are lost — the classic
        # collision the threshold model would mis-score as one clean win.
        radio.signal_start(f2, RX * 5000)
        assert not radio.receiving
        assert radio.reception.drops[DROP_COLLISION] == 2

    def test_weak_interference_leaves_sync_alone(self, sim, radio):
        f1, f2 = frame(src=1), frame(src=2)
        radio.signal_start(f1, RX * 1000)
        radio.signal_start(f2, RX * 10)  # SINR of lock still ~100
        assert radio.lock_power_w == RX * 1000
        assert radio.reception.drops[DROP_COLLISION] == 1  # f2 only
        radio.signal_end(f2.frame_id)
        radio.signal_end(f1.frame_id)
        assert radio.listener.of("rx_end") == [("rx_end", f1.frame_id, True)]

    def test_stronger_arrival_captures_during_sync(self, sim, radio):
        f1, f2 = frame(src=1), frame(src=2)
        radio.signal_start(f1, RX * 1000)
        # 20x the lock power: SINR vs (noise + f1) ~ 20 >= 10 -> capture.
        radio.signal_start(f2, RX * 20000)
        assert radio.lock_power_w == RX * 20000
        assert radio.reception.drops[DROP_CAPTURE_LOST] == 1
        assert radio.listener.of("rx_start") == [
            ("rx_start", f1.frame_id),
            ("rx_start", f2.frame_id),
        ]
        radio.signal_end(f1.frame_id)
        radio.signal_end(f2.frame_id)
        assert radio.listener.of("rx_end") == [("rx_end", f2.frame_id, True)]

    def test_no_capture_after_preamble(self, sim, radio):
        """Past the sync window the lock is latched; a late strong arrival
        only corrupts (mid-frame stomp)."""
        f1, f2 = frame(src=1), frame(src=2)
        radio.signal_start(f1, RX * 1000)
        sim.run_until(PLCP_S * 2)  # now in RX, not SYNC
        radio.signal_start(f2, RX * 20000)
        assert radio.lock_power_w == RX * 1000  # not captured
        assert radio.reception.drops[DROP_COLLISION] == 1  # f2
        radio.signal_end(f2.frame_id)
        radio.signal_end(f1.frame_id)
        # The stomp corrupted the latched lock.
        assert radio.listener.of("rx_end") == [("rx_end", f1.frame_id, False)]
        assert radio.reception.drops[DROP_COLLISION] == 2  # f2 + f1

    def test_sub_sensitivity_power_still_breaks_sync(self, sim, radio):
        """An undecodable arrival is pure interference — and interference
        can break a marginal sync."""
        f1, f2 = frame(src=1), frame(src=2)
        radio.signal_start(f1, RX)  # SINR vs noise plenty, but marginal lock
        radio.signal_start(f2, RX * 0.5)  # below sensitivity, adds power
        # f1's SINR = RX / (noise + RX/2) ~ 2 < 10: sync broken, back to IDLE.
        assert not radio.receiving
        assert radio.reception.drops[DROP_BELOW_SENSITIVITY] == 1
        assert radio.reception.drops[DROP_COLLISION] == 1

    def test_own_tx_aborts_lock(self, sim, radio):
        f1 = frame(src=1)
        radio.signal_start(f1, RX * 1000)
        assert radio.receiving
        radio.begin_tx(frame(src=0))
        assert not radio.receiving
        assert radio.reception.drops[DROP_CAPTURE_LOST] == 1
        assert radio.stats["rx_aborted_by_tx"] == 1

    def test_arrival_while_transmitting_is_deaf(self, sim, radio):
        radio.begin_tx(frame(src=0))
        f = frame(src=1)
        radio.signal_start(f, RX * 1000)
        assert not radio.receiving
        assert radio.reception.drops[DROP_COLLISION] == 1

    def test_drop_total_sums_reasons(self, sim, radio):
        radio.signal_start(frame(src=1), RX * 0.5)
        f = frame(src=2)
        radio.signal_start(f, RX * 1000)
        radio.begin_tx(frame(src=0))
        assert radio.reception.drop_total == 2


class TestOrderInvariance:
    """Decode outcomes of a same-instant arrival batch are order-invariant.

    The channel delivers trailing edges before leading edges at equal
    timestamps, but within a batch of leading edges the heap order is
    arbitrary scheduling detail.  Because the capture criterion equals the
    sync criterion and ``capture_threshold >= 1`` makes any winner strictly
    the strongest signal on air, *which frames decode* cannot depend on that
    order (drop *reasons* legitimately can: a displaced lock is
    ``capture_lost`` where the never-synced ordering says ``collision``).
    """

    @staticmethod
    def decoded(powers, order):
        sim = Simulator()
        radio = sinr_radio(sim)
        frames = [frame(src=i + 1) for i in range(len(powers))]
        for i in order:
            radio.signal_start(frames[i], powers[i])
        for i in order:
            radio.signal_end(frames[i].frame_id)
        src_of = {f.frame_id: f.src for f in frames}
        return {
            src_of[fid]
            for (_, fid, ok) in radio.listener.of("rx_end")
            if ok
        }

    @settings(max_examples=200, deadline=None)
    @given(
        exponents=st.lists(
            st.integers(min_value=-2, max_value=12), min_size=2, max_size=5
        ),
        data=st.data(),
    )
    def test_decode_set_ignores_edge_order(self, exponents, data):
        powers = [RX * (2.0**e) for e in exponents]
        baseline = self.decoded(powers, range(len(powers)))
        order = data.draw(st.permutations(range(len(powers))))
        assert self.decoded(powers, order) == baseline
        assert len(baseline) <= 1  # capture_threshold >= 1: one winner max


class _CountingReceiver(SinrReceiver):
    """A receiver that logs the frame id of every ``on_departure`` call."""

    __slots__ = ("departures",)

    def __init__(self, radio, plan):
        super().__init__(radio, plan)
        self.departures = []

    def on_departure(self, frame_id):
        self.departures.append(frame_id)
        super().on_departure(frame_id)


class TestDepartures:
    """The radio hands the receiver only the lock's own trailing edge."""

    @staticmethod
    def counting_radio(sim):
        radio = make_radio(sim, 0, (0.0, 0.0))
        radio.listener = Listener()
        radio.reception = _CountingReceiver(
            radio, ReceptionPlan(capture_threshold=CAPTURE, rx_sensitivity_w=RX)
        )
        return radio

    def test_only_the_lock_edge_reaches_the_receiver(self, sim):
        radio = self.counting_radio(sim)
        lock, weak, faint = frame(src=1), frame(src=2), frame(src=3)
        radio.signal_start(lock, RX * 1000)
        radio.signal_start(weak, RX * 10)  # decodable power, receiver busy
        radio.signal_start(faint, RX * 0.5)  # below sensitivity
        radio.signal_end(weak.frame_id)
        radio.signal_end(faint.frame_id)
        assert radio.reception.departures == []
        radio.signal_end(lock.frame_id)
        assert radio.reception.departures == [lock.frame_id]
        assert radio.listener.of("rx_end") == [("rx_end", lock.frame_id, True)]

    @settings(max_examples=100, deadline=None)
    @given(
        exponents=st.lists(
            st.integers(min_value=-2, max_value=12), min_size=1, max_size=6
        ),
        data=st.data(),
    )
    def test_non_lock_edges_change_nothing(self, exponents, data):
        """Any trailing edge other than the lock's leaves the lock, its
        corruption flag and every drop counter as they were."""
        sim = Simulator()
        radio = self.counting_radio(sim)
        frames = [frame(src=i + 1) for i in range(len(exponents))]
        for f, e in zip(frames, exponents):
            radio.signal_start(f, RX * (2.0**e))
        order = data.draw(st.permutations(range(len(frames))))
        for i in order:
            fid = frames[i].frame_id
            lock = radio._lock
            if lock is not None and lock.frame.frame_id == fid:
                radio.signal_end(fid)
                assert radio.reception.departures[-1] == fid
                continue
            before = (lock, radio._lock_corrupted, dict(radio.reception.drops),
                      len(radio.reception.departures))
            radio.signal_end(fid)
            assert (radio._lock, radio._lock_corrupted,
                    dict(radio.reception.drops),
                    len(radio.reception.departures)) == before
