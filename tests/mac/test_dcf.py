"""Behavioural tests of the DCF state machine over real radios."""

from __future__ import annotations

import pytest

from repro.config import MacConfig
from repro.mac.frames import BROADCAST, FrameType
from tests.mac.harness import FakePacket, MacHarness


class TestFourWayHandshake:
    def test_single_packet_delivered(self):
        h = MacHarness([(0, 0), (100, 0)])
        pkt = h.send(0, 1)
        h.run(0.1)
        assert h.nodes[1].delivered == [(pkt, 0)]

    def test_handshake_frame_sequence(self, tracer):
        h = MacHarness([(0, 0), (100, 0)], tracer=tracer)
        h.send(0, 1)
        h.run(0.1)
        kinds = [
            r.get("kind")
            for r in tracer.query("mac.handshake")
        ]
        assert kinds == ["RTS", "CTS", "DATA", "ACK"]

    def test_stats_count_each_frame_once(self):
        h = MacHarness([(0, 0), (100, 0)])
        h.send(0, 1)
        h.run(0.1)
        assert h.nodes[0].mac.stats.rts_sent == 1
        assert h.nodes[1].mac.stats.cts_sent == 1
        assert h.nodes[0].mac.stats.data_sent == 1
        assert h.nodes[1].mac.stats.ack_sent == 1

    def test_back_to_back_packets_all_delivered(self):
        h = MacHarness([(0, 0), (100, 0)])
        pkts = [h.send(0, 1, FakePacket(seq=k)) for k in range(10)]
        h.run(1.0)
        assert [p.seq for p, _ in h.nodes[1].delivered] == [p.seq for p in pkts]

    def test_bidirectional_traffic(self):
        h = MacHarness([(0, 0), (100, 0)])
        h.send(0, 1, FakePacket(seq=1))
        h.send(1, 0, FakePacket(seq=2))
        h.run(1.0)
        assert len(h.nodes[1].delivered) == 1
        assert len(h.nodes[0].delivered) == 1

    def test_out_of_range_peer_drops_after_retries(self):
        h = MacHarness([(0, 0), (800, 0)])  # beyond decode and sensing range
        pkt = h.send(0, 1)
        h.run(2.0)
        assert h.nodes[1].delivered == []
        assert h.nodes[0].failures == [(pkt, 1)]
        # Short retry limit: 7 RTS attempts, then the drop.
        assert h.nodes[0].mac.stats.rts_sent == 7
        assert h.nodes[0].mac.stats.drops_retry_limit == 1

    def test_queue_overflow_reports_drop(self):
        h = MacHarness([(0, 0), (100, 0)], mac_cfg=MacConfig(ifq_capacity=2))
        results = [h.send(0, 1) for _ in range(10)]
        assert h.nodes[0].mac.stats.drops_queue_full >= 1


class TestBroadcast:
    def test_broadcast_reaches_all_in_range(self):
        h = MacHarness([(0, 0), (100, 0), (200, 0), (600, 0)])
        pkt = FakePacket(kind="aodv")
        h.nodes[0].mac.enqueue_packet(pkt, BROADCAST)
        h.run(0.1)
        assert h.nodes[1].delivered == [(pkt, 0)]
        assert h.nodes[2].delivered == [(pkt, 0)]
        assert h.nodes[3].delivered == []  # 600 m: beyond decode range

    def test_broadcast_has_no_handshake(self, tracer):
        h = MacHarness([(0, 0), (100, 0)], tracer=tracer)
        h.nodes[0].mac.enqueue_packet(FakePacket(), BROADCAST)
        h.run(0.1)
        kinds = {r.get("kind") for r in tracer.query("mac.handshake")}
        assert kinds == {"DATA"}
        assert h.nodes[0].mac.stats.broadcast_sent == 1


class TestVirtualCarrierSense:
    def test_overhearing_node_defers_for_nav(self):
        """A third node that hears the RTS must not transmit during the
        reserved exchange."""
        h = MacHarness([(0, 0), (100, 0), (200, 0)])
        h.send(0, 1)
        # Node 2 gets a packet for node 1 the moment the exchange starts.
        h.sim.schedule(0.0005, lambda: h.send(2, 1, FakePacket(seq=99)))
        h.run(0.5)
        # Both packets arrive despite the contention.
        assert len(h.nodes[1].delivered) == 2

    def test_nav_set_from_overheard_rts(self):
        h = MacHarness([(0, 0), (100, 0), (200, 0)])
        h.send(0, 1)
        h.run(0.01)
        # Node 2 overheard either the RTS (from 0) or CTS (from 1).
        assert h.nodes[2].mac.nav.until > 0


class TestEifs:
    def test_sensing_only_node_uses_eifs(self):
        """A node in the carrier-sensing zone (sensed, undecodable frames)
        switches its next deferral to EIFS — paper Section II."""
        h = MacHarness([(0, 0), (100, 0), (400, 0)])
        h.send(0, 1)
        h.run(0.01)
        # Node 2 at 400 m: inside 550 m sensing, outside 250 m decoding.
        assert h.nodes[2].mac.radio.eifs_due is True

    def test_decoding_node_does_not_use_eifs(self):
        h = MacHarness([(0, 0), (100, 0), (200, 0)])
        h.send(0, 1)
        h.run(0.01)
        assert h.nodes[2].mac.radio.eifs_due is False


class TestRetryBehaviour:
    def test_cw_resets_after_success(self):
        h = MacHarness([(0, 0), (100, 0)])
        h.send(0, 1)
        h.run(0.5)
        assert h.nodes[0].mac.backoff.cw == h.mac_cfg.cw_min

    def test_duplicate_filtering_on_retry(self):
        """Force an ACK loss by detaching the receiver mid-exchange is hard;
        instead verify the dedup logic directly."""
        h = MacHarness([(0, 0), (100, 0)])
        mac1 = h.nodes[1].mac
        from repro.mac.frames import MacFrame

        d1 = MacFrame(
            ftype=FrameType.DATA, src=0, dst=1, size_bytes=540, seq=7, retry=False
        )
        assert mac1.on_data_received(d1) is False
        d2 = MacFrame(
            ftype=FrameType.DATA, src=0, dst=1, size_bytes=540, seq=7, retry=True
        )
        assert mac1.on_data_received(d2) is True  # duplicate
        d3 = MacFrame(
            ftype=FrameType.DATA, src=0, dst=1, size_bytes=540, seq=8, retry=True
        )
        assert mac1.on_data_received(d3) is False  # retry of an unseen frame


class TestEnergyAccounting:
    def test_tx_energy_accumulates(self):
        h = MacHarness([(0, 0), (100, 0)])
        h.send(0, 1)
        h.run(0.1)
        # Sender spent energy on RTS + DATA; receiver on CTS + ACK.
        assert h.nodes[0].mac.stats.tx_energy_j > 0
        assert h.nodes[1].mac.stats.tx_energy_j > 0

    def test_max_power_mac_spends_more_than_low_power(self):
        from repro.mac.scheme2 import Scheme2Mac

        h1 = MacHarness([(0, 0), (60, 0)])
        h1.send(0, 1)
        # Warm the history table first so scheme2 knows the needed power:
        h2 = MacHarness([(0, 0), (60, 0)], mac_cls=Scheme2Mac)
        h2.send(0, 1)  # first exchange at max power (cold history)
        h2.run(0.5)
        h2.send(0, 1)  # second exchange at the learned low power
        h1.run(0.5)
        h1.send(0, 1)
        h1.run(0.5)
        h2.run(0.5)
        assert (
            h2.nodes[0].mac.stats.tx_energy_j < h1.nodes[0].mac.stats.tx_energy_j
        )
