"""White-box tests of DCF medium-access timing: defer, backoff freezing,
NAV wake-ups and EIFS consumption.

These pin the access machinery's arithmetic directly — the behaviours the
behavioural tests can only observe in aggregate.
"""

from __future__ import annotations

import pytest

from repro.mac.base import MacState
from tests.mac.harness import FakePacket, MacHarness

RX = 3.652e-10


class TestInitialAccess:
    def test_first_tx_waits_at_least_difs(self, tracer):
        h = MacHarness([(0, 0), (100, 0)], tracer=tracer)
        h.send(0, 1)
        h.run(0.05)
        rts_times = [
            r.time for r in tracer.query("mac.handshake", node=0)
            if r.get("kind") == "RTS"
        ]
        assert rts_times[0] >= h.nodes[0].mac.timing.difs

    def test_access_time_is_difs_plus_whole_slots(self, tracer):
        h = MacHarness([(0, 0), (100, 0)], tracer=tracer)
        h.send(0, 1)
        h.run(0.05)
        (rts_time,) = [
            r.time for r in tracer.query("mac.handshake", node=0)
            if r.get("kind") == "RTS"
        ]
        timing = h.nodes[0].mac.timing
        slots = (rts_time - timing.difs) / timing.slot
        assert slots == pytest.approx(round(slots), abs=1e-6)
        assert 0 <= round(slots) <= 31


class TestBackoffFreezing:
    def test_backoff_survives_interruption(self):
        """A frozen countdown resumes with the banked residual, not a fresh
        draw (802.11's fairness mechanism)."""
        h = MacHarness([(0, 0), (100, 0), (150, 0)])
        mac = h.nodes[0].mac
        h.send(0, 1)
        h.run(0.0001)  # countdown armed
        drawn = mac.backoff.slots_remaining
        # Interrupt by raising carrier at node 0 (fake a busy edge).
        mac.on_carrier_busy()
        assert mac.backoff.slots_remaining is not None
        assert mac.backoff.slots_remaining <= drawn

    def test_paused_access_has_no_event(self):
        h = MacHarness([(0, 0), (100, 0)])
        mac = h.nodes[0].mac
        h.send(0, 1)
        h.run(0.0001)
        mac.on_carrier_busy()
        assert not mac._access_timer.armed
        mac.on_carrier_idle(failed=False)
        assert mac._access_timer.armed


class TestNavWake:
    def test_nav_busy_schedules_wake_not_countdown(self):
        h = MacHarness([(0, 0), (100, 0)])
        mac = h.nodes[0].mac
        # Pre-load a NAV reservation, then enqueue.
        mac.nav.set(0.010)
        h.send(0, 1)
        h.run(0.0001)
        assert mac._access_timer.armed
        assert mac._access_is_countdown is False

    def test_transmission_starts_after_nav_expiry(self, tracer):
        h = MacHarness([(0, 0), (100, 0)], tracer=tracer)
        mac = h.nodes[0].mac
        mac.nav.set(0.010)
        h.send(0, 1)
        h.run(0.05)
        (rts_time,) = [
            r.time for r in tracer.query("mac.handshake", node=0)
            if r.get("kind") == "RTS"
        ]
        assert rts_time >= 0.010 + mac.timing.difs


class TestEifsConsumption:
    def test_eifs_flag_cleared_after_one_access(self):
        h = MacHarness([(0, 0), (100, 0)])
        mac = h.nodes[0].mac
        mac.radio.eifs_due = True
        h.send(0, 1)
        h.run(0.05)
        assert mac.radio.eifs_due is False

    def test_eifs_lengthens_the_defer(self, tracer):
        """The same seed draws the same backoff; EIFS−DIFS shows up as a
        constant shift of the first RTS."""
        h1 = MacHarness([(0, 0), (100, 0)], tracer=tracer)
        h1.send(0, 1)
        h1.run(0.05)
        (t_normal,) = [
            r.time for r in tracer.query("mac.handshake", node=0)
            if r.get("kind") == "RTS"
        ]
        tracer2 = type(tracer)()
        tracer2.enable("mac.handshake")
        h2 = MacHarness([(0, 0), (100, 0)], tracer=tracer2)
        h2.nodes[0].mac.radio.eifs_due = True
        h2.send(0, 1)
        h2.run(0.05)
        (t_eifs,) = [
            r.time for r in tracer2.query("mac.handshake", node=0)
            if r.get("kind") == "RTS"
        ]
        timing = h1.nodes[0].mac.timing
        assert t_eifs - t_normal == pytest.approx(
            timing.eifs - timing.difs, abs=1e-9
        )

    def test_clean_decode_clears_pending_eifs(self):
        h = MacHarness([(0, 0), (100, 0), (200, 0)])
        mac2 = h.nodes[2].mac
        mac2.radio.eifs_due = True
        h.send(0, 1)  # node 2 cleanly decodes the overheard RTS
        h.run(0.01)
        assert mac2.radio.eifs_due is False


class TestStateMachineGuards:
    def test_cts_from_wrong_node_ignored(self):
        from repro.mac.frames import FrameType, MacFrame

        h = MacHarness([(0, 0), (100, 0)])
        mac = h.nodes[0].mac
        h.send(0, 1)
        h.run(0.0001)
        mac._state = MacState.WAIT_CTS
        rogue = MacFrame(
            ftype=FrameType.CTS, src=7, dst=0, size_bytes=14, tx_power_w=0.1
        )
        mac._handle_cts(rogue, 1e-9)
        assert mac._state == MacState.WAIT_CTS  # unchanged

    def test_ack_from_wrong_node_ignored(self):
        from repro.mac.frames import FrameType, MacFrame

        h = MacHarness([(0, 0), (100, 0)])
        mac = h.nodes[0].mac
        h.send(0, 1)
        h.run(0.0001)
        mac._state = MacState.WAIT_ACK
        rogue = MacFrame(
            ftype=FrameType.ACK, src=7, dst=0, size_bytes=14, tx_power_w=0.1
        )
        mac._handle_ack(rogue)
        assert mac._state == MacState.WAIT_ACK

    def test_idle_mac_reports_not_busy(self):
        h = MacHarness([(0, 0), (100, 0)])
        assert not h.nodes[0].mac.busy

    def test_mac_busy_while_owning_packet(self):
        h = MacHarness([(0, 0), (100, 0)])
        h.send(0, 1)
        assert h.nodes[0].mac.busy
