"""Radio tests: locking, SINR corruption, capture, carrier sense, EIFS debt.

These drive radios directly through ``signal_start`` / ``signal_end`` with
hand-computed powers, so every decode rule is pinned individually.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from repro.builder import NetworkBuilder
from repro.core.control_channel import ControlChannelAgent
from repro.phy.frame import PhyFrame
from repro.phy.radio import RadioError
from repro.scenariospec import ComponentSpec, ScenarioSpec
from repro.sim.trace import Tracer
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


class TestCarrierWatch:
    """``carrier_watch`` off: no carrier callbacks, same EIFS bookkeeping."""

    @pytest.fixture
    def unwatched(self, radio):
        radio.carrier_watch = False
        return radio

    def test_no_busy_or_idle_calls(self, sim, unwatched):
        f = frame()
        unwatched.signal_start(f, CS * 5)
        assert unwatched.carrier_busy
        unwatched.signal_end(f.frame_id)
        unwatched.begin_tx(frame(src=0))
        sim.run_until(1.0)
        assert not unwatched.carrier_busy
        assert unwatched.listener.of("busy") == []
        assert unwatched.listener.of("idle") == []
        assert unwatched.listener.of("tx_end") != []  # other callbacks flow

    def test_failed_idle_edge_sets_eifs_due(self, sim, unwatched):
        f = frame()
        unwatched.signal_start(f, CS * 5)  # sensed, not decodable
        assert unwatched.eifs_due is False
        unwatched.signal_end(f.frame_id)
        assert unwatched.eifs_due is True

    def test_clean_idle_edge_leaves_eifs_due_alone(self, sim, unwatched):
        unwatched.begin_tx(frame(src=0))
        sim.run_until(1.0)  # own TX alone: a clean idle edge
        assert unwatched.eifs_due is False
        unwatched.eifs_due = True
        unwatched.begin_tx(frame(src=0))
        sim.run_until(2.0)
        assert unwatched.eifs_due is True  # only a decode or the MAC clears it

    def test_decodes_set_eifs_due_to_their_outcome(self, sim, unwatched):
        f1, f2 = frame(src=1), frame(src=2)
        unwatched.signal_start(f1, RX * 10)
        unwatched.signal_start(f2, RX * 10)  # equal power: corrupts f1
        unwatched.signal_end(f1.frame_id)
        assert unwatched.listener.of("rx_end") == [("rx_end", f1.frame_id, False)]
        assert unwatched.eifs_due is True
        unwatched.signal_end(f2.frame_id)
        clean = frame(src=3)
        unwatched.signal_start(clean, RX * 100)
        unwatched.signal_end(clean.frame_id)
        assert unwatched.listener.of("rx_end")[-1] == ("rx_end", clean.frame_id, True)
        assert unwatched.eifs_due is False

    def test_watch_on_by_default(self, radio):
        assert radio.carrier_watch is True
        assert radio.eifs_due is False


DENSE_CAPTURE = Path(__file__).resolve().parents[2] / "examples" / "dense_capture.spec.json"


def _dense_spec(mac: str, **overrides) -> ScenarioSpec:
    """The dense-capture example (SINR reception), 3 s, under ``mac``."""
    spec = ScenarioSpec.load(DENSE_CAPTURE)
    return replace(
        spec, cfg=replace(spec.cfg, duration_s=3.0),
        mac=ComponentSpec(mac), **overrides,
    )


class TestControlRadio:
    def test_control_radio_never_calls_carrier_callbacks(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            ControlChannelAgent, "on_carrier_busy",
            lambda self: calls.append("busy"),
        )
        monkeypatch.setattr(
            ControlChannelAgent, "on_carrier_idle",
            lambda self, failed: calls.append("idle"),
        )
        tracer = Tracer()
        net = NetworkBuilder(
            _dense_spec("pcmac", reception=ComponentSpec("null")), tracer=tracer
        ).build()
        net.run()
        agents = [node.mac.control for node in net.nodes]
        assert all(a.radio.carrier_watch is False for a in agents)
        assert sum(a.stats["pcn_sent"] for a in agents) > 0
        assert tracer.count("phy.cs") > 0
        assert calls == []


class TestSinrDropCounts:
    """Typed drop totals of the dense-capture world, pinned: building lock
    records only on demand must classify every arrival as before."""

    @pytest.mark.parametrize("mac, want", [
        ("basic", {"collision": 261, "capture_lost": 10,
                   "below_sensitivity": 579}),
        ("pcmac", {"collision": 210, "capture_lost": 9,
                   "below_sensitivity": 2131}),
    ])
    def test_drop_totals_unchanged(self, mac, want):
        net = NetworkBuilder(_dense_spec(mac)).build()
        net.run()
        got = dict.fromkeys(want, 0)
        for node in net.nodes:
            for reason, n in node.mac.radio.reception.drops.items():
                got[reason] += n
        assert got == want


class TestOwnTxEdges:
    def test_own_tx_busy_and_idle_edges_are_both_counted(self, sim, tracer):
        r = make_radio(sim, 0, (0.0, 0.0), tracer=tracer)
        r.listener = Listener()
        r.begin_tx(frame(src=0))
        sim.run_until(1.0)
        assert tracer.count("phy.cs") == 2
        assert [rec.get("busy") for rec in tracer.query("phy.cs")] == [True, False]

    def test_idle_edge_after_own_tx_ignores_earlier_sub_threshold_energy(
        self, sim, radio
    ):
        hum = frame(src=1)
        radio.signal_start(hum, CS * 0.5)  # sensed below the CS threshold
        radio.signal_end(hum.frame_id)  # ...and gone before the TX
        radio.begin_tx(frame(src=0))
        sim.run_until(1.0)
        assert radio.listener.of("idle") == [("idle", False)]

    def test_idle_edge_after_own_tx_counts_energy_on_air_at_its_start(
        self, sim, radio
    ):
        """Foreign energy still on air when the TX starts belongs to the
        busy period the TX opens, as it would for a sensed busy edge."""
        hum = frame(src=1)
        radio.signal_start(hum, CS * 0.5)
        radio.begin_tx(frame(src=0))
        radio.signal_end(hum.frame_id)  # gone during the TX
        sim.run_until(1.0)
        assert radio.listener.of("idle") == [("idle", True)]
