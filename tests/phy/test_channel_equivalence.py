"""Spatial-index channel vs brute-force oracle: exact schedule equivalence.

The grid-indexed fan-out (``Channel(spatial_index=True)``) must produce the
*exact* event schedule of the brute-force all-radios scan — same arrival
times, same received powers (bit-identical floats), same delivery order —
for any placement, any mobility, any transmission pattern.  These tests
build two mirrored worlds (identically seeded mobility, identical
transmission scripts), run both, and compare the recorded signal-edge logs
with plain ``==``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MobilityConfig, PhyConfig
from repro.mobility.base import MobilityModel
from repro.mobility.static import StaticMobility
from repro.mobility.waypoint import RandomWaypoint
from repro.phy import channel as channel_mod
from repro.phy.channel import Channel
from repro.phy.frame import PhyFrame
from repro.phy.propagation import TwoRayGround, distance
from repro.sim.kernel import Simulator
from repro.units import SPEED_OF_LIGHT
from tests.conftest import make_radio

PHY = PhyConfig()
MAX_POWER_W = PHY.max_power_w
SPEED_MPS = 30.0  # fast nodes stress reindexing within a short horizon
HORIZON_S = 20.0


class RecordingRadio:
    """Duck-typed radio that logs every signal edge it is handed."""

    def __init__(self, sim, node_id, mobility, log):
        self.sim = sim
        self.node_id = node_id
        self.mobility = mobility
        self.log = log

    @property
    def position(self):
        return self.mobility.position_at(self.sim.now)

    def begin_tx(self, frame):
        pass

    def signal_start(self, frame, power):
        self.log.append(("start", self.sim.now, self.node_id, frame.frame_id, power))

    def signal_end(self, frame_id):
        self.log.append(("end", self.sim.now, self.node_id, frame_id))


def build_world(seed, n, side_m, mobile, spatial_index, *, speed_range=None,
                pause_s=0.2):
    """One (sim, channel, radios, log) world; same seed ⇒ same world.

    ``speed_range`` gives every waypoint leg its own uniform speed (the
    channel's bound is then its upper end).
    """
    sim = Simulator()
    top_speed = SPEED_MPS if speed_range is None else speed_range[1]
    chan = Channel(
        sim,
        TwoRayGround(),
        interference_floor_w=PHY.interference_floor_w,
        spatial_index=spatial_index,
        max_tx_power_w=MAX_POWER_W,
        max_speed_mps=top_speed if mobile else 0.0,
        reindex_interval_s=0.5,
    )
    rng = np.random.default_rng(seed)
    mob_cfg = MobilityConfig(
        speed_mps=SPEED_MPS, pause_s=pause_s, field_width_m=side_m,
        field_height_m=side_m,
    )
    log: list = []
    radios = []
    for i in range(n):
        pos = (float(rng.uniform(0.0, side_m)), float(rng.uniform(0.0, side_m)))
        if mobile:
            mob = RandomWaypoint(
                np.random.default_rng(seed * 1009 + i), mob_cfg, pos,
                speed_range=speed_range,
            )
        else:
            mob = StaticMobility(pos)
        radio = RecordingRadio(sim, i, mob, log)
        chan.attach(radio)
        radios.append(radio)
    return sim, chan, radios, log


def make_script(seed, n, tx_count):
    """A reproducible transmission script: (time, src, power, size, fid)."""
    rng = np.random.default_rng(seed ^ 0xBEEF)
    times = np.sort(rng.uniform(0.0, HORIZON_S, size=tx_count))
    levels = PHY.power_levels_w
    return [
        (
            float(times[k]),
            int(rng.integers(0, n)),
            float(levels[int(rng.integers(0, len(levels)))]),
            int(rng.integers(20, 600)),
            k + 1,
        )
        for k in range(tx_count)
    ]


def run_script(seed, n, side_m, mobile, spatial_index, script, **world):
    sim, chan, radios, log = build_world(
        seed, n, side_m, mobile, spatial_index, **world
    )
    for t, src, power, size, fid in script:
        frame = PhyFrame(
            payload=None,
            size_bytes=size,
            bitrate_bps=2e6,
            plcp_s=0.0,
            tx_power_w=power,
            src=src,
            frame_id=fid,
        )
        sim.schedule(t, lambda s=radios[src], f=frame: chan.transmit(s, f))
    sim.run_until(HORIZON_S + 10.0)
    return chan, log


def assert_equivalent(seed, n, side_m, mobile, tx_count=40, require_events=False,
                      **world):
    script = make_script(seed, n, tx_count)
    _, brute = run_script(seed, n, side_m, mobile, False, script, **world)
    _, indexed = run_script(seed, n, side_m, mobile, True, script, **world)
    assert brute == indexed
    if require_events:
        # These geometries are dense enough that an all-empty log would mean
        # the equality assertion above was vacuous.
        assert brute


class TestScheduleEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**20),
        n=st.integers(2, 40),
        side_m=st.sampled_from([300.0, 1000.0, 3000.0]),
    )
    def test_static_random_worlds(self, seed, n, side_m):
        assert_equivalent(seed, n, side_m, mobile=False)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**20),
        n=st.integers(2, 30),
        side_m=st.sampled_from([500.0, 2000.0]),
    )
    def test_mobile_random_worlds(self, seed, n, side_m):
        assert_equivalent(seed, n, side_m, mobile=True)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_dense_static_seeds(self, seed):
        assert_equivalent(
            seed, n=50, side_m=1000.0, mobile=False, tx_count=80, require_events=True
        )

    @pytest.mark.parametrize("density", [5e-6, 5e-5], ids=["sparse", "dense"])
    @pytest.mark.parametrize("n", [10, 200])
    def test_static_worlds_at_fixed_density(self, n, density):
        """Sparse (5·10⁻⁶ /m²) and the paper's dense (5·10⁻⁵ /m²) node
        densities, up to 200 radios on a 6325 m side."""
        assert_equivalent(
            7, n=n, side_m=math.sqrt(n / density), mobile=False, tx_count=30,
            require_events=True,
        )

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**20),
        n=st.integers(2, 30),
        side_m=st.sampled_from([500.0, 2000.0]),
        low=st.sampled_from([0.0, 1.0, 5.0]),
        spread=st.sampled_from([0.0, 2.0, 15.0]),
        pause_s=st.sampled_from([0.0, 0.2, 1.0]),
    )
    def test_speed_range_random_worlds(self, seed, n, side_m, low, spread,
                                       pause_s):
        """Per-leg speeds drawn from ``speed_range``: most pairs close
        slower than the channel's bound, some at it."""
        assert_equivalent(
            seed, n, side_m, mobile=True, speed_range=(low, low + spread),
            pause_s=pause_s,
        )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sparse_mobile_seeds(self, seed):
        assert_equivalent(
            seed, n=60, side_m=5000.0, mobile=True, tx_count=80, require_events=True
        )

    @pytest.mark.parametrize("seed", [1, 2])
    def test_dense_block_static_seeds(self, seed):
        """Large static candidate blocks: ≥ 64 radios per 3×3 cell block,
        replayed from the static fan-out cache on every repeat transmit."""
        assert_equivalent(
            seed, n=150, side_m=1500.0, mobile=False, tx_count=60,
            require_events=True,
        )

    def test_static_fanout_cap_overflow_matches_brute(self, monkeypatch):
        """A tiny memo cap forces clear-and-rebuild of the static replay
        cache on most transmits; every rebuilt list must still match."""
        monkeypatch.setattr(channel_mod, "_STATIC_FANOUT_CAP", 2)
        seed, n, side = 4, 30, 800.0
        levels = PHY.power_levels_w
        # Two rounds of 5 sources x 3 power levels: 15 keys cycle a cap of 2.
        combos = itertools.product(range(2), range(5), (0, 4, len(levels) - 1))
        script = [
            (0.01 * (k + 1), src, float(levels[lvl]), 100, k + 1)
            for k, (_, src, lvl) in enumerate(combos)
        ]
        _, brute = run_script(seed, n, side, False, False, script)
        chan_i, indexed = run_script(seed, n, side, False, True, script)
        assert brute == indexed and brute
        assert len(chan_i._static_fanouts) <= 2

    def test_unattached_transmitter_matches_brute(self):
        seed, n, side = 9, 10, 800.0
        logs = []
        for flag in (False, True):
            sim, chan, radios, log = build_world(seed, n, side, False, flag)
            lone = RecordingRadio(sim, 99, StaticMobility((side / 2, side / 2)), log)
            frame = PhyFrame(
                payload=None, size_bytes=100, bitrate_bps=2e6, plcp_s=0.0,
                tx_power_w=MAX_POWER_W, src=99, frame_id=1,
            )
            chan.transmit(lone, frame)
            sim.run_until(1.0)
            logs.append(log)
        assert logs[0] == logs[1] and logs[0]

    def test_detach_and_reattach_sequence_matches_brute(self):
        seed, n, side = 5, 12, 900.0
        logs = []
        for flag in (False, True):
            sim, chan, radios, log = build_world(seed, n, side, False, flag)

            def fire(src, fid, when, s=sim, c=chan, r=radios):
                frame = PhyFrame(
                    payload=None, size_bytes=200, bitrate_bps=2e6, plcp_s=0.0,
                    tx_power_w=MAX_POWER_W, src=src, frame_id=fid,
                )
                s.schedule(when, lambda: c.transmit(r[src], frame))

            fire(0, 1, 0.5)
            sim.schedule(1.0, lambda: chan.detach(radios[3]))
            fire(1, 2, 1.5)  # radio 3 must not hear this
            sim.schedule(2.0, lambda: chan.attach(radios[3]))
            fire(2, 3, 2.5)  # radio 3 hears again, now last in attach order
            sim.run_until(5.0)
            logs.append(log)
        assert logs[0] == logs[1] and logs[0]


class Glide(MobilityModel):
    """Constant velocity along the x axis; counts its samples."""

    def __init__(self, x0, vx):
        self.x0 = x0
        self.vx = vx
        self.samples = 0

    def position_at(self, t):
        self.samples += 1
        return (self.x0 + self.vx * t, 0.0)

    def max_speed_mps(self):
        return abs(self.vx)


class TestMotionBound:
    """The fan-out skips a pair only while it provably stays out of reach."""

    SPEED = 30.0
    LOW_POWER_W = PHY.power_levels_w[0]

    def _pair_world(self, spatial_index, gap_m, reindex_s=0.5):
        """Two radios on the x axis ``gap_m`` apart beyond the low-power
        reach, closing head-on at twice the channel's speed bound."""
        sim = Simulator()
        chan = Channel(
            sim, TwoRayGround(),
            interference_floor_w=PHY.interference_floor_w,
            spatial_index=spatial_index, max_tx_power_w=MAX_POWER_W,
            max_speed_mps=self.SPEED, reindex_interval_s=reindex_s,
        )
        reach = TwoRayGround().range_for(
            self.LOW_POWER_W, PHY.interference_floor_w
        )
        log: list = []
        a = RecordingRadio(sim, 0, Glide(0.0, self.SPEED), log)
        b = RecordingRadio(sim, 1, Glide(reach + gap_m, -self.SPEED), log)
        chan.attach(a)
        chan.attach(b)
        return sim, chan, (a, b), log

    def _beacon(self, sim, chan, src, times, power):
        for fid, t in enumerate(times, start=1):
            frame = PhyFrame(
                payload=None, size_bytes=100, bitrate_bps=2e6, plcp_s=0.0,
                tx_power_w=power, src=src.node_id, frame_id=fid,
            )
            sim.schedule(t, lambda f=frame: chan.transmit(src, f))

    def test_head_on_approach_matches_brute(self):
        """The pair closes at exactly 2·v: a bound that charges the drift
        of one endpoint only keeps skipping after the receiver is reached."""
        times = [0.25 * k for k in range(60)]
        logs = []
        for flag in (False, True):
            sim, chan, (a, _), log = self._pair_world(flag, gap_m=300.0)
            self._beacon(sim, chan, a, times, self.LOW_POWER_W)
            sim.run_until(30.0)
            logs.append(log)
        assert logs[0] == logs[1]
        heard = [e[1] for e in logs[0] if e[0] == "start"]
        # In reach from t = 5 s (300 m closed at 60 m/s) until they part.
        assert heard and 5.0 <= min(heard) < 5.5

    def test_far_receiver_is_not_polled(self):
        """Once measured, a receiver that cannot close the gap in time is
        skipped without sampling its mobility."""
        sim, chan, (a, b), log = self._pair_world(
            True, gap_m=600.0, reindex_s=1e9
        )
        self._beacon(sim, chan, a, [0.01 * k for k in range(1, 51)],
                     self.LOW_POWER_W)
        before = b.mobility.samples
        sim.run_until(1.0)
        # The grid's first refresh and the first visit sample it; 50
        # transmits later it still cannot have closed 600 m at 60 m/s.
        assert b.mobility.samples - before == 2
        assert not log

    def test_detach_drops_records_both_ways(self):
        """Churn of moving radios: every detach removes the seq's records
        as a source and as a receiver, and the schedule matches brute."""
        seed, n, side = 8, 14, 900.0
        logs = []
        for flag in (False, True):
            sim, chan, radios, log = build_world(seed, n, side, True, flag)
            script = make_script(seed, n, 120)
            for t, src, power, size, fid in script:
                frame = PhyFrame(
                    payload=None, size_bytes=size, bitrate_bps=2e6,
                    plcp_s=0.0, tx_power_w=power, src=src, frame_id=fid,
                )

                def fire(r=radios[src], f=frame, c=chan):
                    if r in c.radios:  # a detached radio stays silent
                        c.transmit(r, f)

                sim.schedule(t, fire)
            for k, victim in enumerate((2, 5, 2, 9, 5)):
                down = 1.0 + 3.0 * k
                sim.schedule(down, lambda r=radios[victim]: chan.detach(r))
                sim.schedule(down + 1.5,
                             lambda r=radios[victim]: chan.attach(r))
            sim.schedule(HORIZON_S - 1.0, lambda: chan.detach(radios[7]))
            sim.run_until(HORIZON_S + 10.0)
            logs.append(log)
            if flag:
                live = {chan._entries[r].seq for r in chan.radios}
                assert set(chan._links) <= live
                for links in chan._links.values():
                    assert set(links) <= live
        assert logs[0] == logs[1] and logs[0]

    def test_passing_source_keeps_its_table_bounded(self):
        """A source gliding down a 12 km line of radios meets each one once:
        its table is cleared when it outgrows twice the candidate block,
        instead of keeping a record of every radio it ever met."""
        logs, sizes, blocks = [], [], []
        for flag in (False, True):
            sim = Simulator()
            chan = Channel(
                sim, TwoRayGround(),
                interference_floor_w=PHY.interference_floor_w,
                spatial_index=flag, max_tx_power_w=MAX_POWER_W,
                max_speed_mps=self.SPEED, reindex_interval_s=0.5,
            )
            log: list = []
            src = RecordingRadio(sim, 0, Glide(0.0, self.SPEED), log)
            chan.attach(src)
            for i in range(1, 121):
                chan.attach(RecordingRadio(
                    sim, i, StaticMobility((100.0 * i, 50.0)), log
                ))

            def fire(fid, c=chan, indexed=flag):
                frame = PhyFrame(
                    payload=None, size_bytes=100, bitrate_bps=2e6,
                    plcp_s=0.0, tx_power_w=MAX_POWER_W, src=0, frame_id=fid,
                )
                c.transmit(src, frame)
                if indexed:
                    size = c.cell_size_m
                    x, y = src.position
                    cell = (int(x // size), int(y // size))
                    blocks.append(len(c._block_candidates(cell)))
                    sizes.append(len(c._links[0]))

            for k in range(1, 400):
                sim.schedule(float(k), lambda k=k: fire(k))
            sim.run_until(400.0)
            logs.append(log)
        assert logs[0] == logs[1] and logs[0]
        assert max(sizes) <= 3 * max(blocks) < 120


class TestGainCacheInvalidation:
    """A moving pair's gain is never one computed at a stale position."""

    def _world(self, mobile):
        return build_world(seed=21, n=2, side_m=400.0, mobile=mobile,
                           spatial_index=True)

    def _transmit_at(self, sim, chan, src, t, fid, power=MAX_POWER_W):
        frame = PhyFrame(
            payload=None, size_bytes=100, bitrate_bps=2e6, plcp_s=0.0,
            tx_power_w=power, src=src.node_id, frame_id=fid,
        )
        sim.schedule(t, lambda: chan.transmit(src, frame))

    def test_waypoint_movement_invalidates_cached_gain(self):
        sim, chan, radios, log = self._world(mobile=True)
        # Identically seeded replicas of both trajectories give the oracle
        # gains (sampled in time order — waypoint queries are monotonic).
        mob_cfg = MobilityConfig(speed_mps=SPEED_MPS, pause_s=0.2,
                                 field_width_m=400.0, field_height_m=400.0)
        replicas = [
            RandomWaypoint(
                np.random.default_rng(21 * 1009 + i), mob_cfg,
                radios[i].mobility.position_at(0.0),
            )
            for i in (0, 1)
        ]
        prop = TwoRayGround()
        tx_times = (0.1, 5.0, 12.0)
        expected = [
            MAX_POWER_W
            * prop.gain(replicas[0].position_at(t), replicas[1].position_at(t))
            for t in tx_times
        ]
        for fid, t in enumerate(tx_times, start=1):
            self._transmit_at(sim, chan, radios[0], t, fid)
        sim.run_until(HORIZON_S)
        starts = [e for e in log if e[0] == "start" and e[2] == 1]
        assert len(starts) == 3
        assert [e[4] for e in starts] == expected
        # The node genuinely moved between transmissions, so the powers
        # must differ — a stale gain would repeat the first value.
        powers = [e[4] for e in starts]
        assert len(set(powers)) == 3

    def test_static_world_keeps_no_link_records(self):
        """Static replay is the static fan-out's only cache: one source at
        two power levels leaves one memo entry per (source, power) and no
        per-pair record, and every received power matches the brute scan."""
        powers = (MAX_POWER_W, PHY.power_levels_w[4], MAX_POWER_W,
                  PHY.power_levels_w[4])
        logs = []
        for flag in (False, True):
            sim, chan, radios, log = build_world(
                seed=21, n=2, side_m=400.0, mobile=False, spatial_index=flag
            )
            for fid, (t, power) in enumerate(zip((0.1, 1.0, 2.0, 3.0), powers),
                                             start=1):
                self._transmit_at(sim, chan, radios[0], t, fid, power)
            sim.run_until(10.0)
            logs.append(log)
        starts = [e for e in logs[1] if e[0] == "start"]
        assert len(starts) == 4
        assert logs[0] == logs[1]
        assert len({e[4] for e in starts}) == 2  # one power per level
        assert chan._links == {}
        assert set(chan._static_fanouts) == {
            (0, MAX_POWER_W), (0, PHY.power_levels_w[4])
        }

    def test_source_movement_keeps_one_record_per_pair(self):
        """A moving source's records are overwritten in place, not
        accumulated, and survive the move (the motion bound needs them)."""
        sim, chan, radios, log = self._world(mobile=True)
        tx_times = (0.1, 5.0, 12.0)
        for fid, t in enumerate(tx_times, start=1):
            self._transmit_at(sim, chan, radios[0], t, fid)
        # Both positions just after the last transmit, in time order.
        last: list = []
        sim.schedule(tx_times[-1], lambda: last.extend(r.position for r in radios))
        sim.run_until(HORIZON_S)
        assert len([e for e in log if e[0] == "start"]) == 3
        # The source moved between every transmission: its one receiver
        # record is the latest distance plus the drift allowance, one
        # float with no residue.
        links = chan._links[0]
        assert set(links) == {0, 1}
        assert links[0] == math.inf
        assert links[1] == distance(*last) + 2.0 * SPEED_MPS * tx_times[-1]


class TestOrderingGuard:
    """Survivor columns whose edge order the kernel's batch cannot prove
    are scheduled edge by edge, and still match the brute scan run on the
    reference loop, transmit by transmit."""

    def _run(self, positions, frames, *, spatial_index, fused):
        """Radio 0 sends ``frames`` (``[(time, PhyFrame)]``); returns the
        edge log and, per transmit, how it reached the kernel."""
        sim = Simulator(fused=fused)
        chan = Channel(
            sim, TwoRayGround(), interference_floor_w=PHY.interference_floor_w,
            spatial_index=spatial_index, max_tx_power_w=MAX_POWER_W,
        )
        log: list = []
        radios = [
            RecordingRadio(sim, i, StaticMobility(pos), log)
            for i, pos in enumerate(positions)
        ]
        for radio in radios:
            chan.attach(radio)
        paths: list[str] = []

        def send(frame):
            heap = sim._queue._heap
            before = len(heap)
            chan.transmit(radios[0], frame)
            # A batch is one heap entry; edge by edge, two per receiver.
            paths.append("batch" if len(heap) - before == 1 else "edges")

        for t, frame in frames:
            sim.schedule(t, send, args=(frame,))
        sim.run_until(HORIZON_S)
        return log, paths

    def _check(self, positions, frames, path):
        oracle, brute_paths = self._run(
            positions, frames, spatial_index=False, fused=False
        )
        assert set(brute_paths) == {"edges"}
        log, paths = self._run(positions, frames, spatial_index=True, fused=True)
        assert log == oracle and oracle
        assert paths == [path] * len(frames)
        return oracle

    def _frame(self, fid, size_bytes=100, bitrate_bps=2e6):
        return PhyFrame(
            payload=None, size_bytes=size_bytes, bitrate_bps=bitrate_bps,
            plcp_s=0.0, tx_power_w=MAX_POWER_W, src=0, frame_id=fid,
        )

    def _rounding_tie(self, far_first):
        near, far = (100.0, 0.0), (100.00000001, 0.0)
        delays = [distance((0.0, 0.0), p) / SPEED_OF_LIGHT for p in (near, far)]
        frames = [(1.0, self._frame(1)), (5.0, self._frame(2))]
        for t, _ in frames:  # distinct delays that round to one edge time
            assert delays[0] != delays[1] and t + delays[0] == t + delays[1]
        receivers = [far, near] if far_first else [near, far]
        return [(0.0, 0.0)] + receivers, frames

    def test_a_later_attached_nearer_radio_in_a_rounding_tie(self):
        """Delay order puts the nearer radio first; the tied edge times
        put the earlier-attached one first.  Both the memo fill (t = 1) and
        its replay (t = 5) fall back."""
        positions, frames = self._rounding_tie(far_first=True)
        log = self._check(positions, frames, "edges")
        assert [e[2] for e in log if e[0] == "start"] == [1, 2, 1, 2]

    def test_the_same_tie_in_attach_order_is_batched(self):
        positions, frames = self._rounding_tie(far_first=False)
        log = self._check(positions, frames, "batch")
        assert [e[2] for e in log if e[0] == "start"] == [1, 2, 1, 2]

    def test_a_frame_shorter_than_its_delay_spread(self):
        """An 80 ns frame to radios 10 m and 300 m away: the near radio's
        end comes before the far radio's start."""
        positions = [(0.0, 0.0), (300.0, 0.0), (10.0, 0.0)]
        frames = [(1.0, self._frame(1, size_bytes=1, bitrate_bps=1e8))]
        log = self._check(positions, frames, "edges")
        assert [(e[0], e[2]) for e in log] == [
            ("start", 2), ("end", 2), ("start", 1), ("end", 1),
        ]


class TestSpatialIndexGuards:
    """The index fails loudly whenever its culling guarantee would not hold."""

    def _channel(self, max_speed=0.0):
        sim = Simulator()
        return sim, Channel(
            sim,
            TwoRayGround(),
            interference_floor_w=PHY.interference_floor_w,
            spatial_index=True,
            max_tx_power_w=MAX_POWER_W,
            max_speed_mps=max_speed,
        )

    def test_attach_rejects_mobility_faster_than_channel_bound(self):
        sim, chan = self._channel(max_speed=3.0)
        mob_cfg = MobilityConfig(speed_mps=3.0, pause_s=1.0)
        ok = RecordingRadio(
            sim, 0,
            RandomWaypoint(np.random.default_rng(1), mob_cfg, (0.0, 0.0)),
            [],
        )
        chan.attach(ok)  # exactly at the bound: allowed
        fast = RecordingRadio(
            sim, 1,
            RandomWaypoint(np.random.default_rng(2), mob_cfg, (5.0, 5.0),
                           speed_range=(1.0, 9.0)),
            [],
        )
        with pytest.raises(ValueError, match="max_speed_mps"):
            chan.attach(fast)
        assert fast not in chan.radios

    def test_attach_rejects_radio_without_mobility_model(self):
        sim, chan = self._channel()

        class BareRadio:
            node_id = 0
            position = (0.0, 0.0)

        with pytest.raises(ValueError, match="no mobility model"):
            chan.attach(BareRadio())

    def test_transmit_rejects_power_above_channel_bound(self):
        """The bound is checked before the radio is keyed: the refusal
        leaves no TX state, no stats, no pending TX-end event, no edges."""
        sim, chan = self._channel()
        radio = make_radio(sim, 0, (0.0, 0.0))
        chan.attach(radio)
        chan.attach(make_radio(sim, 1, (10.0, 0.0)))
        frame = PhyFrame(
            payload=None, size_bytes=10, bitrate_bps=2e6, plcp_s=0.0,
            tx_power_w=MAX_POWER_W * 2.0, src=0, frame_id=1,
        )
        with pytest.raises(ValueError, match="max_tx_power_w"):
            chan.transmit(radio, frame)
        assert not radio.transmitting
        assert radio.stats["tx_frames"] == 0
        assert sim.pending_events == 0

    def test_spatial_index_requires_max_tx_power(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="max_tx_power_w"):
            Channel(sim, TwoRayGround(), spatial_index=True)
