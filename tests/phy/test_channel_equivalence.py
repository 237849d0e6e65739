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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MobilityConfig, PhyConfig
from repro.mobility.static import StaticMobility
from repro.mobility.waypoint import RandomWaypoint
from repro.phy.channel import Channel
from repro.phy.frame import PhyFrame
from repro.phy.propagation import TwoRayGround
from repro.sim.kernel import Simulator

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


def build_world(seed, n, side_m, mobile, spatial_index):
    """One (sim, channel, radios, log) world; same seed ⇒ same world."""
    sim = Simulator()
    chan = Channel(
        sim,
        TwoRayGround(),
        interference_floor_w=PHY.interference_floor_w,
        spatial_index=spatial_index,
        max_tx_power_w=MAX_POWER_W,
        max_speed_mps=SPEED_MPS if mobile else 0.0,
        reindex_interval_s=0.5,
    )
    rng = np.random.default_rng(seed)
    mob_cfg = MobilityConfig(
        speed_mps=SPEED_MPS, pause_s=0.2, field_width_m=side_m, field_height_m=side_m
    )
    log: list = []
    radios = []
    for i in range(n):
        pos = (float(rng.uniform(0.0, side_m)), float(rng.uniform(0.0, side_m)))
        if mobile:
            mob = RandomWaypoint(np.random.default_rng(seed * 1009 + i), mob_cfg, pos)
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


def run_script(seed, n, side_m, mobile, spatial_index, script):
    sim, chan, radios, log = build_world(seed, n, side_m, mobile, spatial_index)
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


def assert_equivalent(seed, n, side_m, mobile, tx_count=40, require_events=False):
    script = make_script(seed, n, tx_count)
    _, brute = run_script(seed, n, side_m, mobile, False, script)
    _, indexed = run_script(seed, n, side_m, mobile, True, script)
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


class TestGainCacheInvalidation:
    """The epoch cache must never serve a gain computed at a stale position."""

    def _world(self, mobile):
        return build_world(seed=21, n=2, side_m=400.0, mobile=mobile,
                           spatial_index=True)

    def _transmit_at(self, sim, chan, src, t, fid):
        frame = PhyFrame(
            payload=None, size_bytes=100, bitrate_bps=2e6, plcp_s=0.0,
            tx_power_w=MAX_POWER_W, src=src.node_id, frame_id=fid,
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
                radios[i].mobility._last_pos,
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
        # must differ — a stale cache would repeat the first value.
        powers = [e[4] for e in starts]
        assert len(set(powers)) == 3

    def test_static_world_caches_each_link_once(self):
        sim, chan, radios, log = self._world(mobile=False)
        for fid, t in enumerate((0.1, 1.0, 2.0, 3.0), start=1):
            self._transmit_at(sim, chan, radios[0], t, fid)
        sim.run_until(10.0)
        starts = [e for e in log if e[0] == "start"]
        assert len(starts) == 4
        assert len({e[4] for e in starts}) == 1  # same link, same gain
        # One ordered-pair cache entry, computed once, valid forever:
        # src_seq 0 at epoch 0 → {rx_seq 1: (epoch 0, gain, dist)}.
        assert set(chan._gains) == {0}
        src_epoch, links = chan._gains[0]
        assert src_epoch == 0
        assert set(links) == {1} and links[1][0] == 0

    def test_source_movement_evicts_its_cached_links(self):
        """A moving source's stale links are dropped, not accumulated."""
        sim, chan, radios, log = self._world(mobile=True)
        tx_times = (0.1, 5.0, 12.0)
        for fid, t in enumerate(tx_times, start=1):
            self._transmit_at(sim, chan, radios[0], t, fid)
        sim.run_until(HORIZON_S)
        assert len([e for e in log if e[0] == "start"]) == 3
        # The source moved between every transmission, so the cache holds
        # only the *latest* epoch's links — one per current candidate, with
        # no stale-epoch residue.
        src_epoch, links = chan._gains[0]
        assert src_epoch == radios[0].mobility.epoch
        assert len(links) == 1  # the single co-located receiver, once

    def test_pause_legs_keep_epoch_and_reuse_cache(self):
        mob = RandomWaypoint(
            np.random.default_rng(3),
            MobilityConfig(speed_mps=3.0, pause_s=3.0),
            (100.0, 100.0),
        )
        mob.position_at(0.0)
        e0 = mob.epoch
        mob.position_at(1.0)  # still inside the initial 3 s pause
        assert mob.epoch == e0
        mob.position_at(10.0)  # moving now
        assert mob.epoch > e0


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
        sim, chan = self._channel()
        radio = RecordingRadio(sim, 0, StaticMobility((0.0, 0.0)), [])
        chan.attach(radio)
        frame = PhyFrame(
            payload=None, size_bytes=10, bitrate_bps=2e6, plcp_s=0.0,
            tx_power_w=MAX_POWER_W * 2.0, src=0, frame_id=1,
        )
        with pytest.raises(ValueError, match="max_tx_power_w"):
            chan.transmit(radio, frame)

    def test_spatial_index_requires_max_tx_power(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="max_tx_power_w"):
            Channel(sim, TwoRayGround(), spatial_index=True)
