"""Mobility model and placement tests."""

from __future__ import annotations

import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MobilityConfig
from repro.mobility.base import MobilityModel
from repro.mobility.placement import grid_positions, line_positions, uniform_positions
from repro.mobility.static import StaticMobility
from repro.mobility.waypoint import RandomWaypoint
from repro.sim.rng import RngRegistry


class TestStatic:
    def test_position_constant(self):
        m = StaticMobility((3.0, 4.0))
        assert m.position_at(0.0) == (3.0, 4.0)
        assert m.position_at(1e6) == (3.0, 4.0)
        assert m.max_speed_mps() == 0.0


class TestRandomWaypoint:
    def cfg(self, **overrides) -> MobilityConfig:
        kwargs = dict(speed_mps=3.0, pause_s=3.0, field_width_m=1000.0,
                      field_height_m=1000.0)
        kwargs.update(overrides)
        return MobilityConfig(**kwargs)

    def test_initial_pause_keeps_start_position(self):
        m = RandomWaypoint(np.random.default_rng(1), self.cfg(), (10.0, 20.0))
        assert m.position_at(0.0) == (10.0, 20.0)
        assert m.position_at(2.9) == (10.0, 20.0)

    def test_moves_after_pause(self):
        m = RandomWaypoint(np.random.default_rng(1), self.cfg(), (10.0, 20.0))
        later = m.position_at(10.0)
        assert later != (10.0, 20.0)

    def test_speed_bounds_displacement(self):
        """Between any two query times the node moves at most speed·Δt."""
        m = RandomWaypoint(np.random.default_rng(2), self.cfg(), (500.0, 500.0))
        prev = m.position_at(0.0)
        for step in range(1, 400):
            t = step * 0.5
            cur = m.position_at(t)
            moved = math.hypot(cur[0] - prev[0], cur[1] - prev[1])
            assert moved <= 3.0 * 0.5 + 1e-9
            prev = cur

    def test_stays_in_field(self):
        m = RandomWaypoint(np.random.default_rng(3), self.cfg(), (500.0, 500.0))
        for step in range(1000):
            x, y = m.position_at(step * 1.0)
            assert 0.0 <= x <= 1000.0
            assert 0.0 <= y <= 1000.0

    def test_deterministic_given_rng_seed(self):
        a = RandomWaypoint(np.random.default_rng(7), self.cfg(), (1.0, 2.0))
        b = RandomWaypoint(np.random.default_rng(7), self.cfg(), (1.0, 2.0))
        for t in (0.0, 5.0, 17.3, 120.0):
            assert a.position_at(t) == b.position_at(t)

    def test_zero_speed_never_moves(self):
        m = RandomWaypoint(
            np.random.default_rng(1), self.cfg(speed_mps=0.0), (10.0, 20.0)
        )
        assert m.position_at(1e5) == (10.0, 20.0)

    def test_speed_range_draws_within_bounds(self):
        m = RandomWaypoint(
            np.random.default_rng(4),
            self.cfg(),
            (0.0, 0.0),
            speed_range=(1.0, 5.0),
        )
        # Sample positions densely; implied speeds must stay ≤ 5 m/s.
        prev = m.position_at(0.0)
        for step in range(1, 200):
            t = step * 0.5
            cur = m.position_at(t)
            moved = math.hypot(cur[0] - prev[0], cur[1] - prev[1])
            assert moved <= 5.0 * 0.5 + 1e-9
            prev = cur

    @pytest.mark.parametrize(
        "speed_range",
        [(5.0, 1.0), (-1.0, 2.0), (-3.0, -1.0), (float("nan"), 2.0),
         (1.0, float("nan")), (1.0, float("inf"))],
    )
    def test_rejects_bad_speed_range(self, speed_range):
        """Refused at construction, not on the first move leg mid-run
        (numpy's ``uniform`` would raise there for a reversed range)."""
        with pytest.raises(ValueError, match="speed_range"):
            RandomWaypoint(
                np.random.default_rng(1), self.cfg(), (0.0, 0.0),
                speed_range=speed_range,
            )

    def test_degenerate_speed_range_is_one_speed(self):
        m = RandomWaypoint(
            np.random.default_rng(5), self.cfg(), (0.0, 0.0),
            speed_range=(4.0, 4.0),
        )
        assert m.max_speed_mps() == 4.0
        m.position_at(100.0)  # draws move legs without raising

    def test_max_speed_reported(self):
        m = RandomWaypoint(np.random.default_rng(1), self.cfg(speed_mps=3.0),
                           (0.0, 0.0))
        assert m.max_speed_mps() == 3.0
        r = RandomWaypoint(np.random.default_rng(1), self.cfg(),
                           (0.0, 0.0), speed_range=(1.0, 9.0))
        assert r.max_speed_mps() == 9.0

    def test_skipped_samples_do_not_steer_the_trajectory(self):
        """The position at ``t`` is the same whichever earlier times were
        sampled: the channel's motion bound skips samples freely."""
        a = RandomWaypoint(np.random.default_rng(6), self.cfg(pause_s=0.5),
                           (300.0, 700.0))
        b = RandomWaypoint(np.random.default_rng(6), self.cfg(pause_s=0.5),
                           (300.0, 700.0))
        for step in range(0, 4000, 7):
            t = step * 0.1
            if step % 3 == 0:
                a.position_at(t - 0.05)  # an extra sample changes nothing
            if step % 5 == 0:
                assert a.position_at(t) == b.position_at(t)
        assert a.position_at(400.0) == b.position_at(400.0)

    # ------------------------------------------------- pause/boundary edges

    def test_initial_pause_boundary_is_exact(self):
        """The node is pinned at the start until exactly ``pause_s``."""
        m = RandomWaypoint(np.random.default_rng(8), self.cfg(), (50.0, 60.0))
        assert m.position_at(3.0 - 1e-9) == (50.0, 60.0)
        # At the boundary itself the move leg has fraction 0 — still there.
        assert m.position_at(3.0) == (50.0, 60.0)
        # Strictly inside the move leg the node has left the start.
        assert m.position_at(3.5) != (50.0, 60.0)

    def test_pause_holds_position_at_waypoint(self):
        """During a pause leg the position equals the reached waypoint."""
        m = RandomWaypoint(np.random.default_rng(9), self.cfg(), (500.0, 500.0))
        # Advance into the first move leg, then read its schedule.
        m.position_at(3.1)
        assert not m._paused
        arrival, dest = m._t1, m._p1
        # Throughout the following pause the node sits exactly at dest.
        for dt in (0.0, 1.0, 2.999):
            assert m.position_at(arrival + dt) == dest

    def test_zero_pause_chains_move_legs(self):
        m = RandomWaypoint(
            np.random.default_rng(10), self.cfg(pause_s=0.0), (500.0, 500.0)
        )
        # With pause_s = 0 the initial pause is empty; the node is moving
        # from t = 0 and its trajectory stays inside the field.
        for step in range(2000):
            x, y = m.position_at(step * 0.5)
            assert 0.0 <= x <= 1000.0
            assert 0.0 <= y <= 1000.0

    def test_waypoints_respect_rectangular_field(self):
        """A non-square field bounds each axis independently."""
        cfg = self.cfg(field_width_m=800.0, field_height_m=50.0)
        m = RandomWaypoint(np.random.default_rng(11), cfg, (400.0, 25.0))
        for step in range(3000):
            x, y = m.position_at(step * 1.0)
            assert 0.0 <= x <= 800.0
            assert 0.0 <= y <= 50.0

    def test_query_before_current_leg_clamps_to_leg_start(self):
        """Lazy legs cannot rewind: an earlier query pins to the leg start."""
        m = RandomWaypoint(np.random.default_rng(12), self.cfg(), (0.0, 0.0))
        m.position_at(100.0)  # advance well past several legs
        leg_start = m._p0
        assert m.position_at(0.0) == leg_start

    def test_long_horizon_containment_many_seeds(self):
        """Trajectories never escape the field over hours of model time."""
        for seed in range(5):
            m = RandomWaypoint(
                np.random.default_rng(seed), self.cfg(), (500.0, 500.0)
            )
            for t in range(0, 7200, 60):
                x, y = m.position_at(float(t))
                assert 0.0 <= x <= 1000.0
                assert 0.0 <= y <= 1000.0


class TestPlacement:
    def test_uniform_positions_in_field(self):
        pts = uniform_positions(np.random.default_rng(1), 100, 1000.0, 500.0)
        assert len(pts) == 100
        assert all(0 <= x <= 1000 and 0 <= y <= 500 for x, y in pts)

    def test_uniform_deterministic(self):
        a = uniform_positions(np.random.default_rng(5), 10, 1000, 1000)
        b = uniform_positions(np.random.default_rng(5), 10, 1000, 1000)
        assert a == b

    def test_grid_covers_field(self):
        pts = grid_positions(9, 300.0, 300.0)
        assert len(pts) == 9
        assert pts[0] == (50.0, 50.0)
        assert all(0 < x < 300 and 0 < y < 300 for x, y in pts)

    def test_grid_handles_non_square_counts(self):
        assert len(grid_positions(7, 100.0, 100.0)) == 7

    def test_line_positions_spacing(self):
        pts = line_positions(4, 150.0)
        assert pts == [(0.0, 0.0), (150.0, 0.0), (300.0, 0.0), (450.0, 0.0)]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            uniform_positions(np.random.default_rng(1), 0, 100, 100)
        with pytest.raises(ValueError):
            grid_positions(0, 100, 100)
        with pytest.raises(ValueError):
            line_positions(3, 0.0)

    @given(st.integers(min_value=1, max_value=60))
    def test_property_grid_count_exact(self, n):
        assert len(grid_positions(n, 100.0, 100.0)) == n


class _Draws:
    """Stand-in generator: ``uniform(lo, hi)`` first takes a scripted list
    of fractions of its interval, then draws from a seeded generator.

    Repeated fractions send a node to the waypoint it already stands on (a
    zero-length leg); fraction 0 of a ``speed_range`` starting at 0 draws a
    standing speed.
    """

    def __init__(self, fractions):
        self._fractions = list(fractions)
        self._rng = np.random.default_rng(len(fractions))

    def uniform(self, lo, hi):
        if self._fractions:
            return lo + (hi - lo) * self._fractions.pop(0)
        return float(self._rng.uniform(lo, hi))


_STEPS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
    st.floats(min_value=0.0, max_value=4.0),
)


class _Repeating:
    """Stand-in generator: ``uniform(lo, hi)`` cycles through fractions of
    its interval for ever, after an optional scripted prefix.  It refuses to
    draw more than ``limit`` values, so a walk that spins at one instant
    fails the test instead of hanging it."""

    def __init__(self, cycle, prefix=(), limit=1000):
        self._prefix = list(prefix)
        self._cycle = list(cycle)
        self._i = 0
        self._left = limit

    def uniform(self, lo, hi):
        self._left -= 1
        assert self._left >= 0, "the walk drew legs without advancing time"
        if self._prefix:
            frac = self._prefix.pop(0)
        else:
            frac = self._cycle[self._i % len(self._cycle)]
            self._i += 1
        return lo + (hi - lo) * frac


class TestZeroLegs:
    """Simulated time always advances: a walk whose new legs take no time
    under a zero pause holds its node still instead of looping."""

    def test_repeated_waypoint_with_zero_pause_holds_still(self):
        cfg = MobilityConfig(speed_mps=3.0, pause_s=0.0,
                             field_width_m=8.0, field_height_m=6.0)
        # Every destination is the centre, where the node already stands.
        m = RandomWaypoint(_Repeating([0.5]), cfg, (4.0, 3.0))
        assert m.position_at(5.0) == (4.0, 3.0)
        assert m.still_until(5.0) == math.inf
        assert m.position_at(1e9) == (4.0, 3.0)

    def test_trips_that_round_away_hold_still(self):
        # A first trip at 1e-18 m/s ends near t = 1e19 s; from there every
        # 10 m trip at 10 m/s takes 1 s, less than half an ulp of t0.
        cfg = MobilityConfig(speed_mps=3.0, pause_s=0.0,
                             field_width_m=10.0, field_height_m=10.0)
        m = RandomWaypoint(
            _Repeating([0.0, 0.0, 1.0, 1.0, 0.0, 1.0], prefix=[1.0, 0.0, 0.0]),
            cfg, (0.0, 0.0), speed_range=(1e-18, 10.0),
        )
        arrival = 10.0 / 1e-18
        assert m.position_at(arrival / 2) == (5.0, 0.0)
        assert m.position_at(2 * arrival) == (10.0, 0.0)
        assert m.still_until(2 * arrival) == math.inf

    def test_zero_length_leg_before_a_pause_keeps_the_walk(self):
        # With a positive pause a zero-length leg is harmless: the pause
        # advances time and the next trip is drawn as before.
        cfg = MobilityConfig(speed_mps=1.0, pause_s=1.0,
                             field_width_m=8.0, field_height_m=6.0)
        m = RandomWaypoint(
            _Repeating([0.0], prefix=[0.5, 0.5]), cfg, (4.0, 3.0)
        )
        assert m.position_at(1.5) == (4.0, 3.0)  # the zero-length leg
        assert m.still_until(1.5) == 2.0  # then its pause
        assert m.position_at(2.0 + 2.5) == (2.0, 1.5)  # halfway to (0, 0)


class TestStillUntil:
    """``still_until(t)``: every sample in ``[t, still_until(t))`` returns
    ``position_at(t)``'s position."""

    @settings(max_examples=300, deadline=None)
    @given(
        fractions=st.lists(
            st.sampled_from([0.0, 0.25, 1.0]), min_size=0, max_size=12
        ),
        pause_s=st.sampled_from([0.0, 0.5, 3.0]),
        speed_mps=st.sampled_from([0.0, 2.0]),
        speed_range=st.sampled_from([None, (0.0, 0.0), (0.0, 4.0), (1.0, 4.0)]),
        steps=st.lists(_STEPS, min_size=1, max_size=40),
    )
    def test_waypoint_holds_still_until(
        self, fractions, pause_s, speed_mps, speed_range, steps
    ):
        cfg = MobilityConfig(speed_mps=speed_mps, pause_s=pause_s,
                             field_width_m=8.0, field_height_m=6.0)
        m = RandomWaypoint(_Draws(fractions), cfg, (0.0, 0.0),
                           speed_range=speed_range)
        #: (still_until, position) claimed at earlier query times.
        claims: list[tuple[float, tuple[float, float]]] = []
        t = 0.0
        for i, step in enumerate(steps):
            t += step
            # Ask before and after sampling: either order must hold.
            if i % 2:
                pos = m.position_at(t)
                until = m.still_until(t)
            else:
                until = m.still_until(t)
                pos = m.position_at(t)
            assert until >= t
            for claim_until, claimed in claims:
                if t < claim_until:
                    assert pos == claimed
            claims.append((until, pos))

    def test_waypoint_pause_and_move_legs(self):
        cfg = MobilityConfig(speed_mps=3.0, pause_s=3.0)
        m = RandomWaypoint(np.random.default_rng(1), cfg, (10.0, 20.0))
        assert m.still_until(0.0) == 3.0  # the initial pause
        assert m.still_until(2.5) == 3.0
        assert m.still_until(3.5) == 3.5  # moving: an empty interval
        m.position_at(3.5)
        arrival = m._t1
        assert m.still_until(arrival) == arrival + 3.0

    def test_waypoint_zero_speed_is_still_forever(self):
        cfg = MobilityConfig(speed_mps=0.0, pause_s=1.0)
        m = RandomWaypoint(np.random.default_rng(2), cfg, (5.0, 5.0))
        assert m.still_until(0.0) == 1.0
        assert m.still_until(1.0) == math.inf

    def test_static_is_still_forever(self):
        m = StaticMobility((3.0, 4.0))
        assert m.still_until(0.0) == math.inf
        assert m.still_until(1e6) == math.inf

    def test_base_default_follows_the_speed_bound(self):
        class Pinned(MobilityModel):
            def position_at(self, t):
                return (1.0, 2.0)

            def max_speed_mps(self):
                return 0.0

        class Unknown(MobilityModel):
            def position_at(self, t):
                return (t, 0.0)

        assert Pinned().still_until(4.0) == math.inf
        # Unbounded speed by default: nothing is known to hold still.
        assert Unknown().still_until(4.0) == 4.0


class TestWaypointOracle:
    """Random waypoint against its closed forms, on the model alone.

    The paper's field and walk: 1000 m × 1000 m, 3 m/s, 3 s pauses.  Each
    estimate comes from one fixed-seed walk, and each tolerance is four
    standard errors of that estimate (batch means for the time samples,
    whose neighbours are correlated within a leg).
    """

    L = 1000.0
    SPEED = 3.0
    PAUSE = 3.0
    # E|A - B| for A, B uniform on the unit square (Bettstetter,
    # Hartenstein and Pérez-Costa, Wireless Networks 10(5), 2004).
    MEAN_LEG = (2 + math.sqrt(2) + 5 * math.log(1 + math.sqrt(2))) / 15 * L
    # Share of moving time in the central quarter [L/4, 3L/4]²: each leg's
    # exact clipped length inside it over its length, length-biased, from
    # 10⁷ uniform legs (standard error 0.0001).
    CENTRAL = 0.4544

    def walk(self, seed):
        cfg = MobilityConfig(speed_mps=self.SPEED, pause_s=self.PAUSE,
                             field_width_m=self.L, field_height_m=self.L)
        rngs = RngRegistry(seed)
        start = (rngs.uniform("start", 0.0, self.L),
                 rngs.uniform("start", 0.0, self.L))
        return RandomWaypoint(rngs.stream("mobility.0"), cfg, start)

    @staticmethod
    def within_four_se(batches, target):
        """Mean of ``batches`` and whether it is within 4 SE of ``target``."""
        mean = statistics.fmean(batches)
        se = statistics.stdev(batches) / math.sqrt(len(batches))
        return mean, se, abs(mean - target) <= 4 * se

    def test_mean_move_leg_is_0_5214_of_the_side(self):
        m = self.walk(1)
        lengths = []
        t = self.PAUSE  # the initial pause ends here
        for _ in range(20_000):
            start = m.position_at(t)  # a move leg begins
            arrival = m._t1
            lengths.append(math.dist(start, m.position_at(arrival)))
            t = arrival + self.PAUSE
        mean, se, ok = self.within_four_se(lengths, self.MEAN_LEG)
        assert ok, (mean, se, self.MEAN_LEG)
        assert self.MEAN_LEG == pytest.approx(0.5214 * self.L, abs=0.1)

    def test_pause_share_and_centre_heavy_moving_density(self):
        m = self.walk(2)
        # Samples every 1.7 s see each 3 s pause; a batch spans ~96 legs.
        burn_in, step, batches, per_batch = 2_000.0, 1.7, 40, 10_000
        pause_share, central_share = [], []
        t = burn_in
        for _ in range(batches):
            paused = moving = central = 0
            for _ in range(per_batch):
                x, y = m.position_at(t)
                if m.still_until(t) > t:
                    paused += 1
                else:
                    moving += 1
                    q1, q3 = self.L / 4, 3 * self.L / 4
                    central += q1 <= x <= q3 and q1 <= y <= q3
                t += step
            pause_share.append(paused / per_batch)
            central_share.append(central / moving)
        expected_pause = self.PAUSE / (self.PAUSE + self.MEAN_LEG / self.SPEED)
        assert expected_pause == pytest.approx(0.017, abs=0.0005)
        mean, se, ok = self.within_four_se(pause_share, expected_pause)
        assert ok, (mean, se, expected_pause)
        mean, se, ok = self.within_four_se(central_share, self.CENTRAL)
        assert ok, (mean, se, self.CENTRAL)
        # Far from the 25 % of a uniform field.
        assert mean - 4 * se > 0.25 + 0.15
