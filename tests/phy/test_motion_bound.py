"""The assumptions the channel's motion bound rests on, checked directly.

The indexed fan-out skips a pair while its last exact distance, shrunk by
the most both radios can have closed since, still exceeds the culling
reach plus a float slack (see :mod:`repro.phy.channel`).  That is exact
only if

* every propagation model's ``gain_at`` is non-increasing in distance,
  including across the two-ray crossover;
* beyond the slackened reach, every transmit power lands below the floor;
* waypoint samples never move farther than ``max_speed_mps · Δt`` by more
  than the slack absorbs.

Each is asserted here for every registered propagation model at the
paper's ten power levels and at ``max_power_w``.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.config import MobilityConfig, PhyConfig, ScenarioConfig
from repro.mobility.waypoint import RandomWaypoint
from repro.phy import channel as channel_mod
from repro.phy.channel import Channel
from repro.phy.propagation import TwoRayGround, distance
from repro.registry import registry
from repro.sim.kernel import Simulator

PHY = PhyConfig()
POWERS_W = sorted({*PHY.power_levels_w, PHY.max_power_w})
FLOORS_W = (PHY.interference_floor_w, 1e-14)
PROPAGATION = registry("propagation")


def build_model(name: str):
    """A registered propagation model with its default params."""
    entry = PROPAGATION.get(name)
    ctx = SimpleNamespace(cfg=ScenarioConfig())
    return entry.factory(ctx, **entry.validate({}))


def channel_for(model, floor_w: float) -> Channel:
    return Channel(
        Simulator(), model, interference_floor_w=floor_w, spatial_index=True,
        max_tx_power_w=PHY.max_power_w, max_speed_mps=3.0,
    )


def distance_grid(model, floor_w: float) -> list[float]:
    """Coarse out to twice the largest reach, fine around every reach and
    around the two-ray crossover (where the branches hand over)."""
    far = 2.0 * model.range_for(PHY.max_power_w, floor_w)
    grid = list(np.linspace(0.0, far, 20001))
    edges = [model.range_for(p, floor_w) for p in POWERS_W]
    if isinstance(model, TwoRayGround):
        edges.append(model.crossover_m)
    for edge in edges:
        grid.extend(np.linspace(edge - 1e-3, edge + 1e-3, 2001))
        # ... and every float within a few hundred ulps of the edge.
        d = edge
        for _ in range(300):
            d = math.nextafter(d, 0.0)
        for _ in range(600):
            grid.append(d)
            d = math.nextafter(d, math.inf)
    return sorted(float(d) for d in grid)


@pytest.mark.parametrize("name", PROPAGATION.names())
@pytest.mark.parametrize("floor_w", FLOORS_W)
class TestPropagationSoundness:
    def test_gain_non_increasing_in_distance(self, name, floor_w):
        model = build_model(name)
        grid = distance_grid(model, floor_w)
        gains = [model.gain_at(d) for d in grid]
        rises = [
            (grid[i], grid[i + 1])
            for i in range(len(gains) - 1)
            if gains[i + 1] > gains[i]
        ]
        assert not rises, f"{name}: gain rises between {rises[:3]}"

    @pytest.mark.parametrize("power_w", POWERS_W)
    def test_slackened_reach_is_below_floor(self, name, floor_w, power_w):
        model = build_model(name)
        reach = channel_for(model, floor_w)._reach(power_w)
        assert reach > model.range_for(power_w, floor_w)
        assert power_w * model.gain_at(reach) < floor_w


class TestWaypointDrift:
    """Interpolated samples outrun the speed bound only by float rounding."""

    STEP_S = 0.01

    def excess_m(self, speed_range=None) -> float:
        """Largest ``|p(t2) - p(t1)| - v·(t2 - t1)`` over sampled pairs."""
        cfg = MobilityConfig(speed_mps=3.0, pause_s=0.0)
        worst = -math.inf
        for seed in range(4):
            m = RandomWaypoint(
                np.random.default_rng(seed), cfg, (500.0, 500.0),
                speed_range=speed_range,
            )
            v = m.max_speed_mps()
            times = [k * self.STEP_S for k in range(20000)]
            pos = [m.position_at(t) for t in times]
            for lag in (1, 7, 100, 1999):
                for i in range(0, len(pos) - lag):
                    moved = distance(pos[i], pos[i + lag])
                    worst = max(worst, moved - v * (times[i + lag] - times[i]))
        return worst

    def test_rounding_overshoot_is_covered_by_slack(self):
        excess = self.excess_m()
        # It does overshoot, by a few 1e-13 m (about 3.00000000001 m/s over
        # one 10 ms step), so a bound with no slack at all is unsound ...
        assert 0.0 < excess < 1e-11
        # ... and the slack covers it at both ends of a pair many times over.
        assert 2.0 * excess < channel_mod._BOUND_SLACK_M

    def test_fast_leg_overshoot_is_covered_by_slack(self):
        """A degenerate ``speed_range`` pins every leg at its 20 m/s top."""
        excess = self.excess_m(speed_range=(20.0, 20.0))
        assert 0.0 < excess < 1e-11
        assert 2.0 * excess < channel_mod._BOUND_SLACK_M
