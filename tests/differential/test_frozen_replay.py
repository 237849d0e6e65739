"""Differential suite: frozen-interval replay across thaws and re-freezes.

The channel replays each ``(source, tx power)`` survivor list while no
radio moves, and must drop every replayed list once radios have moved.
A scripted mobility model makes every radio pause, move, pause again at a
new position, move again and settle at a third, so the world freezes three
times.  A crash detaches one radio inside the first freeze and its rejoin
lands inside the second.  The default build must reproduce the oracle
build (brute-force scan, reference kernel loop) bit for bit,
``events_executed`` included; a replay memo kept across a thaw would
serve the first freeze's powers and delays in the second.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.builder import MobilityPlan
from repro.config import MobilityConfig, ScenarioConfig, TrafficConfig
from repro.mobility.base import MobilityModel
from repro.phy.channel import Channel
from repro.registry import registry
from repro.scenariospec import ComponentSpec, ScenarioSpec
from tests.differential.test_megascale_equivalence import (
    assert_spec_matches_oracle,
)

#: Leg ends [s]: pause, move, pause, move, then still for good.
LEG_ENDS = (1.5, 2.5, 4.5, 5.3, math.inf)
FREEZES = ((0.0, 1.5), (2.5, 4.5), (5.3, math.inf))
#: Largest waypoint offset per axis [m] and the speed bound it implies
#: (150·√2 m over the 0.8 s second move is about 265 m/s).
OFFSET_M = 150.0
SPEED_BOUND_MPS = 300.0
CRASH_NODE, CRASH_S, REJOIN_S = 3, 0.8, 4.0
COMPONENT = "scripted-refreeze"


class Scripted(MobilityModel):
    """Pause at ``a``, glide to ``b``, pause, glide to ``c``, stay there."""

    def __init__(self, a, b, c):
        self._legs = tuple(zip(LEG_ENDS, (a, a, b, b, c), (a, b, b, c, c)))

    def _leg(self, t):
        start = 0.0
        for end, p, q in self._legs:
            if t < end:
                return start, end, p, q
            start = end
        raise AssertionError("the last leg never ends")

    def position_at(self, t):
        start, end, p, q = self._leg(t)
        if p == q:
            return p
        frac = (t - start) / (end - start)
        return (p[0] + (q[0] - p[0]) * frac, p[1] + (q[1] - p[1]) * frac)

    def max_speed_mps(self):
        return SPEED_BOUND_MPS

    def still_until(self, t):
        _, end, p, q = self._leg(t)
        return end if p == q else t


@pytest.fixture
def scripted_mobility():
    """Register the scripted model as a mobility component for one test."""
    reg = registry("mobility")

    @reg.register(COMPONENT, meta={"immobile": False})
    def _scripted(ctx):
        def make(i, pos):
            rng = ctx.rngs.stream(f"mobility.{i}")
            a = (float(pos[0]), float(pos[1]))
            b, c = (
                (x + float(dx), y + float(dy))
                for (x, y), (dx, dy) in zip(
                    (a, a), rng.uniform(-OFFSET_M, OFFSET_M, size=(2, 2))
                )
            )
            return Scripted(a, b, c)

        return MobilityPlan(SPEED_BOUND_MPS, make)

    try:
        yield COMPONENT
    finally:
        reg._entries.pop(COMPONENT, None)


def make_spec(protocol: str, seed: int) -> ScenarioSpec:
    cfg = ScenarioConfig(
        node_count=20,
        duration_s=6.5,
        seed=seed,
        traffic=TrafficConfig(
            flow_count=4, offered_load_bps=200e3, start_time_s=0.3
        ),
        mobility=MobilityConfig(field_width_m=600.0, field_height_m=600.0),
    )
    spec = ScenarioSpec.from_legacy(cfg, protocol, mobile=True)
    return replace(
        spec,
        mobility=ComponentSpec(COMPONENT),
        faults=ComponentSpec(
            "scripted", crashes=[[CRASH_NODE, CRASH_S, REJOIN_S]]
        ),
    )


def _spy(monkeypatch, name, calls):
    """Log ``(now, frozen after the call)`` for every ``Channel.<name>``."""
    original = getattr(Channel, name)

    def spy(self, *args):
        out = original(self, *args)
        calls.append((self.sim.now, self.sim.now < self._frozen_until))
        return out

    monkeypatch.setattr(Channel, name, spy)


@pytest.mark.parametrize("seed", [2, 5])
@pytest.mark.parametrize("protocol", ["basic", "pcmac"])
def test_refreezing_world_matches_oracle(
    scripted_mobility, monkeypatch, protocol, seed
):
    replays: list = []
    resolves: list = []
    attaches: list = []
    _spy(monkeypatch, "_static_survivors", replays)
    _spy(monkeypatch, "_survivors", resolves)
    _spy(monkeypatch, "attach", attaches)

    result = assert_spec_matches_oracle(make_spec(protocol, seed))
    assert result["sent"] > 0

    # Non-vacuous: every freeze replayed, the moves between them resolved
    # through the motion-bounded loop, and the rejoin landed in a freeze.
    for lo, hi in FREEZES:
        assert any(lo <= t < hi for t, _ in replays), (lo, hi)
    for t, frozen in replays:
        assert frozen and any(lo <= t < hi for lo, hi in FREEZES)
    assert any(1.5 <= t < 2.5 for t, _ in resolves)
    assert any(4.5 <= t < 5.3 for t, _ in resolves)
    assert (REJOIN_S, True) in attaches


def test_scripted_model_keeps_the_still_until_contract():
    a, b, c = (0.0, 0.0), (30.0, -40.0), (10.0, 10.0)
    m = Scripted(a, b, c)
    times = np.linspace(0.0, 7.0, 701)
    claims = []
    for t in times:
        until = m.still_until(t)
        pos = m.position_at(t)
        for claim_until, claimed in claims:
            if t < claim_until:
                assert pos == claimed
        claims.append((until, pos))
    assert m.position_at(7.0) == c
    assert m.still_until(1.0) == 1.5 and m.still_until(2.0) == 2.0
