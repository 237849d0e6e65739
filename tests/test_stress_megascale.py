"""Mega-scale stress: a 2000-node world, leak-guarded.

Slow-marked (deselected from tier-1; run with ``python -m pytest -m slow``).
One paper-density 2000-node static world is executed for two simulated
seconds on the default build, then for one more: that extra second must not
grow peak RSS beyond a modest allowance (a fan-out cache or event-queue
leak would blow well past it at this scale).
"""

from __future__ import annotations

import math
import resource
from dataclasses import replace

import pytest

from repro.builder import NetworkBuilder
from repro.config import MobilityConfig, ScenarioConfig
from repro.scenariospec import ScenarioSpec

N_NODES = 2000
HORIZON_S = 2.0
#: Paper Section IV density (5·10⁻⁵ nodes/m²) at 2000 nodes.
SIDE_M = math.sqrt(N_NODES / 5e-5)
#: Peak-RSS growth allowance for one extra simulated second [KiB].
RSS_ALLOWANCE_KIB = 256 * 1024


def _peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@pytest.mark.slow
def test_2000_node_world_memory_is_bounded():
    cfg = replace(
        ScenarioConfig(),
        node_count=N_NODES,
        duration_s=HORIZON_S + 2.0,
        seed=3,
        mobility=MobilityConfig(field_width_m=SIDE_M, field_height_m=SIDE_M),
    )
    net = NetworkBuilder(ScenarioSpec.from_legacy(cfg, "basic", mobile=False)).build()
    net.sim.run_until(HORIZON_S)
    # Non-vacuous: a 2000-node world at paper density is busy.
    assert net.sim.events_executed > 1_000_000

    # Another simulated second at steady state must reuse cached fan-outs
    # and free fired events, not allocate proportionally.
    before = _peak_rss_kib()
    net.sim.run_until(HORIZON_S + 1.0)
    growth = _peak_rss_kib() - before
    assert growth < RSS_ALLOWANCE_KIB, f"peak RSS grew {growth} KiB"
