"""Mega-scale stress: a 2000-node world, leak-guarded; cells back to back.

Slow-marked (deselected from tier-1; run with ``python -m pytest -m slow``).
One paper-density 2000-node static world is executed for two simulated
seconds on the default build, then for one more: that extra second must not
grow peak RSS beyond a modest allowance (a fan-out cache or event-queue
leak would blow well past it at this scale).

Cells run one after another in one process (as ``run_specs(jobs=1)`` runs
a grid) must not pile up dead networks: each build first frees what the
earlier cells left behind once the heap has grown by a quarter.
"""

from __future__ import annotations

import math
import resource
import weakref
from dataclasses import replace

import pytest

import repro.builder
from repro.builder import NetworkBuilder
from repro.campaign.runner import run_specs
from repro.campaign.spec import RunSpec
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


#: Back-to-back cells: 300 paper-density nodes, 1.3 s (traffic from 1 s).
B2B_CELLS = 20
B2B_NODES = 300
#: Most earlier networks still alive while a later one is built.  A dead
#: 300-node cell holds about 47k allocated blocks, and the heap the
#: catch-up measures against is about 160k blocks with this file alone
#: collected and 357k with the whole suite, so a quarter's growth is at
#: most two such networks: measured 0 alive at every build alone, 0 or 1
#: with the whole suite.  A pause that catches up only at its own end
#: left 4 to 8 alive.
B2B_MAX_ALIVE = 2


@pytest.mark.slow
def test_back_to_back_cells_free_earlier_networks(monkeypatch):
    side = 1000.0 * math.sqrt(B2B_NODES / 50.0)
    base = replace(
        ScenarioConfig(),
        node_count=B2B_NODES,
        duration_s=1.3,
        mobility=MobilityConfig(field_width_m=side, field_height_m=side),
    )
    specs = [
        RunSpec(
            scenario=ScenarioSpec.from_legacy(
                replace(base, seed=seed), "pcmac", mobile=False
            )
        )
        for seed in range(1, B2B_CELLS + 1)
    ]
    # A channel is part of its network's reference cycles (radios point
    # back at it), so it lives exactly as long as the network does.
    channels: list[weakref.ref] = []
    alive: list[int] = []
    build = NetworkBuilder.build
    metrics = repro.builder.MetricsCollector

    def counting_metrics():
        # Called inside the build, after its catch-up and before most of
        # the new network is allocated.
        alive.append(sum(ref() is not None for ref in channels))
        return metrics()

    def tracked_build(self):
        net = build(self)
        channels.append(weakref.ref(net.data_channel))
        return net

    monkeypatch.setattr(repro.builder, "MetricsCollector", counting_metrics)
    monkeypatch.setattr(NetworkBuilder, "build", tracked_build)
    report = run_specs(specs, jobs=1)
    assert report.executed == B2B_CELLS and not report.errors
    assert len(alive) == B2B_CELLS
    assert max(alive) <= B2B_MAX_ALIVE, alive
