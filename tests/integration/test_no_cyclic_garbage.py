"""A run leaves no cyclic garbage.

The kernel pauses Python's cyclic garbage collector while it dispatches
(and the builder while it builds): during a run the collector's passes
found nothing to free, so they cost only time.  That stays safe only while
it stays true, so this checks it per component: after a build and a full
collection, ``run()`` must leave nothing that only the cyclic collector
could free.  Reference cycles that stay reachable (node <-> MAC, bound
methods held by timers) are fine; an unreachable one is a leak the pause
would let grow for a whole run.
"""

from __future__ import annotations

import gc

import pytest

from repro.config import MobilityConfig, ScenarioConfig, TrafficConfig
from repro.scenariospec import ComponentSpec, ScenarioSpec


def _cfg(*, speed_mps: float = 0.0, duration_s: float = 5.0) -> ScenarioConfig:
    return ScenarioConfig(
        node_count=8,
        duration_s=duration_s,
        seed=3,
        traffic=TrafficConfig(flow_count=2, offered_load_bps=160e3, start_time_s=0.5),
        mobility=MobilityConfig(
            speed_mps=speed_mps, field_width_m=400.0, field_height_m=400.0
        ),
    )


CELLS = {
    "basic-static": ScenarioSpec(cfg=_cfg(), mac="basic", mobility="static"),
    "pcmac-static": ScenarioSpec(cfg=_cfg(), mac="pcmac", mobility="static"),
    "basic-waypoint": ScenarioSpec(cfg=_cfg(speed_mps=10.0), mac="basic"),
    "pcmac-waypoint": ScenarioSpec(cfg=_cfg(speed_mps=10.0), mac="pcmac"),
    "sinr": ScenarioSpec(cfg=_cfg(), mac="pcmac", mobility="static", reception="sinr"),
    "churn": ScenarioSpec(
        cfg=_cfg(duration_s=8.0),
        mac="pcmac",
        mobility="static",
        faults=ComponentSpec("churn", crash_count=2, downtime_s=2.0),
    ),
    "corruption": ScenarioSpec(
        cfg=_cfg(),
        mac="basic",
        mobility="static",
        faults=ComponentSpec(
            "scripted",
            corrupt=((1.0, 4.0, 0.3),),
            noise_bursts=((2.0, 2.5, 1e-9),),
        ),
    ),
    "battery": ScenarioSpec(
        cfg=_cfg(),
        mac="pcmac",
        mobility="static",
        energy=ComponentSpec("wavelan", battery_j=4.0),
    ),
    "flight": ScenarioSpec(
        cfg=_cfg(),
        mac="pcmac",
        mobility="static",
        observability=ComponentSpec(
            "flight", interval_s=0.5, categories=("mac", "phy"), max_records=500
        ),
    ),
}


@pytest.fixture(scope="module")
def warmed_up():
    """One cell first, so one-time import and cache garbage is not counted."""
    ScenarioSpec(cfg=_cfg(duration_s=2.0), mac="pcmac").build().run()
    gc.collect()


@pytest.mark.usefixtures("warmed_up")
@pytest.mark.parametrize("name", sorted(CELLS))
def test_run_leaves_no_cyclic_garbage(name):
    net = CELLS[name].build()
    gc.collect()
    was_enabled = gc.isenabled()
    # Off for the whole run() — result assembly included — so no automatic
    # pass can free (and so hide) garbage before the count below.
    gc.disable()
    try:
        result = net.run()
        assert result.events_executed > 0
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
