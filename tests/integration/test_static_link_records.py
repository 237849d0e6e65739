"""Link records exist only where something moves.

In an all-static world the channel's static replay memo is its only
fan-out cache: a built and run static PCMAC cell must leave no per-pair
link record on either channel (data or power-control).  A waypoint cell
still keeps them, because the motion bound and the epoch gain cache live
in those records.
"""

from __future__ import annotations

from repro.builder import NetworkBuilder
from repro.config import MobilityConfig, ScenarioConfig, TrafficConfig
from repro.scenariospec import ScenarioSpec


def _run(speed_mps: float, mobility: str):
    cfg = ScenarioConfig(
        node_count=8,
        duration_s=3.0,
        seed=3,
        traffic=TrafficConfig(
            flow_count=2, offered_load_bps=160e3, start_time_s=0.5
        ),
        mobility=MobilityConfig(
            speed_mps=speed_mps, field_width_m=400.0, field_height_m=400.0
        ),
    )
    net = NetworkBuilder(ScenarioSpec(cfg=cfg, mac="pcmac", mobility=mobility)).build()
    net.run()
    return net


def test_static_pcmac_cell_keeps_no_link_tables():
    net = _run(0.0, "static")
    channels = (net.data_channel, net.control_channel)
    assert all(chan.spatial_index for chan in channels)
    for chan in channels:
        assert chan._links == {}
        assert chan._static_fanouts  # the replay memo did the caching


def test_waypoint_cell_keeps_link_tables():
    net = _run(10.0, "waypoint")
    assert net.data_channel.spatial_index
    assert net.data_channel._links  # the motion bound stays engaged
    assert net.data_channel._static_fanouts == {}
