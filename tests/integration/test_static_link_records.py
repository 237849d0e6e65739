"""Link records exist only where something moves.

While no radio moves the channel's replay memo is its only fan-out cache:
a built and run static PCMAC cell must leave no per-pair link record on
either channel (data or power-control), and neither may a waypoint cell
that ends inside its nodes' initial pause.  A waypoint cell that runs past
the pause still keeps them once the nodes move, because the motion bound
lives in those records: one float per pair, its distance plus the drift
allowance at the time it was last resolved.

The memo keeps each entry as the kernel's fan-out columns: its powers and
delays are ``array('d')``, which the cyclic collector walks as one object
however many survivors it holds, and a replayed entry equals, column by
column and in its order bound, the columns the moving interval's loop
resolves afresh.
"""

from __future__ import annotations

import gc
import math
from array import array

from repro.builder import NetworkBuilder
from repro.config import MobilityConfig, ScenarioConfig, TrafficConfig
from repro.phy.channel import Channel
from repro.scenariospec import ScenarioSpec

PAUSE_S = 3.0


def _run(speed_mps: float, mobility: str, duration_s: float = 3.0):
    cfg = ScenarioConfig(
        node_count=8,
        duration_s=duration_s,
        seed=3,
        traffic=TrafficConfig(
            flow_count=2, offered_load_bps=160e3, start_time_s=0.5
        ),
        mobility=MobilityConfig(
            speed_mps=speed_mps, pause_s=PAUSE_S, field_width_m=400.0,
            field_height_m=400.0,
        ),
    )
    net = NetworkBuilder(ScenarioSpec(cfg=cfg, mac="pcmac", mobility=mobility)).build()
    net.run()
    return net


def _spy(monkeypatch, name: str) -> list[float]:
    """Record the simulation time of every call to ``Channel.<name>``."""
    calls: list[float] = []
    original = getattr(Channel, name)

    def spy(self, *args):
        calls.append(self.sim.now)
        return original(self, *args)

    monkeypatch.setattr(Channel, name, spy)
    return calls


def test_static_pcmac_cell_keeps_no_link_tables():
    net = _run(0.0, "static")
    channels = (net.data_channel, net.control_channel)
    assert all(chan.spatial_index for chan in channels)
    for chan in channels:
        assert chan._links == {}
        assert chan._static_fanouts  # the replay memo did the caching


def test_replay_memo_is_columns_that_replay_as_a_fresh_resolve():
    net = _run(0.0, "static")
    for chan in (net.data_channel, net.control_channel):
        entries = {entry.seq: entry for entry in chan._entries.values()}
        assert chan._static_fanouts
        for (seq, tx_power), memo in chan._static_fanouts.items():
            radios, powers, delays, ks, bound = memo
            for column in (powers, delays):
                assert type(column) is array and column.typecode == "d"
                # The collector sees a column as one object: no survivor's
                # power or delay is a Python object of its own.
                assert not any(
                    isinstance(ref, float) for ref in gc.get_referents(column)
                )
            assert len(radios) == len(powers) == len(delays) == len(ks)
            assert type(bound) is float
            entry = entries[seq]
            fresh = chan._survivors(entry.radio, entry, tx_power, net.sim.now)
            assert len(fresh) == len(memo)
            for column, fresh_column in zip(memo[:4], fresh[:4]):
                assert list(column) == list(fresh_column)
            assert bound == fresh[4]


def test_waypoint_cell_inside_its_pause_replays(monkeypatch):
    """Every node sits in its initial 3 s pause for the whole 3 s cell, so
    the world is frozen throughout: replay fills the memo, no record is
    written and the motion-bounded loop never runs."""
    moving = _spy(monkeypatch, "_survivors")
    net = _run(10.0, "waypoint")
    chan = net.data_channel
    assert chan.spatial_index and chan._frozen_until == PAUSE_S
    assert chan._static_fanouts
    assert chan._links == {}
    assert moving == []


def test_waypoint_cell_keeps_link_tables(monkeypatch):
    """A cell that runs past the pause replays until the nodes leave, then
    resolves every transmit through the motion-bounded loop, which writes
    its records from the thaw on."""
    frozen = _spy(monkeypatch, "_static_survivors")
    moving = _spy(monkeypatch, "_survivors")
    net = _run(10.0, "waypoint", duration_s=6.0)
    chan = net.data_channel
    assert frozen and max(frozen) < PAUSE_S
    assert moving and min(moving) >= PAUSE_S
    assert chan._links  # the motion bound stays engaged
    drift = 2.0 * 10.0
    for src_seq, links in chan._links.items():
        assert links[src_seq] == math.inf  # the source's own record
        for rx_seq, key in links.items():
            assert type(key) is float
            if rx_seq != src_seq:
                # dist + drift * t for a distance >= 0 resolved at t >= 3 s.
                assert drift * PAUSE_S <= key < math.inf
