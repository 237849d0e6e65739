"""Whole-run kernel hot-path microbenchmarks.

Where ``test_engine_microbench.py`` times isolated substrate pieces, these
measure the paths the run-loop turbocharge targeted, at whole-run or
storm scale:

* fused vs reference kernel loop over an identical event storm;
* MAC-style timer churn (arm, usually cancel, re-arm) including the lazy-
  cancel compaction the churn relies on;
* tracing emit cost for disabled categories (the near-zero-cost contract);
* a complete small paper scenario, end to end.

CI runs these once with ``--benchmark-disable`` so the code cannot rot;
locally ``python -m pytest benchmarks/test_engine_hotpath.py`` gives honest
pytest-benchmark numbers.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import ScenarioConfig
from repro.experiments.scenario import build_network
from repro.sim.kernel import Simulator
from repro.sim.trace import Tracer

# ---------------------------------------------------------------------------
# Kernel loop
# ---------------------------------------------------------------------------


def _event_storm(sim: Simulator, chains: int = 50, length: int = 100) -> int:
    """Self-rescheduling chains — the kernel loop with trivial handlers."""
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < chains * length:
            sim.schedule_in(0.001, tick)

    for k in range(chains):
        sim.schedule(0.0005 * k, tick)
    sim.run_until(1e9)
    return count[0]


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "reference"])
def test_kernel_loop_event_storm(benchmark, fused):
    def storm():
        return _event_storm(Simulator(fused=fused))

    # The last in-flight tick of each chain still fires after the threshold
    # crossing, so the total lands slightly above chains*length.
    assert benchmark(storm) >= 5000


def _edge_batch_storm(sim: Simulator, transmits: int = 200, fanout: int = 25) -> int:
    """Overlapping transmits, each handing the kernel one batch of
    ``2 * fanout`` edges — the indexed channel's pattern, trivial handlers."""
    count = [0]

    def edge(_k):
        count[0] += 1

    def transmit(k):
        now = sim.now
        seq = sim.next_seq
        edges = []
        for i in range(fanout):
            t = now + i * 1e-7  # staggered propagation delays
            edges.append((t, 1, seq, edge, (k,), "edge.start"))
            edges.append((t + 1e-3, 0, seq + 1, edge, (k,), "edge.end"))
            seq += 2
        sim.schedule_edges(edges)
        if k + 1 < transmits:
            sim.schedule_in(4e-4, transmit, args=(k + 1,))  # frames overlap

    sim.schedule(0.0, transmit, args=(0,))
    sim.run_until(1e9)
    return count[0]


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "reference"])
def test_kernel_loop_edge_batch_storm(benchmark, fused):
    def storm():
        return _edge_batch_storm(Simulator(fused=fused))

    assert benchmark(storm) == 200 * 2 * 25


def test_kernel_cancel_heavy_storm(benchmark):
    """Set-and-cancel timer pattern: exercises lazy cancel + compaction."""

    def churn():
        sim = Simulator()
        fired = [0]

        def work():
            fired[0] += 1
            # Arm a timeout, then immediately cancel it (the MAC pattern:
            # almost every timeout is cancelled by the response arriving).
            ev = sim.schedule_in(10.0, work)
            sim.cancel(ev)
            if fired[0] < 3000:
                sim.schedule_in(0.001, work)

        sim.schedule(0.0, work)
        sim.run_until(1e9)
        return fired[0]

    assert benchmark(churn) == 3000


def test_tracer_disabled_emit_overhead(benchmark):
    """The fast-path contract: counting a disabled category is ~one int add."""
    tracer = Tracer()
    handle = tracer.handle("phy.tx")

    def emits():
        for _ in range(10_000):
            handle.count += 1
            if handle.store:  # never true here — no dict/record allocation
                handle.record(0.0, 0, frame=1)
        return handle.count

    assert benchmark(emits) > 0


# ---------------------------------------------------------------------------
# Whole run
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("protocol", ["basic", "pcmac"])
def test_whole_run_small_scenario(benchmark, protocol):
    """End-to-end events/sec on a small paper scenario (N=10, 4 s)."""
    cfg = replace(ScenarioConfig(), node_count=10, duration_s=4.0, seed=7)

    def run():
        net = build_network(cfg, protocol, mobile=False)
        net.sim.run_until(cfg.duration_s)
        return net.sim.events_executed

    events = benchmark(run)
    assert events > 1000
