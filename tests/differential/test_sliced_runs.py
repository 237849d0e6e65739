"""Differential suite: sliced, stopped and fault-driven runs vs the oracle.

The fused kernel counts the edges of a batch run in ``events_executed`` and
``pending_events`` when the run ends rather than per edge, and the indexed
fan-out hands each transmit's edges to the kernel pre-sorted.  Neither may
show: the default build must agree with the oracle build (brute-force
fan-out, reference loop, one count per edge) not only on the final
:class:`~repro.metrics.ExperimentResult` but at every slice of a sliced run
(``now``, ``events_executed``, ``pending_events``), at a ``stop()`` raised
in the middle of an edge batch, on counters read by handlers, and while
faults, energy metering and probes act on the radios.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.builder import NetworkBuilder
from repro.phy.radio import Radio
from repro.scenariospec import ComponentSpec, ScenarioSpec
from tests.differential.test_megascale_equivalence import (
    make_moving_spec,
    make_spec,
)


def _build(spec: ScenarioSpec, oracle: bool):
    return NetworkBuilder(
        spec, spatial_index=not oracle, fused_kernel=not oracle
    ).build()


def _result(net) -> dict:
    result = asdict(net.run())
    result.pop("wallclock_s")
    return result


def sliced(spec: ScenarioSpec, oracle: bool, slices: int) -> tuple[list, dict]:
    """Run in ``slices`` equal ``run_until`` slices; the per-slice counters
    and the final result."""
    net = _build(spec, oracle)
    sim = net.sim
    duration = net.cfg.duration_s
    marks = []
    for i in range(1, slices + 1):
        sim.run_until(duration * i / slices)
        marks.append((sim.now, sim.events_executed, sim.pending_events))
    return marks, _result(net)


def assert_sliced_match(spec: ScenarioSpec, slices: int) -> None:
    got = sliced(spec, False, slices)
    want = sliced(spec, True, slices)
    assert got[0] == want[0]
    assert got[1] == want[1]


class TestSlicedRuns:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=6, max_value=30),
        protocol=st.sampled_from(["basic", "pcmac"]),
        mobile=st.booleans(),
        slices=st.integers(min_value=2, max_value=40),
    )
    def test_every_slice_matches(self, seed, n, protocol, mobile, slices):
        assert_sliced_match(make_spec(protocol, mobile, n, 3.0, seed), slices)

    def test_many_short_slices(self):
        """Slices far shorter than a frame: horizons cut through batches."""
        assert_sliced_match(make_spec("pcmac", False, 20, 2.0, 3), 400)


@contextmanager
def on_decodable_end(count: int, act):
    """Call ``act(radio)`` after the ``count``-th end of a decodable arrival.

    Both builds dispatch the same edges in the same order, so ``act`` runs
    at the same edge in each; in the fused default build that edge is one
    of a batch run whose later edges are still to fire.
    """
    seen = {"ends": 0, "acted": False}
    original = Radio.signal_end

    def signal_end(radio, frame_id):
        power = radio._arrivals.get(frame_id)
        original(radio, frame_id)
        if power is not None and power >= radio.rx_threshold_w:
            seen["ends"] += 1
            if seen["ends"] == count:
                seen["acted"] = True
                act(radio)

    Radio.signal_end = signal_end
    try:
        yield seen
    finally:
        Radio.signal_end = original


def stopped_run(spec: ScenarioSpec, oracle: bool, count: int):
    with on_decodable_end(count, lambda radio: radio.sim.stop()) as seen:
        net = _build(spec, oracle)
        sim = net.sim
        sim.run_until(net.cfg.duration_s)
        assert seen["acted"]
        mark = (sim.now, sim.events_executed, sim.pending_events)
        return mark, _result(net)


def counters_read_mid_batch(spec: ScenarioSpec, oracle: bool, count: int):
    reads = []

    def read(radio):
        reads.append((radio.sim.now, radio.sim.events_executed,
                      radio.sim.pending_events))

    with on_decodable_end(count, read) as seen:
        net = _build(spec, oracle)
        result = _result(net)
        assert seen["acted"]
    return reads, result


class TestMidBatch:
    @pytest.mark.parametrize("count", [1, 17, 90])
    @pytest.mark.parametrize("protocol", ["basic", "pcmac"])
    def test_stop_then_resume(self, protocol, count):
        spec = make_spec(protocol, False, 20, 3.0, 5)
        assert stopped_run(spec, False, count) == stopped_run(spec, True, count)

    @pytest.mark.parametrize("count", [1, 40])
    def test_counters_read_by_a_handler(self, count):
        spec = make_spec("pcmac", False, 20, 3.0, 5)
        got = counters_read_mid_batch(spec, False, count)
        assert got == counters_read_mid_batch(spec, True, count)


def _with(spec: ScenarioSpec, **components) -> ScenarioSpec:
    return replace(spec, **components)


class TestFaultsAndInstruments:
    def test_link_fades_and_noise_bursts(self):
        spec = _with(
            make_spec("pcmac", False, 16, 4.0, 9),
            faults=ComponentSpec(
                "scripted",
                noise_bursts=((1.5, 2.2, 1e-9), (2.9, 3.1, 5e-10)),
                link_fades=((0, 3, 1.2, 3.5, 0.05), (4, 1, 1.0, 2.0, 0.2),
                            (7, 2, 2.0, 3.8, 0.01)),
                corrupt=((2.5, 3.0, 0.3),),
            ),
        )
        assert_sliced_match(spec, 25)

    @pytest.mark.parametrize("protocol", ["basic", "pcmac"])
    def test_churn_crashes(self, protocol):
        spec = make_moving_spec(
            protocol, 14, 3.0, 21, speed_mps=6.0, pause_s=0.0,
            side_m=600.0, crashes=3,
        )
        assert_sliced_match(spec, 30)

    def test_wavelan_energy_and_probes(self):
        spec = _with(
            make_spec("pcmac", False, 16, 3.0, 4),
            energy=ComponentSpec("wavelan", battery_j=40.0),
            observability=ComponentSpec("probes", interval_s=0.05),
        )
        assert_sliced_match(spec, 12)
