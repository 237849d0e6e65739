"""Simulator kernel tests: clock discipline, scheduling rules, stop, the
collector pause."""

from __future__ import annotations

import gc
import math

import pytest

from repro.sim.event import COMPACT_MIN_DEAD, EdgeBatch, order_bound
from repro.sim.kernel import SimulationError, Simulator, collector_paused
from tests.sim.collector import grow_heap_by_a_third
from tests.sim.fanout import Frame, Receiver, schedule_fanout


class TestClock:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_run_until_advances_clock_to_end(self, sim):
        sim.run_until(5.0)
        assert sim.now == 5.0

    def test_events_fire_at_their_time(self, sim):
        seen = []
        sim.schedule(1.25, lambda: seen.append(sim.now))
        sim.run_until(2.0)
        assert seen == [1.25]

    def test_events_beyond_horizon_do_not_fire(self, sim):
        seen = []
        sim.schedule(3.0, lambda: seen.append(True))
        sim.run_until(2.0)
        assert seen == []
        sim.run_until(4.0)
        assert seen == [True]


class TestSchedulingRules:
    def test_cannot_schedule_in_past(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run_until(2.0)
        with pytest.raises(SimulationError):
            sim.schedule(1.5, lambda: None)

    def test_schedule_in_rejects_negative_delay(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_in(-0.1, lambda: None)

    def test_schedule_at_now_fires_after_current_handler(self, sim):
        order = []

        def outer():
            order.append("outer")
            sim.schedule(sim.now, lambda: order.append("inner"))

        sim.schedule(1.0, outer)
        sim.run_until(2.0)
        assert order == ["outer", "inner"]

    def test_cancel_prevents_firing(self, sim):
        seen = []
        ev = sim.schedule(1.0, lambda: seen.append(True))
        sim.cancel(ev)
        sim.run_until(2.0)
        assert seen == []

    def test_cancel_none_is_noop(self, sim):
        sim.cancel(None)

    def test_double_cancel_is_safe(self, sim):
        ev = sim.schedule(1.0, lambda: None)
        sim.cancel(ev)
        sim.cancel(ev)
        sim.run_until(2.0)


class TestExecution:
    def test_events_executed_counter(self, sim):
        for k in range(5):
            sim.schedule(float(k) + 0.5, lambda: None)
        sim.run_until(10.0)
        assert sim.events_executed == 5

    def test_pending_events(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 2
        sim.run_until(1.5)
        assert sim.pending_events == 1

    def test_stop_halts_run(self, sim):
        seen = []
        sim.schedule(1.0, lambda: (seen.append(1), sim.stop()))
        sim.schedule(2.0, lambda: seen.append(2))
        sim.run_until(10.0)
        assert seen == [1]
        # The stopped run leaves the clock at the stop point, not the horizon.
        assert sim.now == 1.0

    def test_step_executes_single_event(self, sim):
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(2.0, lambda: seen.append(2))
        assert sim.step()
        assert seen == [1]
        assert sim.step()
        assert seen == [1, 2]
        assert not sim.step()

    def test_step_inside_run_until_is_refused(self, sim):
        seen = []

        def handler():
            with pytest.raises(SimulationError):
                sim.step()
            seen.append(sim.now)

        sim.schedule(1.0, handler)
        sim.schedule(2.0, lambda: seen.append(sim.now))
        sim.run_until(10.0)
        assert seen == [1.0, 2.0]
        assert sim.events_executed == 2

    def test_handler_chain_ordering(self, sim):
        """Handlers scheduling at identical times preserve FIFO order."""
        order = []
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(1.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("c"))
        sim.run_until(2.0)
        assert order == ["a", "b", "c"]

    @pytest.mark.parametrize("fused", [True, False], ids=["fused", "reference"])
    def test_cancel_storm_compacts_mid_run(self, fused):
        """The MAC's timer pattern (arm a timeout, cancel it at once) far
        past the compaction threshold: every tick fires and the dead
        timeouts are purged while the loop dispatches."""
        sim = Simulator(fused=fused)
        fired = [0]
        peak_heap = [0]

        def tick():
            fired[0] += 1
            sim.cancel(sim.schedule_in(10.0, tick))
            peak_heap[0] = max(peak_heap[0], len(sim._queue._heap))
            if fired[0] < 4 * COMPACT_MIN_DEAD:
                sim.schedule_in(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run_until(1e9)
        assert fired[0] == sim.events_executed == 4 * COMPACT_MIN_DEAD
        assert peak_heap[0] <= COMPACT_MIN_DEAD


def _fanout(sim, delays, duration=1.0, hook=None, log=None):
    """A fan-out to one receiver per delay (named by attach index); returns
    the log its edges write."""
    log = [] if log is None else log
    rows = [
        (Receiver(sim, k, log, hook), float(k + 1), delay)
        for k, delay in enumerate(delays)
    ]
    schedule_fanout(sim, rows, Frame(duration, frame_id=9))
    return log


def _batched(sim) -> bool:
    return any(entry[3].__class__ is EdgeBatch for entry in sim._queue._heap)


class TestEdgeBatches:
    def test_edges_fire_in_key_order_and_count_one_by_one(self, sim):
        fired = _fanout(sim, [0.5, 0.0])
        assert _batched(sim)
        assert sim.pending_events == 4 and sim.schedule(9.0, print).seq == 4
        sim.run_until(0.75)
        assert fired == [("start", 0.0, 1, 2.0), ("start", 0.5, 0, 1.0)]
        assert sim.events_executed == 2 and sim.pending_events == 3
        sim.run_until(3.0)
        assert fired[2:] == [("end", 1.0, 1, 9), ("end", 1.5, 0, 9)]
        assert sim.events_executed == 4 and sim.pending_events == 1

    def test_events_interleave_with_a_batch(self, sim):
        order = _fanout(sim, [0.0])
        sim.schedule(0.5, lambda: order.append("event"))
        sim.run_until(5.0)
        assert [item if isinstance(item, str) else item[0] for item in order] == [
            "start", "event", "end",
        ]

    def test_step_takes_one_edge(self, sim):
        fired = _fanout(sim, [1.0])
        assert sim.step() and fired == [("start", 1.0, 0, 1.0)] and sim.now == 1.0
        assert sim.pending_events == 1
        assert sim.step() and fired[1:] == [("end", 2.0, 0, 9)]
        assert not sim.step()

    def test_edges_may_come_in_any_order(self, sim):
        """Receivers come in any attach order; their edges fire in key
        order, equal delays in attach order."""
        fired = _fanout(sim, [0.5, 0.25, 0.25])
        assert _batched(sim)
        sim.run_until(5.0)
        assert [(edge, t, k) for edge, t, k, _ in fired] == [
            ("start", 0.25, 1), ("start", 0.25, 2), ("start", 0.5, 0),
            ("end", 1.25, 1), ("end", 1.25, 2), ("end", 1.5, 0),
        ]
        assert sim.events_executed == 6

    @pytest.mark.parametrize("fused", [True, False], ids=["fused", "reference"])
    def test_handlers_read_per_edge_counters(self, fused):
        """Inside a batch run each edge already counts as executed and no
        longer as pending, like an event of its own."""
        sim = Simulator(fused=fused)
        seen = []

        def edge(kind):
            seen.append((kind, sim.events_executed, sim.pending_events))

        sim.schedule(0.5, lambda: None)
        _fanout(sim, [1.0, 1.0], duration=0.5, hook=edge)
        sim.schedule(3.0, lambda: edge("ev"))
        sim.run_until(5.0)
        assert seen == [
            ("start", 2, 4), ("start", 3, 3), ("end", 4, 2), ("end", 5, 1),
            ("ev", 6, 0),
        ]

    def test_empty_batch_is_a_no_op(self, sim):
        _fanout(sim, [])
        assert sim.pending_events == 0 and sim.schedule(1.0, print).seq == 0

    def test_seqs_are_taken_at_schedule_time(self, sim):
        """A fan-out numbers its edges from the next seq when it is
        scheduled, after any event scheduled before it."""
        order = []
        sim.schedule(1.0, lambda: order.append("before"), priority=1)
        _fanout(sim, [1.0], log=order)
        sim.schedule(1.0, lambda: order.append("after"), priority=1)
        sim.run_until(5.0)
        assert [item if isinstance(item, str) else item[0] for item in order] == [
            "before", "start", "after", "end",
        ]

    def test_edges_in_the_past_are_rejected(self, sim):
        sim.run_until(1.0)
        with pytest.raises(SimulationError):
            _fanout(sim, [-0.5, 2.0])
        assert sim.pending_events == 0

    @pytest.mark.parametrize("fused", [True, False], ids=["fused", "reference"])
    def test_a_raising_edge_leaves_the_rest_queued(self, fused):
        sim = Simulator(fused=fused)

        def edge(kind):
            if len(fired) == 1:
                raise RuntimeError("handler failed")

        fired = _fanout(sim, [1.0], hook=edge)
        with pytest.raises(RuntimeError):
            sim.run_until(5.0)
        assert sim.pending_events == 1 and sim.events_executed == 1
        sim.run_until(5.0)
        assert [item[0] for item in fired] == ["start", "end"]
        assert sim.events_executed == 2


class TestUnprovableOrder:
    """Columns whose order the batch cannot prove are scheduled as the
    one-by-one ``schedule`` calls, in attach order."""

    def test_a_frame_shorter_than_its_delay_spread(self, sim):
        fired = _fanout(sim, [2.0, 0.0], duration=1.0)
        assert not _batched(sim) and sim.pending_events == 4
        sim.run_until(5.0)
        assert [(edge, t, k) for edge, t, k, _ in fired] == [
            ("start", 0.0, 1), ("end", 1.0, 1), ("start", 2.0, 0), ("end", 3.0, 0),
        ]

    def test_a_trailing_edge_at_a_leading_edges_time_fires_first(self, sim):
        """Priority 0 wins the tie, so the end cannot wait behind the start."""
        fired = _fanout(sim, [1.0, 0.0], duration=1.0)
        assert not _batched(sim)
        sim.run_until(5.0)
        assert [(edge, t, k) for edge, t, k, _ in fired] == [
            ("start", 0.0, 1), ("end", 1.0, 1), ("start", 1.0, 0), ("end", 2.0, 0),
        ]

    def test_delays_that_round_to_a_tie(self, sim):
        """At now = 1, 0.25 and the next float up both give 1.25; the tie
        then breaks by seq, which puts the farther, earlier-attached
        receiver first."""
        sim.run_until(1.0)
        near = 0.25
        far = math.nextafter(near, 1.0)
        assert 1.0 + far == 1.0 + near
        fired = _fanout(sim, [far, near])
        assert not _batched(sim)
        sim.run_until(5.0)
        assert [(edge, k) for edge, _, k, _ in fired] == [
            ("start", 0), ("start", 1), ("end", 0), ("end", 1),
        ]

    def test_the_same_delays_in_seq_order_are_batched(self, sim):
        sim.run_until(1.0)
        near = 0.25
        far = math.nextafter(near, 1.0)
        fired = _fanout(sim, [near, far])
        assert _batched(sim)
        sim.run_until(5.0)
        assert [(edge, k) for edge, _, k, _ in fired] == [
            ("start", 0), ("start", 1), ("end", 0), ("end", 1),
        ]


class TestOrderBound:
    def test_seq_order_bounds_nothing(self):
        assert order_bound((0.0, 0.0, 1e-9, 3e-9), (0, 2, 4, 6)) == math.inf

    def test_the_smallest_seq_descending_gap_bounds(self):
        bound = order_bound((0.0, 1e-6, 1.5e-6, 4e-6), (6, 4, 0, 2))
        assert bound == (1.5e-6 - 1e-6) * 2.0**50

    @pytest.mark.parametrize(
        "delays, ks",
        [
            ((1e-6, 1e-6), (2, 0)),  # an exact tie against seq order
            ((2e-6, 1e-6), (0, 2)),  # not in delay order
            ((0.0, math.nan), (0, 2)),
        ],
        ids=["tie", "unsorted", "nan"],
    )
    def test_unprovable_columns_bound_to_zero(self, delays, ks):
        assert order_bound(delays, ks) == 0.0


@pytest.mark.usefixtures("collector_on")
class TestCollectorPause:
    @pytest.mark.parametrize("fused", [True, False], ids=["fused", "reference"])
    def test_handlers_run_with_the_collector_paused(self, fused):
        sim = Simulator(fused=fused)
        seen = []
        sim.schedule(1.0, lambda: seen.append(gc.isenabled()))
        _fanout(sim, [2.0], hook=lambda kind: seen.append(gc.isenabled()))
        sim.run_until(5.0)
        assert seen == [False, False, False]
        assert gc.isenabled()

    def test_restored_after_stop(self, sim):
        sim.schedule(1.0, sim.stop)
        sim.schedule(2.0, lambda: None)
        sim.run_until(5.0)
        assert sim.now == 1.0 and gc.isenabled()

    def test_restored_after_a_handler_raises(self, sim):
        def boom():
            raise RuntimeError("handler failed")

        sim.schedule(1.0, boom)
        with pytest.raises(RuntimeError):
            sim.run_until(5.0)
        assert gc.isenabled()

    def test_left_off_if_the_caller_turned_it_off(self, sim):
        sim.schedule(1.0, lambda: None)
        gc.disable()
        sim.run_until(5.0)
        assert not gc.isenabled()

    def test_a_nested_simulator_does_not_end_the_pause(self, sim):
        seen = []

        def run_inner():
            inner = Simulator()
            inner.schedule(1.0, lambda: seen.append(("inner", gc.isenabled())))
            inner.run_until(2.0)
            seen.append(("after inner", gc.isenabled()))

        sim.schedule(1.0, run_inner)
        sim.schedule(2.0, lambda: seen.append(("outer", gc.isenabled())))
        sim.run_until(5.0)
        assert seen == [("inner", False), ("after inner", False), ("outer", False)]
        assert gc.isenabled()

    def test_refused_run_until_leaves_it_alone(self, sim):
        with pytest.raises(SimulationError):
            sim.run_until(float("nan"))
        assert gc.isenabled()


@pytest.mark.usefixtures("collector_on")
class TestCollectorCatchUp:
    """The pause never collects: old garbage waits for the next build
    (``tests/test_builder_compat.py``), however much a block grew."""

    def test_a_block_that_grew_the_heap_by_a_quarter_runs_no_full_collection(
        self, full_collections
    ):
        with collector_paused():
            kept = grow_heap_by_a_third()
        assert full_collections == [] and kept

    def test_a_run_that_grew_the_heap_by_a_quarter_runs_no_full_collection(
        self, sim, full_collections
    ):
        kept = []
        sim.schedule(1.0, lambda: kept.extend(grow_heap_by_a_third()))
        sim.run_until(2.0)
        assert full_collections == [] and kept

    def test_a_small_block_runs_no_full_collection(self, full_collections):
        with collector_paused():
            kept = [object() for _ in range(10_000)]
        assert full_collections == [] and kept

    def test_no_catch_up_when_the_caller_turned_it_off(self, full_collections):
        gc.disable()
        with collector_paused():
            kept = grow_heap_by_a_third()
        assert full_collections == [] and kept
