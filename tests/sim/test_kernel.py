"""Simulator kernel tests: clock discipline, scheduling rules, stop."""

from __future__ import annotations

import pytest

from repro.sim.kernel import SimulationError, Simulator


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

    def test_handler_chain_ordering(self, sim):
        """Handlers scheduling at identical times preserve FIFO order."""
        order = []
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(1.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("c"))
        sim.run_until(2.0)
        assert order == ["a", "b", "c"]


def _edges(sim, items, fn):
    """Edge tuples for ``[(time, priority)]``, numbered from ``next_seq``."""
    seq = sim.next_seq
    return [(t, p, seq + k, fn, (k,), "edge") for k, (t, p) in enumerate(items)]


class TestEdgeBatches:
    def test_edges_fire_in_key_order_and_count_one_by_one(self, sim):
        fired = []
        sim.schedule_edges(
            _edges(sim, [(2.0, 1), (1.0, 0), (1.0, 1), (2.0, 0)],
                   lambda k: fired.append((sim.now, k)))
        )
        assert sim.pending_events == 4 and sim.next_seq == 4
        sim.run_until(1.5)
        assert fired == [(1.0, 1), (1.0, 2)]
        assert sim.events_executed == 2 and sim.pending_events == 2
        sim.run_until(3.0)
        assert fired[2:] == [(2.0, 3), (2.0, 0)]
        assert sim.events_executed == 4 and sim.pending_events == 0

    def test_events_interleave_with_a_batch(self, sim):
        order = []
        sim.schedule_edges(_edges(sim, [(1.0, 0), (3.0, 0)], order.append))
        sim.schedule(2.0, lambda: order.append("event"))
        sim.run_until(5.0)
        assert order == [0, "event", 1]

    def test_step_takes_one_edge(self, sim):
        fired = []
        sim.schedule_edges(_edges(sim, [(1.0, 0), (2.0, 0)], fired.append))
        assert sim.step() and fired == [0] and sim.now == 1.0
        assert sim.pending_events == 1
        assert sim.step() and fired == [0, 1]
        assert not sim.step()

    def test_empty_batch_is_a_no_op(self, sim):
        sim.schedule_edges([])
        assert sim.pending_events == 0 and sim.next_seq == 0

    def test_stale_seqs_are_rejected(self, sim):
        edges = _edges(sim, [(1.0, 0)], print)
        sim.schedule(0.5, lambda: None)  # takes the seq the edges reserved
        with pytest.raises(SimulationError):
            sim.schedule_edges(edges)
        assert sim.pending_events == 1

    def test_edges_in_the_past_are_rejected(self, sim):
        sim.run_until(1.0)
        with pytest.raises(SimulationError):
            sim.schedule_edges(_edges(sim, [(2.0, 0), (0.5, 0)], print))
        assert sim.pending_events == 0 and sim.next_seq == 0

    @pytest.mark.parametrize("fused", [True, False], ids=["fused", "reference"])
    def test_a_raising_edge_leaves_the_rest_queued(self, fused):
        sim = Simulator(fused=fused)
        fired = []

        def edge(k):
            fired.append(k)
            if k == 0:
                raise RuntimeError("handler failed")

        sim.schedule_edges(_edges(sim, [(1.0, 0), (2.0, 0)], edge))
        with pytest.raises(RuntimeError):
            sim.run_until(5.0)
        assert sim.pending_events == 1
        sim.run_until(5.0)
        assert fired == [0, 1] and sim.events_executed == 2
