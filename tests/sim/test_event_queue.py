"""Event queue ordering, cancellation bookkeeping and compaction tests."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.event import COMPACT_MIN_DEAD, EventQueue
from repro.sim.kernel import SimulationError, Simulator


class TestOrdering:
    def test_pops_in_time_order(self):
        q = EventQueue()
        order = []
        q.push(3.0, lambda: order.append(3))
        q.push(1.0, lambda: order.append(1))
        q.push(2.0, lambda: order.append(2))
        while (ev := q.pop()) is not None:
            ev.fn()
        assert order == [1, 2, 3]

    def test_equal_times_fifo_by_insertion(self):
        q = EventQueue()
        events = [q.push(1.0, lambda: None, label=f"e{i}") for i in range(10)]
        popped = [q.pop() for _ in range(10)]
        assert [e.label for e in popped] == [e.label for e in events]

    def test_priority_breaks_time_ties(self):
        q = EventQueue()
        q.push(1.0, lambda: None, priority=5, label="low")
        q.push(1.0, lambda: None, priority=0, label="high")
        assert q.pop().label == "high"
        assert q.pop().label == "low"

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
    def test_property_pop_sequence_is_sorted(self, times):
        q = EventQueue()
        for t in times:
            q.push(t, lambda: None)
        popped = []
        while (ev := q.pop()) is not None:
            popped.append(ev.time)
        assert popped == sorted(times)


class TestCancellation:
    def test_cancelled_event_is_skipped(self):
        q = EventQueue()
        ev1 = q.push(1.0, lambda: None, label="a")
        q.push(2.0, lambda: None, label="b")
        ev1.cancel()
        assert q.pop().label == "b"

    def test_len_counts_live_events(self):
        q = EventQueue()
        ev = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        assert len(q) == 2
        ev.cancel()
        assert len(q) == 1

    def test_direct_cancel_updates_live_count(self):
        """Regression: Event.cancel() alone must keep len(queue) correct.

        Historically the count only stayed correct when cancellation went
        through Simulator.cancel; a direct event.cancel() silently corrupted
        ``pending_events``.
        """
        q = EventQueue()
        ev = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        ev.cancel()  # bookkeeping is self-contained
        assert len(q) == 1
        assert q.pop() is not None
        assert len(q) == 0
        assert q.pop() is None

    def test_double_cancel_counts_once(self):
        q = EventQueue()
        ev = q.push(1.0, lambda: None)
        ev.cancel()
        ev.cancel()
        assert len(q) == 0

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        ev = q.push(1.0, lambda: None)
        q.push(5.0, lambda: None)
        ev.cancel()
        assert q.peek_time() == 5.0

    def test_empty_queue(self):
        q = EventQueue()
        assert q.pop() is None
        assert q.peek_time() is None
        assert not q


class TestCompaction:
    def test_explicit_compact_preserves_live_events(self):
        q = EventQueue()
        keep = [q.push(float(k), lambda: None, label=f"k{k}") for k in range(10)]
        drop = [q.push(float(k) + 0.5, lambda: None) for k in range(10)]
        for ev in drop:
            ev.cancel()
        q.compact()
        assert len(q) == 10
        assert q._dead == 0
        assert [q.pop().label for _ in range(10)] == [e.label for e in keep]

    def test_compact_on_empty_queue(self):
        q = EventQueue()
        q.compact()
        assert q.pop() is None

    def test_mass_cancellation_triggers_auto_compaction(self):
        q = EventQueue()
        events = [q.push(float(k), lambda: None) for k in range(2 * COMPACT_MIN_DEAD)]
        survivor = q.push(1e9, lambda: None, label="survivor")
        for ev in events:
            ev.cancel()
        # The heap must have been purged (not still hold every dead tuple);
        # at most one compaction threshold's worth of dead entries remains.
        assert len(q._heap) <= COMPACT_MIN_DEAD
        assert len(q) == 1
        assert q.pop().label == "survivor"

    def test_compaction_does_not_reorder(self):
        """Compacted and uncompacted queues pop the identical sequence."""

        def fill(q):
            events = []
            for k in range(60):
                events.append(
                    q.push(float(k % 7), lambda: None, priority=k % 3, label=f"e{k}")
                )
            return events

        compacted, plain = EventQueue(), EventQueue()
        for q in (compacted, plain):
            for k, ev in enumerate(fill(q)):
                if k % 3 == 0:
                    ev.cancel()
        compacted.compact()
        got = [ev.label for ev in iter(compacted.pop, None)]
        want = [ev.label for ev in iter(plain.pop, None)]
        assert got == want
        assert len(got) == 40



class TestNanTimes:
    """Regression: a NaN time passed the ``time < now`` guard, fired after
    every finite event and left ``sim.now`` NaN, disarming every later
    past-time check."""

    @pytest.mark.parametrize("method", ["schedule", "schedule_in"])
    def test_nan_is_rejected_and_the_clock_stays_armed(self, method):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            getattr(sim, method)(float("nan"), lambda: None)
        assert sim.pending_events == 1
        sim.run_until(2.0)
        assert sim.now == 2.0
        with pytest.raises(SimulationError):
            sim.schedule(1.5, lambda: None)

    @pytest.mark.parametrize("fused", [True, False], ids=["fused", "reference"])
    def test_nan_horizon_is_rejected_and_nothing_fires(self, fused):
        # Regression: ``time > nan`` is False for every event time, so
        # run_until(nan) drained the whole queue and left ``now`` at 1e6.
        sim = Simulator(fused=fused)
        fired = []
        for t in (1.0, 5.0, 1e6):
            sim.schedule(t, lambda t=t: fired.append(t))
        with pytest.raises(SimulationError):
            sim.run_until(float("nan"))
        assert fired == [] and sim.now == 0.0 and sim.pending_events == 3
        sim.run_until(2.0)  # still usable afterwards
        assert fired == [1.0] and sim.now == 2.0
