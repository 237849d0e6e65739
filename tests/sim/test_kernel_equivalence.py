"""Fused vs reference kernel: exact equivalence.

The fused hot loop (``Simulator(fused=True)``, one traversal of the raw
heap per event) must dispatch the *exact* event sequence of the reference peek-then-pop loop
— same ``(time, priority, seq)`` total order, same ``events_executed`` —
under any interleaving of scheduling, cancellation and heap compaction.
These tests drive both loops with identical scripts (including handlers
that schedule and cancel further events while running) and whole paper
scenarios, and compare field by field.  A fan-out
(``Simulator.schedule_fanout``) must dispatch like the individual
``schedule`` calls it stands for, in every loop and under ``step()``,
whether it became one edge batch or fell back to those calls.
"""

from __future__ import annotations

import math
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.builder import NetworkBuilder
from repro.config import ScenarioConfig
from repro.scenariospec import ScenarioSpec
from repro.sim.event import EdgeBatch, EventQueue
from repro.sim.kernel import Simulator
from tests.sim.fanout import (
    Frame,
    Receiver,
    columns,
    schedule_fanout,
    schedule_one_by_one,
)

# ---------------------------------------------------------------------------
# Property: queue-level dispatch order under schedule/cancel/compaction
# ---------------------------------------------------------------------------

#: One scripted operation: ("push", time, priority) | ("cancel", k) |
#: ("compact",).  ``k`` picks among the events pushed so far (modulo).
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.floats(min_value=0.0, max_value=100.0),
            st.integers(min_value=-3, max_value=3),
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10_000)),
        st.tuples(st.just("compact")),
    ),
    min_size=1,
    max_size=300,
)


def _apply(queue: EventQueue, ops, compaction: bool):
    """Run the op script against ``queue``; returns the pushed events."""
    pushed = []
    for op in ops:
        if op[0] == "push":
            pushed.append(
                queue.push(op[1], lambda: None, priority=op[2], label=f"e{len(pushed)}")
            )
        elif op[0] == "cancel":
            if pushed:
                pushed[op[1] % len(pushed)].cancel()
        elif compaction:  # explicit compact on one queue only
            queue.compact()
    return pushed


class TestQueueDispatchOrder:
    @settings(max_examples=60, deadline=None)
    @given(ops=_ops)
    def test_order_stable_under_interleaved_cancel_and_compaction(self, ops):
        compacted, plain = EventQueue(), EventQueue()
        _apply(compacted, ops, compaction=True)
        pushed = _apply(plain, ops, compaction=False)

        got = []
        while (ev := compacted.pop()) is not None:
            got.append((ev.time, ev.priority, ev.seq, ev.label))
        want = []
        while (ev := plain.pop()) is not None:
            want.append((ev.time, ev.priority, ev.seq, ev.label))

        assert got == want
        # The dispatch sequence is exactly the live events sorted by the
        # (time, priority, seq) total order.
        live = sorted(
            (ev.time, ev.priority, ev.seq, ev.label)
            for ev in pushed
            if not ev.cancelled
        )
        assert got == live
        assert len(compacted) == len(plain) == 0


# ---------------------------------------------------------------------------
# Property: kernel-level dispatch with handlers that schedule and cancel
# ---------------------------------------------------------------------------


class _ScriptedRun:
    """Deterministic workload: each fired event may spawn and cancel others."""

    def __init__(self, sim: Simulator, plan):
        self.sim = sim
        self.plan = plan  # idx -> (spawn_delays, cancel_indices)
        self.fired: list[tuple[float, str]] = []
        self.events: list = []

    def start(self, initial):
        for k, (t, prio) in enumerate(initial):
            self._push(t, prio, k)

    def _push(self, time, priority, idx):
        ev = self.sim.schedule(
            time, lambda idx=idx: self._fire(idx), priority=priority, label=f"s{idx}"
        )
        self.events.append(ev)

    def _fire(self, idx):
        self.fired.append((self.sim.now, f"s{idx}"))
        spawn, cancels = self.plan.get(idx, ((), ()))
        for k, delay in enumerate(spawn):
            self._push(self.sim.now + delay, (idx + k) % 3, 1000 * (idx + 1) + k)
        for c in cancels:
            if self.events:
                self.sim.cancel(self.events[c % len(self.events)])


@settings(max_examples=25, deadline=None)
@given(
    initial=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=10.0),
            st.integers(min_value=0, max_value=2),
        ),
        min_size=1,
        max_size=20,
    ),
    plan=st.dictionaries(
        st.integers(min_value=0, max_value=19),
        st.tuples(
            st.lists(st.floats(min_value=0.0, max_value=5.0), max_size=3),
            st.lists(st.integers(min_value=0, max_value=100), max_size=3),
        ),
        max_size=10,
    ),
    horizon=st.floats(min_value=1.0, max_value=20.0),
)
def test_all_kernel_variants_dispatch_identically(initial, plan, horizon):
    """The fused and reference loops fire the same sequence."""
    runs = []
    for fused in (True, False):
        sim = Simulator(fused=fused)
        script = _ScriptedRun(sim, plan)
        script.start(initial)
        sim.run_until(horizon)
        runs.append((script.fired, sim.events_executed, sim.now, sim.pending_events))
    assert all(r == runs[0] for r in runs[1:])


# ---------------------------------------------------------------------------
# Property: edge batches dispatch like the schedule() calls they replace
# ---------------------------------------------------------------------------

#: A small delay menu, so edges and events keep colliding on time.  The
#: next float above 0.25 rounds to a tie with it once added to a clock of 1
#: or more, which the batch's order proof must catch.
_delays = st.sampled_from([0.0, 0.25, math.nextafter(0.25, 1.0), 0.5, 1.0])
#: Frame airtimes: most outlast a fan-out's delay spread, some do not.
_durations = st.sampled_from([0.25, 1.0, 1.25, 2.0, 3.0])
_prios = st.integers(min_value=0, max_value=1)
#: What the set-up or a fired item does: schedule an event, fan out a frame
#: to receivers at the given delays (in attach order), cancel an earlier
#: event, compact the queue, stop the run, or raise from the handler.
_actions = st.one_of(
    st.tuples(st.just("event"), _delays, _prios),
    st.tuples(
        st.just("fanout"), st.lists(_delays, min_size=1, max_size=6), _durations
    ),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=1000)),
    st.tuples(st.just("compact")),
    st.tuples(st.just("stop")),
    st.tuples(st.just("raise")),
)


class _Boom(Exception):
    """Raised by a scripted handler."""


class _Edges:
    """A receiver whose leading and trailing edge are two script items."""

    def __init__(self, script: "_BatchScript", start: int, end: int) -> None:
        self.script = script
        self.start = start
        self.end = end

    def signal_start(self, frame, power) -> None:
        self.script.fire(self.start, power)

    def signal_end(self, frame_id) -> None:
        self.script.fire(self.end, frame_id)


class _BatchScript:
    """Runs action plans; ``batched=False`` schedules each edge on its own."""

    def __init__(self, sim: Simulator, plan, batched: bool):
        self.sim = sim
        self.plan = plan  # item id -> actions run when that item fires
        self.batched = batched
        self.fired: list[tuple[float, int, object]] = []
        #: ``(events_executed, pending_events)`` as each item's handler
        #: reads them (the fused loop counts a batch run's edges late).
        self.counters: list[tuple[int, int]] = []
        self.events: list = []  # the cancellable ones, in creation order
        self.ids = 0
        self.stop_requested = False

    def _new_id(self) -> int:
        self.ids += 1
        return self.ids - 1

    def act(self, actions):
        sim = self.sim
        now = sim.now
        for action in actions:
            kind = action[0]
            if kind == "event":
                args = (self._new_id(), None)
                self.events.append(
                    sim.schedule(now + action[1], self.fire, action[2], "event", args)
                )
            elif kind == "fanout":
                rows = []
                for delay in action[1]:
                    rx = _Edges(self, self._new_id(), self._new_id())
                    rows.append((rx, float(rx.start), delay))
                frame = Frame(action[2], frame_id=self.ids)
                if self.batched:
                    schedule_fanout(sim, rows, frame)
                else:
                    schedule_one_by_one(sim, rows, frame)
            elif kind == "cancel":
                if self.events:
                    self.events[action[1] % len(self.events)].cancel()
            elif kind == "compact":
                sim._queue.compact()
            elif kind == "stop":
                self.stop_requested = True
                sim.stop()
            else:
                raise _Boom

    def fire(self, ident: int, arg):
        self.fired.append((self.sim.now, ident, arg))
        self.counters.append((self.sim.events_executed, self.sim.pending_events))
        self.act(self.plan.get(ident, ()))


#: The dispatch modes compared with the unbatched run.
_MODES = ("fused", "reference", "step")


def _drive(mode: str, root, plan, horizons):
    """One run in ``mode``: fused, reference, step or unbatched."""
    sim = Simulator(fused=mode not in ("reference", "unbatched"))
    script = _BatchScript(sim, plan, batched=mode != "unbatched")
    try:
        script.act(root)
    except _Boom:
        pass  # raised by the set-up: the scheduled items stay
    for horizon in horizons:
        try:
            if mode != "step":
                sim.run_until(horizon)
                continue
            # run_until's contract, one step() at a time: stop() ends the
            # slice with the clock at the stopping item, else the clock
            # reaches the horizon (run_until below has nothing left to
            # dispatch).
            script.stop_requested = False
            while not script.stop_requested:
                nxt = sim._queue.peek_time()
                if nxt is None or nxt > horizon:
                    sim.run_until(horizon)
                    break
                sim.step()
        except _Boom:
            pass  # a handler raised: the slice ends there, as in run_until
    return (
        script.fired, script.counters, sim.events_executed, sim.now,
        sim.pending_events,
    )


@settings(max_examples=120, deadline=None)
@given(
    root=st.lists(_actions, min_size=1, max_size=5),
    plan=st.dictionaries(
        st.integers(min_value=0, max_value=40),
        st.lists(_actions, max_size=4),
        max_size=24,
    ),
    horizons=st.lists(
        st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.25, 1.5, 2.0, 3.0, 10.0]),
        min_size=1,
        max_size=4,
    ).map(sorted),
)
def test_edge_batches_dispatch_like_individual_events(root, plan, horizons):
    """Fused, reference and step() runs of a script with fan-outs
    fire what the same edges fire as individual schedule() calls: same
    sequence, events_executed, now and pending_events, also as read by
    every handler, with events, cancellation, compaction, stop() and
    raising handlers mixed in."""
    want = _drive("unbatched", root, plan, horizons)
    for mode in _MODES:
        assert _drive(mode, root, plan, horizons) == want, mode


@pytest.mark.parametrize("mode", _MODES)
@pytest.mark.parametrize(
    "action, item",
    [("stop", 2), ("stop", 3), ("raise", 2), ("raise", 3)],
    ids=["stop-leading", "stop-trailing", "raise-leading", "raise-trailing"],
)
def test_a_batch_run_cut_short_resumes_in_order(mode, action, item):
    """A stop() or a raising handler in the middle of either phase of a
    batch ends the slice after that edge; the next slices fire the rest in
    order, with an event due between two of its edges."""
    # Receiver r (attach order) owns items 2r (start) and 2r + 1 (end);
    # the event is item 6 at t = 2.5: it ties with the second end, whose
    # lower seq fires first, and precedes the third.
    root = [("fanout", [0.0, 0.25, 0.5], 2.25), ("event", 2.5, 0)]
    plan = {item: [(action,)]}
    horizons = [1.0, 2.3, 10.0, 10.0]
    want = _drive("unbatched", root, plan, horizons)
    assert [ident for _, ident, _ in want[0]] == [0, 2, 4, 1, 3, 6, 5]
    assert _drive(mode, root, plan, horizons) == want


@settings(max_examples=200, deadline=None)
@given(
    delays=st.lists(
        st.one_of(
            st.floats(min_value=0.0, max_value=1e-5),
            st.sampled_from([1e-6, math.nextafter(1e-6, 1.0), 2e-6]),
        ),
        min_size=1,
        max_size=12,
    ),
    now=st.one_of(
        st.floats(min_value=0.0, max_value=1e4), st.sampled_from([0.0, 1.0, 400.0])
    ),
    duration=st.floats(min_value=1e-7, max_value=1e-2),
)
def test_a_batch_fires_in_key_order(delays, now, duration):
    """Whenever the kernel takes a fan-out as one batch, its column order is
    the ``(time, priority, seq)`` order of the edges it stands for."""
    sim = Simulator()
    sim.schedule(now, lambda: None)
    sim.run_until(now)
    log: list = []
    rows = [
        (Receiver(sim, k, log), 1.0, delay) for k, delay in enumerate(delays)
    ]
    cols = columns(rows)
    schedule_fanout(sim, rows, Frame(duration))
    head = sim._queue._heap[0][3]
    if head.__class__ is not EdgeBatch:
        return  # unprovable: the one-by-one calls themselves
    keys = [head.key(i) for i in range(2 * len(rows))]
    assert keys == sorted(keys)
    assert keys[0] == sim._queue._heap[0][:3]
    assert cols[4] > 0.0


# ---------------------------------------------------------------------------
# Whole-run: bit-identical ExperimentResults across paper scenarios
# ---------------------------------------------------------------------------


def _run_result(protocol: str, mobile: bool, fused: bool) -> dict:
    cfg = replace(ScenarioConfig(), node_count=10, duration_s=5.0, seed=11)
    spec = ScenarioSpec.from_legacy(cfg, protocol, mobile=mobile)
    net = NetworkBuilder(spec, fused_kernel=fused).build()
    result = asdict(net.run())
    result.pop("wallclock_s")  # the only legitimately nondeterministic field
    return result


class TestWholeRunEquivalence:
    """Fused kernel must reproduce the reference kernel bit for bit."""

    @pytest.mark.parametrize("protocol", ["basic", "pcmac"])
    @pytest.mark.parametrize("mobile", [False, True], ids=["static", "mobile"])
    def test_experiment_results_bit_identical(self, protocol, mobile):
        fused = _run_result(protocol, mobile, fused=True)
        reference = _run_result(protocol, mobile, fused=False)
        assert fused == reference
        # Equality above is exact (floats compared with ==); spot-check the
        # fields the acceptance criteria single out.
        assert fused["events_executed"] == reference["events_executed"]
        assert fused["events_executed"] > 1000
        assert fused["sent"] > 0
