"""Fused vs reference kernel: exact equivalence.

The fused hot loop (``EventQueue.pop_next`` inside ``Simulator(fused=True)``)
must dispatch the *exact* event sequence of the reference peek-then-pop loop
— same ``(time, priority, seq)`` total order, same ``events_executed`` —
under any interleaving of scheduling, cancellation and heap compaction.
These tests drive both loops with identical scripts (including handlers
that schedule and cancel further events while running) and whole paper
scenarios, and compare field by field.  Edge batches
(``Simulator.schedule_edges``) must dispatch like the individual
``schedule`` calls they stand for, in every loop and under ``step()``.
"""

from __future__ import annotations

from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.builder import NetworkBuilder
from repro.config import ScenarioConfig
from repro.scenariospec import ScenarioSpec
from repro.sim.event import EventQueue
from repro.sim.kernel import Simulator

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
        while (ev := compacted.pop_next(float("inf"))) is not None:
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

#: A small delay menu, so edges and events keep colliding on time.
_delays = st.sampled_from([0.0, 0.25, 0.5, 1.0])
_prios = st.integers(min_value=0, max_value=1)
#: What the set-up or a fired item does: schedule an event, schedule a batch
#: of edges, cancel an earlier event, compact the queue, or stop the run.
_actions = st.one_of(
    st.tuples(st.just("event"), _delays, _prios),
    st.tuples(
        st.just("batch"), st.lists(st.tuples(_delays, _prios), min_size=1, max_size=6)
    ),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=1000)),
    st.tuples(st.just("compact")),
    st.tuples(st.just("stop")),
)


class _BatchScript:
    """Runs action plans; ``batched=False`` schedules each edge on its own."""

    def __init__(self, sim: Simulator, plan, batched: bool):
        self.sim = sim
        self.plan = plan  # item id -> actions run when that item fires
        self.batched = batched
        self.fired: list[tuple[float, int]] = []
        #: ``(events_executed, pending_events)`` as each item's handler
        #: reads them (the fused loop counts a batch run's edges late).
        self.counters: list[tuple[int, int]] = []
        self.edge_ids: set[int] = set()
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
                args = (self._new_id(),)
                self.events.append(
                    sim.schedule(now + action[1], self.fire, action[2], "event", args)
                )
            elif kind == "batch":
                items = [(now + d, p, self._new_id()) for d, p in action[1]]
                self.edge_ids.update(i for _, _, i in items)
                if self.batched:
                    seq = sim.next_seq
                    sim.schedule_edges([
                        (t, p, seq + k, self.fire, (i,), "edge")
                        for k, (t, p, i) in enumerate(items)
                    ])
                else:
                    for t, p, i in items:
                        sim.schedule(t, self.fire, p, "edge", (i,))
            elif kind == "cancel":
                if self.events:
                    self.events[action[1] % len(self.events)].cancel()
            elif kind == "compact":
                sim._queue.compact()
            else:
                self.stop_requested = True
                sim.stop()

    def fire(self, ident: int):
        self.fired.append((self.sim.now, ident))
        self.counters.append((self.sim.events_executed, self.sim.pending_events))
        self.act(self.plan.get(ident, ()))


def _drive(mode: str, root, plan, horizons):
    """One run in ``mode``: fused, reference, profiled, step or unbatched."""
    sim = Simulator(fused=mode not in ("reference", "unbatched"))
    if mode == "profiled":
        sim.enable_profiling()
    script = _BatchScript(sim, plan, batched=mode != "unbatched")
    script.act(root)
    for horizon in horizons:
        if mode != "step":
            sim.run_until(horizon)
            continue
        # run_until's contract, one step() at a time: stop() ends the slice
        # with the clock at the stopping item, else the clock reaches the
        # horizon (run_until below has nothing left to dispatch).
        script.stop_requested = False
        while not script.stop_requested:
            nxt = sim._queue.peek_time()
            if nxt is None or nxt > horizon:
                sim.run_until(horizon)
                break
            sim.step()
    if mode == "profiled":
        calls = {kind: cell[0] for kind, cell in sim.profile.items()}
        assert sum(calls.values()) == sim.events_executed
        edges = sum(1 for _, ident in script.fired if ident in script.edge_ids)
        assert calls.get("edge", 0) == edges
    return (
        script.fired, script.counters, sim.events_executed, sim.now,
        sim.pending_events,
    )


@settings(max_examples=80, deadline=None)
@given(
    root=st.lists(_actions, min_size=1, max_size=5),
    plan=st.dictionaries(
        st.integers(min_value=0, max_value=30),
        st.lists(_actions, max_size=4),
        max_size=20,
    ),
    horizons=st.lists(
        st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 10.0]),
        min_size=1,
        max_size=4,
    ).map(sorted),
)
def test_edge_batches_dispatch_like_individual_events(root, plan, horizons):
    """Fused, reference, profiled and step() runs of a script with edge
    batches fire what the same items fire as individual schedule() calls:
    same sequence, events_executed, now and pending_events, also as read
    by every handler."""
    want = _drive("unbatched", root, plan, horizons)
    for mode in ("fused", "reference", "profiled", "step"):
        assert _drive(mode, root, plan, horizons) == want, mode


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
