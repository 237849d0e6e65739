"""The simulation kernel: a clock plus an event queue.

Design notes
------------
The kernel is intentionally tiny — all protocol behaviour lives in the PHY /
MAC / routing layers, which interact with the kernel only through
:meth:`Simulator.schedule` / :meth:`Simulator.cancel` and :attr:`Simulator.now`
(the channel also hands over signal edges via
:meth:`Simulator.schedule_fanout`).  That keeps the hot loop (pop event,
advance clock, call handler) free of indirection, which matters: a full
paper-scale run executes tens of millions of events.  Profiling (per the
optimisation guide: measure first) showed the heap operations and handler
dispatch dominate, so the hot loop is *fused*:
:meth:`~repro.sim.event.EventQueue.pop_next` folds the historical
``peek_time()`` + ``pop()`` pair into a single heap traversal, and
:meth:`schedule` / :meth:`schedule_in` inline the queue push (one C-level
heap operation per event instead of two Python frames).

Signal edges, ~96 % of a paper run's events, skip most of the per-event
cost: the channel hands over one transmit's survivor columns (receivers,
powers, delays, seq offsets), and when their delay order provably is the
edges' ``(time, priority, seq)`` order they become one
:class:`~repro.sim.event.EdgeBatch`, a single heap entry keyed by its next
edge.  The fused loop keeps firing a popped batch's edges straight from
the columns while the next one still sorts before the heap head, so most
edges cost no tuple, no :class:`~repro.sim.event.Event`, no sort and no
heap operation, and it counts a run's edges in ``events_executed`` /
``pending_events`` when the run ends.  A transmit whose order the proof
cannot show is scheduled as one ``schedule`` call per edge, as the brute
fan-out does.

The pre-fusion loop survives as ``Simulator(fused=False)`` — the reference
kernel.  Both dispatch the exact same event sequence (same ``(time,
priority, seq)`` total order, same ``events_executed``); the equivalence
suite in ``tests/sim/test_kernel_equivalence.py`` runs scripted workloads
and whole paper scenarios through both and compares results field by field.

Dispatch runs with Python's cyclic garbage collector paused
(:func:`collector_paused`, also used by
:meth:`~repro.builder.NetworkBuilder.build`).  A run allocates events,
frames and tuples at a high rate, so the collector keeps firing; on a
2000-node field its passes walk a few hundred thousand live objects and
took about a fifth of a run's wall time, yet freed nothing: a run leaves
no cyclic garbage (its reference cycles all stay reachable).
``tests/integration/test_no_cyclic_garbage.py`` pins that invariant across
the component slots.  Reference counting frees everything as before, and
the pause changes no event order and no result.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from heapq import heappop, heappush
from math import isnan
from time import perf_counter
from typing import Any, Callable, Iterator

from repro.sim.event import EdgeBatch, Event, EventQueue


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, running twice...)."""


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for the ``with`` block.

    The collector is re-enabled on exit — also when the block raises — but
    only if it was enabled on entry, so a caller that turned it off keeps
    it off and a nested pause (a handler running a second simulator) does
    not end the outer one early.  Exit runs no collection: the block's own
    allocations are no cyclic garbage, and what earlier cells left behind
    is collected when the next network is built
    (:meth:`~repro.builder.NetworkBuilder.build`), before it allocates.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class Simulator:
    """A deterministic discrete-event simulator.

    Args:
        fused: use the fused single-traversal hot loop (default).  The
            reference loop (``fused=False``) peeks then pops — bit-identical
            dispatch, kept as the oracle for equivalence tests.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.schedule(1.5, lambda: fired.append(sim.now))
        >>> sim.run_until(10.0)
        >>> fired
        [1.5]
    """

    __slots__ = (
        "_queue",
        "_now",
        "_running",
        "_events_executed",
        "_stopped",
        "_fused",
        "_profile",
        "_batch_run",
    )

    def __init__(self, *, fused: bool = True) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._running = False
        self._stopped = False
        self._events_executed = 0
        self._fused = fused
        self._profile: dict[str, list] | None = None
        #: ``(batch, first)`` while the fused loop fires a run of ``batch``'s
        #: edges from index ``first``; it counts them when the run ends.
        self._batch_run: tuple[EdgeBatch, int] | None = None

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time [s]."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Total number of events dispatched so far (for perf accounting)."""
        return self._events_executed + self._fired_in_run()

    @property
    def pending_events(self) -> int:
        """Number of live events still scheduled (each unfired edge counts)."""
        return len(self._queue) - self._fired_in_run()

    def _fired_in_run(self) -> int:
        """Edges of the fused loop's current batch run fired so far, the
        one being dispatched included: the counters take them when the run
        ends."""
        run = self._batch_run
        return 0 if run is None else run[0].pos - run[1]

    @property
    def fused(self) -> bool:
        """Whether :meth:`run_until` uses the fused hot loop."""
        return self._fused

    # -- self-profiling ------------------------------------------------------

    def enable_profiling(self) -> None:
        """Switch :meth:`run_until` to the self-timing loop.

        Accumulates wall-clock time per event kind (the schedule ``label``,
        falling back to the handler's qualified name).  Dispatch order and
        ``events_executed`` are identical to the normal loops — only wall
        time changes, so profiling must stay off for benchmark runs.
        """
        if self._profile is None:
            self._profile = {}

    @property
    def profile(self) -> dict[str, list] | None:
        """Raw ``{kind: [calls, cumulative_seconds]}`` data, or None if off."""
        return self._profile

    # -- scheduling ----------------------------------------------------------

    def schedule(
        self,
        time: float,
        fn: Callable[..., Any],
        priority: int = 0,
        label: str = "",
        args: tuple | None = None,
    ) -> Event:
        """Schedule ``fn`` at absolute simulation time ``time``.

        Scheduling in the past (or at NaN) raises :class:`SimulationError`;
        scheduling at exactly ``now`` is allowed and fires after the current
        handler returns.  ``args`` are passed positionally to ``fn`` at fire
        time — high-rate callers use this instead of allocating a closure
        per event.
        """
        # ``not >=`` rather than ``<``: NaN fails every comparison, so this
        # one test also keeps a NaN time out of the queue and the clock.
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r} before now={self._now!r} "
                f"({label or fn!r})"
            )
        # Manually inlined EventQueue.push — the hottest allocation site
        # outside signal edges (every timer lands here).
        q = self._queue
        seq = q._seq
        ev = Event(time, priority, seq, fn, label, q, args)
        heappush(q._heap, (time, priority, seq, ev))
        q._seq = seq + 1
        q._live += 1
        return ev

    def schedule_in(
        self,
        delay: float,
        fn: Callable[..., Any],
        priority: int = 0,
        label: str = "",
        args: tuple | None = None,
    ) -> Event:
        """Schedule ``fn`` after a non-negative (non-NaN) relative ``delay``."""
        if not delay >= 0:
            raise SimulationError(f"invalid delay {delay!r} for {label or fn!r}")
        q = self._queue
        seq = q._seq
        time = self._now + delay
        ev = Event(time, priority, seq, fn, label, q, args)
        heappush(q._heap, (time, priority, seq, ev))
        q._seq = seq + 1
        q._live += 1
        return ev

    def schedule_fanout(self, cols: tuple, frame: Any) -> None:
        """Schedule the signal edges of one transmit from its survivor columns.

        ``cols`` is ``(radios, powers, delays, ks, bound)`` as
        :class:`~repro.sim.event.EdgeBatch` describes it: receivers in
        ascending delay order, each ``k`` twice the receiver's attach-order
        index, and ``bound`` the :func:`~repro.sim.event.order_bound` of
        ``delays`` and ``ks``.  Receiver ``j`` gets a leading edge
        ``radios[j].signal_start(frame, powers[j])`` at ``now + delays[j]``
        (priority 1, label ``phy.sig_start``) and a trailing edge
        ``radios[j].signal_end(frame.frame_id)`` at ``(now + delays[j]) +
        frame.duration_s`` (priority 0, ``phy.sig_end``).  Each edge takes
        the seq the one-by-one :meth:`schedule` calls for the receivers in
        attach order would give it: start ``k``, end ``k + 1`` past the
        next seq.  Dispatch is so identical: same order, ``now`` set to
        each edge's time, one ``events_executed`` and one
        ``pending_events`` per edge, and the profiler attributes each edge
        to its label.

        When the columns' order is provably the edges' key order, they go
        behind one :class:`~repro.sim.event.EdgeBatch` heap entry and no
        :class:`~repro.sim.event.Event` exists for an edge, so an edge
        cannot be cancelled: energy in flight always arrives.  The proof
        needs every leading edge before every trailing one (the last start
        before the first end, so the frame outlasts its delay spread) and
        every edge time below ``bound``.  Otherwise the edges are those
        :meth:`schedule` calls, made here in attach order.  Delays must be
        non-negative; the earliest is checked.
        """
        radios, powers, delays, ks, bound = cols
        n = len(radios)
        if not n:
            return
        now = self._now
        first = delays[0]
        if not first >= 0.0:
            raise SimulationError(
                f"cannot schedule a signal edge at delay {first!r} "
                f"(now={now!r}, frame {frame.frame_id!r})"
            )
        duration = frame.duration_s
        t = now + first
        last = now + delays[-1]
        if last + duration < bound and last < t + duration:
            q = self._queue
            seq = q._seq
            batch = EdgeBatch(cols, now, duration, frame, seq)
            heappush(q._heap, (t, 1, seq + ks[0], batch))
            q._seq = seq + n + n
            q._live += n + n
            return
        # The same edges, one schedule() call each in attach order: the
        # calls take exactly the seqs the batch's keys would have.
        batch = EdgeBatch(cols, now, duration, frame, self._queue._seq)
        schedule = self.schedule
        for j in sorted(range(n), key=ks.__getitem__):
            for i in (j, n + j):
                t, priority, _ = batch.key(i)
                fn, args, label = batch.edge(i)
                schedule(t, fn, priority, label, args)

    def cancel(self, event: Event | None) -> None:
        """Cancel a previously scheduled event (no-op on None / already done).

        Equivalent to ``event.cancel()`` — queue bookkeeping lives on the
        event itself, so cancelling directly is equally safe.
        """
        if event is not None:
            event.cancel()

    # -- execution -----------------------------------------------------------

    def run_until(self, end_time: float) -> None:
        """Dispatch events in order until the queue drains or ``end_time``.

        The clock is left at ``end_time`` (or the last event time if the
        queue drained earlier and that is later — it cannot be).  A NaN
        ``end_time`` raises :class:`SimulationError`: it would compare false
        against every event time and drain the whole queue.

        Handlers run with the cyclic garbage collector paused
        (:func:`collector_paused`); it is re-enabled when this returns or
        raises, if it was enabled on entry.  Its passes free nothing during
        a run (a run leaves no cyclic garbage; see the module docstring),
        so pausing it only saves their time.  It runs no full collection.
        """
        if isnan(end_time):
            raise SimulationError("run_until horizon is NaN")
        if self._running:
            raise SimulationError("run_until re-entered — simulator is not reentrant")
        self._running = True
        self._stopped = False
        try:
            with collector_paused():
                if self._profile is not None:
                    self._run_profiled(end_time)
                elif self._fused:
                    self._run_fused(end_time)
                else:
                    self._run_reference(end_time)
            if not self._stopped and self._now < end_time:
                # A drained queue still advances the clock to the horizon; a
                # stop() leaves it at the stopping event's time.
                self._now = end_time
        finally:
            self._running = False

    def _run_fused(self, end_time: float) -> None:
        """Hot loop: the ``pop_next`` traversal inlined over the raw heap.

        Semantically identical to calling :meth:`EventQueue.pop_next` per
        event; inlining removes one Python frame per event, which profiling
        showed is measurable at paper scale.  Queue bookkeeping (``_live`` /
        ``_dead``) is maintained exactly as ``pop_next`` does.

        A popped edge batch keeps firing edges straight from its columns
        while the next one sorts before the heap head, lies within
        ``end_time`` and no ``stop()`` came; then it is re-queued under
        that edge's key.  The head's time decides almost every compare;
        the next edge's key tuple is built only on a time tie.  The edges
        of such a run are counted in ``events_executed`` and out of
        ``pending_events`` once, when the run ends: two integer updates per
        run instead of per edge, each of which allocated a new int.  A
        read of either from a handler meanwhile adds the run's progress
        (``batch.pos`` is kept current).
        """
        queue = self._queue
        heap = queue._heap
        while heap:
            entry = heap[0]
            ev = entry[3]
            fn = ev.fn
            if fn is None:
                if ev.__class__ is not EdgeBatch:
                    heappop(heap)  # a cancelled event
                    queue._dead -= 1
                    continue
                t = entry[0]
                if t > end_time:
                    break
                heappop(heap)
                radios, powers, delays, ks, _ = ev.cols
                now0 = ev.now
                duration = ev.duration
                frame = ev.frame
                base = ev.base
                n = ev.n
                m = n + n
                i = first = ev.pos
                self._batch_run = (ev, first)
                try:
                    while True:
                        # Edge i is due at t and leads the queue.
                        ev.pos = i + 1
                        self._now = t
                        if i < n:
                            radios[i].signal_start(frame, powers[i])
                            i += 1
                            if i < n:
                                t = now0 + delays[i]
                            else:
                                t = (now0 + delays[0]) + duration
                        else:
                            j = i - n
                            radios[j].signal_end(frame.frame_id)
                            i += 1
                            if i == m:
                                break
                            t = (now0 + delays[j + 1]) + duration
                        if not self._stopped and t <= end_time:
                            if not heap:
                                continue
                            head = heap[0]
                            if head[0] > t:
                                continue
                        else:
                            head = None
                        if i < n:
                            key = (t, 1, base + ks[i], ev)
                        else:
                            key = (t, 0, base + ks[i - n] + 1, ev)
                        if head is not None and head[0] == t and key < head:
                            continue
                        heappush(heap, key)
                        break
                except BaseException:
                    # A handler raised: the unfired edges stay queued, as
                    # per-edge events would.
                    if ev.pos < m:
                        heappush(heap, (*ev.key(ev.pos), ev))
                    raise
                finally:
                    self._batch_run = None
                    fired = ev.pos - first
                    queue._live -= fired
                    self._events_executed += fired
                if self._stopped:
                    break
                continue
            if entry[0] > end_time:
                break
            heappop(heap)
            queue._live -= 1
            self._now = ev.time
            ev.fn = None  # mark consumed; cheap guard against re-fire
            self._events_executed += 1
            args = ev.args
            if args is None:
                fn()
            else:
                fn(*args)
            if self._stopped:
                break

    def _take_edge(self, batch: EdgeBatch) -> tuple:
        """Advance to ``batch``'s next edge, re-queue the rest, return the
        edge's ``(fn, args, label)``.

        The caller popped the batch (which counted the edge out of
        ``pending_events``) and fires the returned edge.  Shared by the
        reference loop, the profiled loop and :meth:`step`; the fused loop
        inlines the same steps.
        """
        i = batch.pos
        t = batch.key(i)[0]
        batch.pos = i + 1
        if i + 1 < batch.n + batch.n:
            heappush(self._queue._heap, (*batch.key(i + 1), batch))
        self._now = t
        self._events_executed += 1
        return batch.edge(i)

    def _run_profiled(self, end_time: float) -> None:
        """The fused loop with a ``perf_counter`` pair around each dispatch.

        Same event order as :meth:`_run_fused`; attribution is keyed by the
        schedule ``label`` (empty labels fall back to the handler's
        ``__qualname__``), per edge for batched edges.  The timing overhead
        is real wall time — results feed
        :class:`repro.obs.profile.ProfileReport`, never benchmarks.
        """
        queue = self._queue
        profile = self._profile
        assert profile is not None
        pop_next = queue.pop_next
        while True:
            ev = pop_next(end_time)
            if ev is None:
                break
            if ev.__class__ is EdgeBatch:
                fn, args, label = self._take_edge(ev)
            else:
                self._now = ev.time
                fn = ev.fn
                ev.fn = None
                self._events_executed += 1
                args = ev.args
                label = ev.label
            kind = label or getattr(fn, "__qualname__", "") or type(fn).__name__
            t0 = perf_counter()
            if args is None:
                fn()
            else:
                fn(*args)
            dt = perf_counter() - t0
            cell = profile.get(kind)
            if cell is None:
                profile[kind] = [1, dt]
            else:
                cell[0] += 1
                cell[1] += dt
            if self._stopped:
                break

    def _run_reference(self, end_time: float) -> None:
        """The pre-fusion loop (peek, compare, pop) — the dispatch oracle.

        Edge batches fire one edge per iteration, like events.
        """
        queue = self._queue
        while True:
            if self._stopped:
                break
            nxt = queue.peek_time()
            if nxt is None or nxt > end_time:
                break
            ev = queue.pop()
            if ev.__class__ is EdgeBatch:
                fn, args, _ = self._take_edge(ev)
                fn(*args)
                continue
            assert ev is not None and ev.fn is not None
            self._now = ev.time
            fn = ev.fn
            ev.fn = None
            self._events_executed += 1
            args = ev.args
            if args is None:
                fn()
            else:
                fn(*args)

    def step(self) -> bool:
        """Dispatch exactly one event.  Returns False if the queue is empty.

        Calling it from a handler while :meth:`run_until` dispatches raises
        :class:`SimulationError`: the nested event would fire in the middle
        of the current one and move the clock under it.
        """
        if self._running:
            raise SimulationError("step() inside run_until — simulator is not reentrant")
        ev = self._queue.pop()
        if ev is None:
            return False
        if ev.__class__ is EdgeBatch:
            fn, args, _ = self._take_edge(ev)
            fn(*args)
            return True
        assert ev.fn is not None
        self._now = ev.time
        fn = ev.fn
        ev.fn = None
        self._events_executed += 1
        args = ev.args
        if args is None:
            fn()
        else:
            fn(*args)
        return True

    def stop(self) -> None:
        """Request that :meth:`run_until` return after the current handler."""
        self._stopped = True
