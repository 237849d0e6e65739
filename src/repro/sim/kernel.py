"""The simulation kernel: a clock plus an event queue.

Design notes
------------
The kernel is intentionally tiny — all protocol behaviour lives in the PHY /
MAC / routing layers, which interact with the kernel only through
:meth:`Simulator.schedule` / :meth:`Simulator.cancel` and :attr:`Simulator.now`
(the channel also hands over signal edges via
:meth:`Simulator.schedule_edges`).  That keeps the hot loop (pop event,
advance clock, call handler) free of indirection, which matters: a full
paper-scale run executes tens of millions of events.  Profiling (per the
optimisation guide: measure first) showed the heap operations and handler
dispatch dominate, so the hot loop is *fused*:
:meth:`~repro.sim.event.EventQueue.pop_next` folds the historical
``peek_time()`` + ``pop()`` pair into a single heap traversal, and
:meth:`schedule` / :meth:`schedule_in` inline the queue push (one C-level
heap operation per event instead of two Python frames).

Signal edges, ~96 % of a paper run's events, skip most of the per-event
cost: the channel hands over all edges of one transmit as one
:class:`~repro.sim.event.EdgeBatch`, which holds a single heap entry keyed
by its next edge.  The fused loop keeps firing a popped batch's edges while
the next one still sorts before the heap head, so most edges cost no
:class:`~repro.sim.event.Event` and no heap operation.

The pre-fusion loop survives as ``Simulator(fused=False)`` — the reference
kernel.  Both dispatch the exact same event sequence (same ``(time,
priority, seq)`` total order, same ``events_executed``); the equivalence
suite in ``tests/sim/test_kernel_equivalence.py`` runs scripted workloads
and whole paper scenarios through both and compares results field by field.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import isnan
from time import perf_counter
from typing import Any, Callable

from repro.sim.event import EdgeBatch, Event, EventQueue


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, running twice...)."""


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
    )

    def __init__(self, *, fused: bool = True) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._running = False
        self._stopped = False
        self._events_executed = 0
        self._fused = fused
        self._profile: dict[str, list] | None = None

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time [s]."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Total number of events dispatched so far (for perf accounting)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of live events still scheduled (each unfired edge counts)."""
        return len(self._queue)

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

    @property
    def next_seq(self) -> int:
        """Sequence number the next scheduled event or edge takes.

        :meth:`schedule_edges` callers number their edges from here.
        """
        return self._queue._seq

    def schedule_edges(self, edges: list[tuple]) -> None:
        """Schedule an uncancellable batch of edges under one heap entry.

        ``edges`` are ``(time, priority, seq, fn, args, label)`` tuples in
        the order the caller would otherwise pass them to :meth:`schedule`
        one by one, numbered ``next_seq``, ``next_seq + 1``, ... in that
        order.  Each edge so keeps the key that call would give it, and
        dispatch is identical: same order, ``now`` set to each edge's time,
        one ``events_executed`` and one ``pending_events`` per edge, and the
        profiler attributes each edge to its ``label``.  No
        :class:`~repro.sim.event.Event` exists for an edge, so an edge
        cannot be cancelled: batch only edges that must always fire.

        ``args`` must be a tuple.  Times must be finite and ``>= now``; the
        earliest is checked.  The list is sorted in place and belongs to
        the kernel from then on.
        """
        n = len(edges)
        if not n:
            return
        q = self._queue
        seq = q._seq
        if edges[0][2] != seq or edges[-1][2] != seq + n - 1:
            raise SimulationError(
                f"edge seqs {edges[0][2]}..{edges[-1][2]} must run from "
                f"next_seq {seq} to {seq + n - 1}"
            )
        edges.sort()
        first = edges[0]
        if not first[0] >= self._now:
            raise SimulationError(
                f"cannot schedule an edge at t={first[0]!r} before "
                f"now={self._now!r} ({first[5] or first[3]!r})"
            )
        heappush(q._heap, (first[0], first[1], first[2], EdgeBatch(edges)))
        q._seq = seq + n
        q._live += n

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
        """
        if isnan(end_time):
            raise SimulationError("run_until horizon is NaN")
        if self._running:
            raise SimulationError("run_until re-entered — simulator is not reentrant")
        self._running = True
        self._stopped = False
        try:
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

        A popped edge batch keeps firing edges while the next one sorts
        before the heap head (a plain tuple compare: seqs are unique), lies
        within ``end_time`` and no ``stop()`` came; then it is re-queued
        under that edge's key.
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
                if entry[0] > end_time:
                    break
                heappop(heap)
                edges = ev.edges
                i = ev.pos
                n = len(edges)
                try:
                    while True:
                        edge = edges[i]
                        i += 1
                        queue._live -= 1
                        self._now = edge[0]
                        self._events_executed += 1
                        edge[3](*edge[4])
                        if i == n:
                            break
                        nxt = edges[i]
                        if (
                            self._stopped
                            or nxt[0] > end_time
                            or (heap and heap[0] < nxt)
                        ):
                            ev.pos = i
                            heappush(heap, (nxt[0], nxt[1], nxt[2], ev))
                            break
                except BaseException:
                    # A handler raised: the unfired edges stay queued, as
                    # per-edge events would.
                    if i < n:
                        ev.pos = i
                        nxt = edges[i]
                        heappush(heap, (nxt[0], nxt[1], nxt[2], ev))
                    raise
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
        """Advance to ``batch``'s next edge, re-queue the rest, return it.

        The caller popped the batch (which counted the edge out of
        ``pending_events``) and fires the returned edge.  Shared by the
        reference loop, the profiled loop and :meth:`step`; the fused loop
        inlines the same steps.
        """
        edges = batch.edges
        i = batch.pos
        edge = edges[i]
        i += 1
        if i < len(edges):
            batch.pos = i
            nxt = edges[i]
            heappush(self._queue._heap, (nxt[0], nxt[1], nxt[2], batch))
        self._now = edge[0]
        self._events_executed += 1
        return edge

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
                _, _, _, fn, args, label = self._take_edge(ev)
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
                edge = self._take_edge(ev)
                edge[3](*edge[4])
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
        """Dispatch exactly one event.  Returns False if the queue is empty."""
        ev = self._queue.pop()
        if ev is None:
            return False
        if ev.__class__ is EdgeBatch:
            edge = self._take_edge(ev)
            edge[3](*edge[4])
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
