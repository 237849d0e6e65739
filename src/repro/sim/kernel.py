"""The simulation kernel: a clock plus an event queue.

Design notes
------------
The kernel is intentionally tiny — all protocol behaviour lives in the PHY /
MAC / routing layers, which interact with the kernel only through
:meth:`Simulator.schedule` / :meth:`Simulator.cancel` and :attr:`Simulator.now`.
That keeps the hot loop (pop event, advance clock, call handler) free of
indirection, which matters: a full paper-scale run executes tens of millions
of events.  Profiling (per the optimisation guide: measure first) showed the
heap operations and handler dispatch dominate, so the hot loop is *fused*:
:meth:`~repro.sim.event.EventQueue.pop_next` folds the historical
``peek_time()`` + ``pop()`` pair into a single heap traversal, and
:meth:`schedule` / :meth:`schedule_in` inline the queue push (one C-level
heap operation per event instead of two Python frames).

The pre-fusion loop survives as ``Simulator(fused=False)`` — the reference
kernel.  Both dispatch the exact same event sequence (same ``(time,
priority, seq)`` total order, same ``events_executed``); the equivalence
suite in ``tests/sim/test_kernel_equivalence.py`` runs whole paper scenarios
through both and compares results field by field.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Callable

from repro.sim.event import Event, EventQueue


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
        """Number of live events still scheduled."""
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
        # Manually inlined EventQueue.push — this is the single hottest
        # allocation site in a run (every signal edge and timer lands here).
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
        queue drained earlier and that is later — it cannot be).
        """
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
        """
        queue = self._queue
        heap = queue._heap
        while heap:
            entry = heap[0]
            ev = entry[3]
            if ev.fn is None:
                heappop(heap)
                queue._dead -= 1
                continue
            if entry[0] > end_time:
                break
            heappop(heap)
            queue._live -= 1
            self._now = ev.time
            fn = ev.fn
            ev.fn = None  # mark consumed; cheap guard against re-fire
            self._events_executed += 1
            args = ev.args
            if args is None:
                fn()
            else:
                fn(*args)
            if self._stopped:
                break

    def _run_profiled(self, end_time: float) -> None:
        """The fused loop with a ``perf_counter`` pair around each dispatch.

        Same event order as :meth:`_run_fused`; attribution is keyed by the
        schedule ``label`` (empty labels fall back to the handler's
        ``__qualname__``).  The timing overhead is real wall time — results
        feed :class:`repro.obs.profile.ProfileReport`, never benchmarks.
        """
        queue = self._queue
        profile = self._profile
        assert profile is not None
        pop_next = queue.pop_next
        while True:
            ev = pop_next(end_time)
            if ev is None:
                break
            self._now = ev.time
            fn = ev.fn
            ev.fn = None
            self._events_executed += 1
            kind = ev.label or getattr(fn, "__qualname__", "") or type(fn).__name__
            args = ev.args
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
        """The pre-fusion loop (peek, compare, pop) — the dispatch oracle."""
        queue = self._queue
        while True:
            if self._stopped:
                break
            nxt = queue.peek_time()
            if nxt is None or nxt > end_time:
                break
            ev = queue.pop()
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
