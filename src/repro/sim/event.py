"""Event primitives for the discrete-event kernel.

Events are ordered by ``(time, priority, sequence)``.  The monotonically
increasing sequence number guarantees a *stable, deterministic* ordering for
events scheduled at the same instant — a property the MAC layer relies on
(e.g. a carrier-sense BUSY edge must be observed before a same-instant
backoff expiry fires in scheduling order).

Performance note: the heap stores plain ``(time, priority, seq, event)``
tuples so ordering comparisons run entirely in C tuple comparison — the
unique ``seq`` guarantees the :class:`Event` object itself is never compared.
Profiling showed a dataclass ``__lt__`` here cost ~40 % of total runtime on
paper-scale runs.  In place of an event, an entry may hold an
:class:`EdgeBatch`: the uncancellable signal edges of one transmit, kept
as the channel's survivor columns behind one entry keyed by the next of
them, so most signal edges cost no heap operation and no object of their
own.  :func:`order_bound` is the proof that column order is key order,
which a batch needs; :func:`fanout_columns` builds the columns and the
bound from survivor rows.

Cancellation is O(1) lazy: a cancelled event stays in the heap but is skipped
when popped.  This is the standard approach for simulators with heavy timer
churn (every MAC frame sets and usually cancels a timeout).  Two refinements
keep that approach honest on paper-scale runs:

* **Self-contained bookkeeping.**  :meth:`Event.cancel` notifies its owning
  queue directly, so ``len(queue)`` stays correct no matter which layer
  cancels.
* **Periodic compaction.**  Lazily-cancelled entries are purged wholesale
  (filter + ``heapify``) once they outnumber live entries, so pop cost
  cannot degrade on long runs where timers are set and cancelled millions
  of times.  Compaction never reorders dispatch: ``(time, priority, seq)``
  is a total order, so any heap arrangement pops the same sequence.
"""

from __future__ import annotations

import heapq
import math
from operator import itemgetter
from typing import Any, Callable

#: Compaction trigger: purge cancelled heap entries once at least this many
#: have accumulated *and* they outnumber the live entries.  The floor keeps
#: tiny queues from compacting constantly; the ratio bounds amortised cost.
COMPACT_MIN_DEAD = 512


class Event:
    """A scheduled callback.

    Attributes:
        time: absolute simulation time at which the event fires [s].
        priority: tie-break rank; lower fires first at equal time.
        seq: insertion sequence number (assigned by the queue).
        fn: callable invoked when the event fires.
        args: positional arguments for ``fn`` (None = call with none).
            Passing the target method plus its arguments avoids allocating a
            per-event closure or wrapper object on high-rate schedule sites
            (each signal edge of every frame lands here).
        label: human-readable tag for traces and debugging.
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "label", "_queue")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        fn: Callable[..., Any] | None,
        label: str = "",
        queue: "EventQueue | None" = None,
        args: tuple | None = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.label = label
        self._queue = queue

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called (or the event fired)."""
        return self.fn is None

    def cancel(self) -> None:
        """Cancel the event; it is skipped when its heap entry surfaces.

        Bookkeeping is self-contained: the owning queue's live count is
        updated here, exactly once, so calling ``cancel`` directly (instead
        of through :meth:`Simulator.cancel`) cannot corrupt ``len(queue)``.
        Cancelling an already-fired or already-cancelled event is a no-op.
        """
        if self.fn is None:
            return
        self.fn = None
        q = self._queue
        if q is not None:
            q._note_dead()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "live"
        return f"Event(t={self.time!r}, {self.label or 'anon'}, {state})"


#: Event labels of a signal's leading and trailing edge.
SIG_START = "phy.sig_start"
SIG_END = "phy.sig_end"

#: ``order_bound`` scale: two delays ``g`` apart keep their order through
#: ``(now + d) + duration`` while that sum stays below ``g * 2**50``.
_ORDER_SCALE = 2.0**50

#: Sort key of a survivor row ``(rx, rx_power, delay, k)``: its delay.
_DELAY = itemgetter(2)


def order_bound(delays, ks) -> float:
    """The largest edge time under which a batch of these columns is ordered.

    ``delays`` are the survivors' delays in the batch's (ascending) order
    and ``ks`` their seq offsets.  A batch fires its edges in column order,
    which is their ``(time, priority, seq)`` order unless float rounding
    ties two distinct delays that come in seq-descending order: then the
    tie would put the later column first.  Each time is ``now + d`` (or
    ``(now + d) + duration``), two roundings of at most half an ulp, so
    columns whose delays differ by ``g`` stay apart while every time is
    below ``g * 2**50`` (4 to 8 ulp of it).  The result is that limit for
    the smallest such gap, ``inf`` when there is none, and 0.0 when no
    batch can be proven: delays out of order (or NaN), or an equal delay
    in seq-descending order.  Equal delays in seq order tie exactly, and
    the tie then breaks by seq in column order too.
    """
    bound = math.inf
    prev_d = -math.inf
    prev_k = -1
    for d, k in zip(delays, ks):
        if not d >= prev_d:
            return 0.0
        if k < prev_k:
            if d == prev_d:
                return 0.0
            gap = (d - prev_d) * _ORDER_SCALE
            if gap < bound:
                bound = gap
        prev_d = d
        prev_k = k
    return bound


def fanout_columns(rows: list) -> tuple:
    """Survivor rows ``(rx, rx_power, delay, k)`` as :class:`EdgeBatch` columns.

    Returns ``(radios, powers, delays, ks, bound)``: the rows sorted by
    delay (in place, and stably, so equal delays keep their order), split
    into tuples, and the :func:`order_bound` of the delays and seq
    offsets.  ``k`` is twice the row's attach-order index.
    """
    rows.sort(key=_DELAY)
    radios, powers, delays, ks = tuple(zip(*rows)) or ((), (), (), ())
    return radios, powers, delays, ks, order_bound(delays, ks)


class EdgeBatch:
    """The signal edges of one transmit, behind one heap entry.

    ``cols`` is ``(radios, powers, delays, ks, bound)``: one column entry
    per receiver, in ascending delay order, with ``ks`` its seq offset
    (twice its attach-order index) and ``bound`` the :func:`order_bound`
    of the delays.  The batch adds ``now``, the frame, its ``duration``
    and ``base``, the first seq it claimed.  With ``n`` receivers it holds
    ``2n`` edges, never built as objects:

    * edge ``j < n``, the leading edge: ``radios[j].signal_start(frame,
      powers[j])`` at ``now + delays[j]``, priority 1, seq ``base +
      ks[j]``;
    * edge ``n + j``, the trailing edge: ``radios[j].signal_end(frame_id)``
      at ``(now + delays[j]) + duration``, priority 0, seq ``base + ks[j]
      + 1``.

    These are the float operations and seqs of the one-by-one
    ``schedule`` calls the batch stands for.
    :meth:`repro.sim.kernel.Simulator.schedule_fanout` takes a batch only
    when column order is provably key order, so ``pos`` (the next edge to
    fire) just counts up.  The batch sits in the heap under that edge's
    key, so it surfaces exactly when a per-edge :class:`Event` with the
    same key would.

    ``fn`` is always None: the loops already test ``fn is None`` to skip
    cancelled events, so batches share that one test and are told apart by
    class only off the common path.  A batch is never dead.
    """

    __slots__ = ("cols", "now", "duration", "frame", "base", "n", "pos")

    fn = None

    def __init__(self, cols: tuple, now: float, duration: float, frame, base: int) -> None:
        self.cols = cols
        self.now = now
        self.duration = duration
        self.frame = frame
        self.base = base
        self.n = len(cols[0])
        self.pos = 0

    def key(self, i: int) -> tuple[float, int, int]:
        """The ``(time, priority, seq)`` key of edge ``i``."""
        n = self.n
        delays = self.cols[2]
        ks = self.cols[3]
        if i < n:
            return (self.now + delays[i], 1, self.base + ks[i])
        j = i - n
        return ((self.now + delays[j]) + self.duration, 0, self.base + ks[j] + 1)

    def edge(self, i: int) -> tuple[Callable[..., Any], tuple, str]:
        """``(fn, args, label)`` of edge ``i``."""
        n = self.n
        if i < n:
            return self.cols[0][i].signal_start, (self.frame, self.cols[1][i]), SIG_START
        return self.cols[0][i - n].signal_end, (self.frame.frame_id,), SIG_END

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EdgeBatch({2 * self.n - self.pos} of {2 * self.n} left)"


def _is_dead(item: "Event | EdgeBatch") -> bool:
    """Whether a heap item is a cancelled event (batches never are)."""
    return item.fn is None and item.__class__ is not EdgeBatch


class EventQueue:
    """A binary-heap priority queue of :class:`Event` objects.

    The heap also holds :class:`EdgeBatch` entries, pushed by
    :meth:`repro.sim.kernel.Simulator.schedule_fanout`.  :meth:`pop`
    returns such a batch with its entry removed and its next edge already
    counted out of ``len``; the caller fires that one edge and re-queues the
    rest.  ``len`` counts every unfired edge as one event.
    """

    __slots__ = ("_heap", "_seq", "_live", "_dead")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._live = 0
        #: Cancelled entries still sitting in the heap (compaction trigger).
        self._dead = 0

    def push(
        self,
        time: float,
        fn: Callable[..., Any],
        *,
        priority: int = 0,
        label: str = "",
        args: tuple | None = None,
    ) -> Event:
        """Schedule ``fn`` at absolute time ``time`` and return the event."""
        seq = self._seq
        ev = Event(time, priority, seq, fn, label, self, args)
        heapq.heappush(self._heap, (time, priority, seq, ev))
        self._seq = seq + 1
        self._live += 1
        return ev

    def pop(self) -> Event | EdgeBatch | None:
        """Remove and return the earliest live item, or None if empty.

        Cancelled events are discarded transparently.
        """
        heap = self._heap
        while heap:
            item = heapq.heappop(heap)[3]
            if _is_dead(item):
                self._dead -= 1
                continue
            self._live -= 1
            return item
        return None

    def peek_time(self) -> float | None:
        """Time of the earliest live event without removing it."""
        heap = self._heap
        while heap and _is_dead(heap[0][3]):
            heapq.heappop(heap)
            self._dead -= 1
        return heap[0][0] if heap else None

    def compact(self) -> None:
        """Purge every cancelled entry from the heap in one pass.

        O(n) filter + heapify.  Dispatch order is unaffected: entries are
        totally ordered by ``(time, priority, seq)``, so rebuilding the heap
        cannot change the pop sequence.
        """
        if self._dead == 0:
            return
        heap = self._heap
        # In-place (slice assignment, not rebinding): the kernel's hot loop
        # holds a direct reference to the heap list across handler calls,
        # and a handler's cancellations can trigger compaction mid-run.
        heap[:] = [entry for entry in heap if not _is_dead(entry[3])]
        heapq.heapify(heap)
        self._dead = 0

    def _note_dead(self) -> None:
        """Internal: an in-heap event was cancelled (called by Event.cancel)."""
        self._live -= 1
        self._dead += 1
        if self._dead >= COMPACT_MIN_DEAD and self._dead > len(self._heap) // 2:
            self.compact()

    def __len__(self) -> int:
        """Number of live (non-cancelled) events."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

