"""Campaign executor: fan specs out to a worker pool, memoise in a store.

The executor is deliberately dumb about *what* it runs: a spec is a sealed
description, the worker just calls :meth:`RunSpec.run`.  Determinism falls
out of the spec design — every cell carries its own seed and the simulator
is single-threaded per run — so a campaign at ``jobs=8`` produces results
identical to the serial path, merely sooner.  Results are keyed by content
hash, which also makes the executor indifferent to completion order.

``jobs=1`` bypasses ``multiprocessing`` entirely (no pickling, no fork), so
the serial path stays debuggable and usable on platforms without working
process pools.

Live telemetry (``telemetry=...``) swaps the worker entry point for
:func:`repro.obs.telemetry.run_with_heartbeat`: each cell runs in sim-time
slices and streams :class:`~repro.obs.telemetry.RunProgress` heartbeats
back to the parent (over a manager queue in the pooled case), which also
records per-run runtime stats into the store.  Results are bit-identical
either way — slicing ``run_until`` does not change the dispatch order.

Failure containment
-------------------
A cell that raises does not kill the campaign: the worker catches the
exception and ships a structured error back, the parent retries it up to
``retries`` times with exponential backoff, and a cell that fails every
attempt is recorded in the store as an error line (``ResultStore.put_error``
— key, spec, exception kind/message/traceback, attempt count) while the
remaining cells run to completion.  In the pooled path ``timeout_s`` bounds
each cell's wall time; a hung (or hard-killed) worker is detected at the
deadline, the pool is torn down and rebuilt, the overdue cell is charged an
attempt, and innocent in-flight cells are resubmitted for free.  A
``should_stop`` callback makes shutdown cooperative: once it returns True no
new cell starts, in-flight cells drain, and the report covers everything
that finished — the store then resumes the rest on the next invocation.

Fleet mode
----------
``fleet=True`` swaps the worker pool for the fault-tolerant fleet
(:mod:`repro.fleet`): pending cells are **enqueued** into the store's
durable work queue, ``jobs`` supervised worker processes claim them under
expiring leases, and the parent **drains** — polling the store and
recording results/errors exactly as the serial and pooled paths do, so
``run_specs``' API, progress lines, and telemetry are preserved.  The
difference is what survives: a SIGKILLed worker's lease lapses and a
sibling steals the run; a dead worker process is respawned (bounded) by
the parent; external ``repro fleet work`` processes — same machine or a
shared filesystem — can join the same queue and their results are picked
up here; and identical cells from overlapping campaigns are executed once
and shared through the content-addressed store.
"""

from __future__ import annotations

import gc
import multiprocessing
import signal
import sys
import threading
import time
import traceback as _traceback
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.campaign.spec import Campaign, RunSpec
from repro.campaign.store import ResultStore
from repro.obs.telemetry import DEFAULT_SLICES, TelemetryFn, run_with_heartbeat

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.scenario import ExperimentResult

ProgressFn = Callable[[str], None]
StopFn = Callable[[], bool]


#: Largest traceback stored in an error record [chars].  Hung or killed
#: workers can surface tracebacks through arbitrarily deep retry wrappers;
#: bounding keeps the store's JSONL lines small and greppable.
MAX_TRACEBACK_CHARS = 4000


def _bound_traceback(text: str, limit: int = MAX_TRACEBACK_CHARS) -> str:
    """Cap ``text`` at ``limit`` chars, keeping the head and the tail.

    The head names the call site, the tail names the exception — the middle
    frames are the expendable part, replaced by an elision marker that
    records how much was cut.
    """
    if len(text) <= limit:
        return text
    half = (limit - 60) // 2
    elided = len(text) - 2 * half
    return (
        text[:half]
        + f"\n... [{elided} chars elided] ...\n"
        + text[-half:]
    )


def error_record(
    exc: BaseException, attempts: int, *, label: str | None = None
) -> dict:
    """Structured description of a cell's permanent failure.

    This is the shape :meth:`ResultStore.put_error` persists and
    :attr:`CampaignReport.errors` carries: exception kind, message,
    bounded traceback (head + tail, capped at
    :data:`MAX_TRACEBACK_CHARS`), how many attempts were made, and — when
    the caller knows it — the spec's human label, so error lines from
    hung or killed workers stay greppable by cell.
    """
    record = {
        "kind": type(exc).__name__,
        "message": str(exc),
        "traceback": _bound_traceback(
            "".join(
                _traceback.format_exception(type(exc), exc, exc.__traceback__)
            )
        ),
        "attempts": attempts,
    }
    if label is not None:
        record["label"] = label
    return record


def _execute_safe(
    args: tuple[RunSpec, str, int | None],
) -> tuple[str, str, object, dict | None]:
    """Pooled worker entry point that never raises.

    Runs one cell (with heartbeats when ``slices`` is not None) and returns
    ``("ok", key, result, runtime)`` — or catches the exception and returns
    ``("err", key, error_dict, None)`` so one bad cell cannot poison the
    pool's result stream.  ``key`` is the cell's content key, computed
    once by the parent and passed through.
    """
    spec, key, slices = args
    try:
        if slices is None:
            return ("ok", key, spec.run(), None)
        queue = _WORKER_QUEUE
        emit = queue.put if queue is not None else (lambda progress: None)
        result, runtime = run_with_heartbeat(spec, emit, slices=slices)
        return ("ok", key, result, runtime)
    except Exception as exc:  # noqa: BLE001 - containment is the point
        return ("err", key, error_record(exc, attempts=0, label=spec.label()), None)


#: Longest the pooled loop waits for a completion [s].  While no cell
#: finishes, this bounds how late a stop request, a backed-off retry or an
#: overdue cell is noticed.
_POLL_S = 0.02

#: Per-worker heartbeat queue, installed by the pool initializer.
_WORKER_QUEUE = None


def _init_worker(queue=None) -> None:
    """Pool initializer: shield the worker from SIGINT and stash the
    parent's heartbeat queue (None when telemetry is off).

    Ctrl-C reaches the whole foreground process group; ignoring it in
    workers lets in-flight cells finish while the parent's ``should_stop``
    drains the campaign cooperatively.

    SIGTERM must go back to SIG_DFL: forked workers inherit whatever
    handler the parent CLI installed, and an inherited no-kill handler
    would neuter ``Pool.terminate()`` — the parent would then block
    forever in ``pool.join()`` waiting on an unkillable worker.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # The parent's heap is inherited, not garbage: keep full passes off it.
    gc.freeze()
    global _WORKER_QUEUE
    _WORKER_QUEUE = queue


def _start_method() -> str:
    """Fork on Linux (cheap), spawn everywhere else.

    macOS nominally offers fork too, but forking a process that has touched
    the system frameworks (numpy links Accelerate) can deadlock — the reason
    CPython made spawn the macOS default in 3.8.  Workers are re-imported
    under spawn, which is safe here: the worker entry point is module-level
    and ``repro.__main__`` guards its CLI dispatch.
    """
    return "fork" if sys.platform.startswith("linux") else "spawn"


@dataclass
class CampaignReport:
    """Outcome of one campaign invocation."""

    #: spec key → result, covering every requested cell.
    results: dict[str, "ExperimentResult"] = field(default_factory=dict)
    #: Cells actually simulated this invocation.
    executed: int = 0
    #: Cells served from the store without simulation.
    cached: int = 0
    #: Wall-clock time of the whole invocation [s].
    wallclock_s: float = 0.0
    #: spec key → :func:`error_record` for cells that failed every attempt.
    errors: dict[str, dict] = field(default_factory=dict)
    #: True when a ``should_stop`` callback ended the campaign early —
    #: cells neither in ``results`` nor ``errors`` were simply not started.
    stopped: bool = False

    @property
    def total(self) -> int:
        """Requested cell count (executed + cached)."""
        return self.executed + self.cached

    def in_spec_order(self, specs: Sequence[RunSpec]) -> list["ExperimentResult"]:
        """Results reordered to match ``specs`` (the grid's nesting order)."""
        return [self.results[spec.key()] for spec in specs]


def run_specs(
    specs: Sequence[RunSpec],
    *,
    jobs: int = 1,
    store: ResultStore | None = None,
    resume: bool = True,
    progress: ProgressFn | None = None,
    telemetry: TelemetryFn | None = None,
    slices: int = DEFAULT_SLICES,
    timeout_s: float | None = None,
    retries: int = 0,
    backoff_s: float = 0.5,
    should_stop: StopFn | None = None,
    fleet: bool = False,
    lease_ttl_s: float | None = None,
) -> CampaignReport:
    """Execute every spec, reusing stored results where possible.

    Args:
        specs: the cells to ensure results for (duplicates collapse).
        jobs: worker process count; 1 = run serially in this process.
        store: optional on-disk memo; finished cells are appended as they
            complete, so an interrupted campaign resumes on the next call.
        resume: when False, stored results are ignored (and overwritten) —
            every cell is re-simulated, and a result that differs from the
            stored one replaces it.
        progress: optional callback receiving one line per finished cell;
            after its ``[n/m]``, ``[cached]`` or ``[failed]`` tag comes the
            first 8 hex digits of the cell's content key, so cells that
            differ in a slot the rest of the line leaves out differ too.
        telemetry: optional callback receiving
            :class:`~repro.obs.telemetry.RunProgress` heartbeats while
            cells execute (live progress).  Enables per-run runtime stats
            in the store.  Called from a drainer thread when ``jobs > 1``.
        slices: heartbeats per run when telemetry is on.
        timeout_s: per-cell wall-clock budget (pooled path only — a single
            process cannot interrupt its own run).  An overdue cell is
            treated as a crashed attempt: the pool is rebuilt and the cell
            retried or recorded as an error.
        retries: extra attempts per failing cell before it is recorded as
            a permanent error (0 = record on the first failure).
        backoff_s: base delay before a retry; attempt ``n`` waits
            ``backoff_s * 2**(n-1)``.
        should_stop: cooperative-shutdown poll — once it returns True no
            new cell starts; in-flight cells drain and the report's
            ``stopped`` flag is set.
        fleet: route pending cells through the durable fleet queue
            (lease-based work-stealing, supervised workers, shared
            content-addressed cache) instead of a plain pool.  Requires a
            ``store``; ``retries`` maps to the fleet's per-run attempt
            budget (``retries + 1`` claims) and ``timeout_s`` is
            subsumed by lease expiry.
        lease_ttl_s: fleet-mode lease validity window [s] (None = the
            fleet default); leases are renewed every telemetry slice.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs!r}")
    if fleet and store is None:
        raise ValueError("fleet=True requires a store (the queue lives in it)")
    t0 = time.perf_counter()
    report = CampaignReport()

    #: (content key, spec) of every cell to simulate: the key is computed
    #: once here and carried to the workers and the store.
    pending: list[tuple[str, RunSpec]] = []
    seen: set[str] = set()
    for spec in specs:
        key = spec.key()
        if key in seen:
            continue
        seen.add(key)
        cached = store.get(key) if (store is not None and resume) else None
        if cached is not None:
            report.results[key] = cached
            report.cached += 1
            if progress is not None:
                progress(f"[cached] {key[:8]} {cached.row()}  seed={cached.seed}")
        else:
            pending.append((key, spec))

    def record(
        spec: RunSpec,
        key: str,
        result: "ExperimentResult",
        runtime: dict | None = None,
        *,
        persist: bool = True,
    ) -> None:
        report.results[key] = result
        report.executed += 1
        if store is not None and persist:
            store.put(spec, result, runtime=runtime, key=key)
        if progress is not None:
            progress(
                f"[{report.executed}/{len(pending)}] {key[:8]} {result.row()}"
                f"  seed={result.seed}"
            )

    def record_error(
        spec: RunSpec, key: str, error: dict, *, persist: bool = True
    ) -> None:
        report.errors[key] = error
        if store is not None and persist:
            store.put_error(spec, error, key=key)
        if progress is not None:
            progress(
                f"[failed] {key[:8]} {spec.protocol} load={spec.load_kbps} "
                f"seed={spec.seed}: {error['kind']}: {error['message']} "
                f"(attempts={error['attempts']})"
            )

    def stopping() -> bool:
        if should_stop is not None and should_stop():
            report.stopped = True
            return True
        return False

    if fleet:
        _run_fleet(
            pending,
            jobs=jobs,
            store=store,
            report=report,
            record=record,
            record_error=record_error,
            stopping=stopping,
            telemetry=telemetry,
            slices=slices,
            retries=retries,
            lease_ttl_s=lease_ttl_s,
        )
    elif jobs == 1 or len(pending) <= 1:
        for key, spec in pending:
            if stopping():
                break
            attempt = 0
            while True:
                attempt += 1
                try:
                    if telemetry is not None:
                        result, runtime = run_with_heartbeat(
                            spec, telemetry, slices=slices
                        )
                        record(spec, key, result, runtime)
                    else:
                        record(spec, key, spec.run())
                    break
                except Exception as exc:  # noqa: BLE001 - containment
                    if attempt > retries or stopping():
                        record_error(
                            spec,
                            key,
                            error_record(exc, attempt, label=spec.label()),
                        )
                        break
                    time.sleep(backoff_s * 2 ** (attempt - 1))
    else:
        _run_pooled(
            pending,
            jobs=jobs,
            record=record,
            record_error=record_error,
            stopping=stopping,
            telemetry=telemetry,
            slices=slices,
            timeout_s=timeout_s,
            retries=retries,
            backoff_s=backoff_s,
        )

    report.wallclock_s = time.perf_counter() - t0
    return report


def _fleet_worker_entry(
    store_root: str,
    options: dict,
    queue=None,
) -> None:
    """Entry point of one fleet worker process (module-level: picklable).

    Reconstructs the shared store/queue from the filesystem and runs the
    claim loop until the queue drains or a STOP is requested.  Signal
    policy matches the pool workers: SIGINT ignored (the parent drains
    cooperatively), SIGTERM back to SIG_DFL so the parent can reap a
    stuck worker.
    """
    from repro.fleet.queue import WorkQueue
    from repro.fleet.worker import FleetWorker

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    store = ResultStore(store_root)
    work_queue = WorkQueue(store.root / "fleet")
    telemetry = queue.put if queue is not None else None
    FleetWorker(
        store,
        work_queue,
        lease_ttl_s=options["lease_ttl_s"],
        max_attempts=options["max_attempts"],
        slices=options["slices"],
        telemetry=telemetry,
    ).run()


def _run_fleet(
    pending: Sequence[tuple[str, RunSpec]],
    *,
    jobs: int,
    store: ResultStore,
    report: CampaignReport,
    record: Callable,
    record_error: Callable,
    stopping: StopFn,
    telemetry: TelemetryFn | None,
    slices: int,
    retries: int,
    lease_ttl_s: float | None,
) -> None:
    """Enqueue-then-drain through the durable fleet queue.

    The parent never executes cells: it enqueues them, spawns ``jobs``
    supervised worker processes, and polls the store — recording each key
    the moment some worker (ours or anyone else's on the shared
    filesystem) lands its result.  Worker death is survivable twice over:
    the dead worker's leases lapse and are stolen by siblings, and the
    parent respawns missing processes (bounded) while claimable work
    remains.  A cooperative stop raises the queue's STOP flag: workers
    finish their current run and exit; unclaimed tasks stay queued for
    the next invocation to resume.  With nothing pending (a fully cached
    resubmission) it touches neither the queue nor any worker.
    """
    if not pending:
        return
    from repro.fleet.queue import DEFAULT_LEASE_TTL_S, WorkQueue

    work_queue = WorkQueue(store.root / "fleet")
    work_queue.clear_stop()
    for _, spec in pending:
        work_queue.enqueue(spec)
    by_key = dict(pending)

    options = {
        "lease_ttl_s": lease_ttl_s or DEFAULT_LEASE_TTL_S,
        "max_attempts": retries + 1,
        "slices": slices,
    }
    ctx = multiprocessing.get_context(_start_method())
    manager = queue = drainer = None
    if telemetry is not None:
        manager = ctx.Manager()
        queue = manager.Queue()

        def drain() -> None:
            while True:
                item = queue.get()
                if item is None:
                    return
                telemetry(item)

        drainer = threading.Thread(target=drain, daemon=True)
        drainer.start()

    def spawn():
        proc = ctx.Process(
            target=_fleet_worker_entry,
            args=(str(store.root), options, queue),
        )
        proc.start()
        return proc

    workers = [spawn() for _ in range(max(1, min(jobs, len(pending))))]
    #: Supervision budget: a crashed worker is replaced, but a hard fault
    #: that kills every replacement cannot respawn forever.
    respawns_left = 2 * len(workers)
    done: set[str] = set()
    stop_sent = False
    try:
        while len(done) < len(by_key):
            if not stop_sent and stopping():
                work_queue.request_stop()
                stop_sent = True
            store.refresh()
            for key, spec in by_key.items():
                if key in done:
                    continue
                result = store.get(key)
                if result is not None:
                    # The worker already persisted it — report only.
                    record(
                        spec, key, result,
                        store.runtime_stats(key) or None,
                        persist=False,
                    )
                    done.add(key)
                    continue
                error = store.error(key)
                if error is not None and work_queue.task(key) is None:
                    # Terminal: the error is recorded AND the task retired
                    # (an error line alone may predate a re-enqueue).  The
                    # worker already persisted it — report only.
                    record_error(spec, key, error, persist=False)
                    done.add(key)
            alive = [w for w in workers if w.is_alive()]
            if not stop_sent and len(done) < len(by_key):
                for i, proc in enumerate(workers):
                    if (
                        not proc.is_alive()
                        and not work_queue.drained()
                        and respawns_left > 0
                    ):
                        respawns_left -= 1
                        workers[i] = spawn()
                        alive.append(workers[i])
            if not alive:
                if stop_sent:
                    break
                if not work_queue.drained() and respawns_left <= 0:
                    # Every worker (and every replacement) died with work
                    # still queued: stop rather than spin forever.  The
                    # unfinished cells stay queued for a resume.
                    report.stopped = True
                    break
                # Queue drained with workers gone: the remaining keys are
                # terminal on disk — the next refresh records them.
            if len(done) < len(by_key):
                time.sleep(0.05)
    finally:
        for proc in workers:
            proc.join(timeout=10.0)
            if proc.is_alive():  # pragma: no cover - defensive teardown
                proc.terminate()
                proc.join()
        # Our STOP must not wedge external `repro fleet work` processes
        # that outlive this invocation.
        if stop_sent:
            work_queue.clear_stop()
        if queue is not None:
            queue.put(None)
            drainer.join()
            manager.shutdown()


def _run_pooled(
    pending: Sequence[tuple[str, RunSpec]],
    *,
    jobs: int,
    record: Callable,
    record_error: Callable,
    stopping: StopFn,
    telemetry: TelemetryFn | None,
    slices: int,
    timeout_s: float | None,
    retries: int,
    backoff_s: float,
) -> None:
    """Bounded-submission pool loop with retry, timeout, and clean drain.

    Cells are submitted via ``apply_async`` (at most ``jobs`` in flight) so
    the parent can watch each cell's wall clock.  The loop is driven by
    completions: each submission's callback sets an event the loop waits
    on (for at most :data:`_POLL_S`), and a finished cell's replacement is
    submitted before the parent stores and reports the finished result, so
    no worker idles through the parent's fsync'd put.  A cell whose worker
    raised comes back as a structured error (see :func:`_execute_safe`) and
    is retried with exponential backoff; a cell that blows ``timeout_s``
    means a hung or hard-killed worker, which ``Pool`` cannot surface — the
    whole pool is terminated and rebuilt, the overdue cell is charged an
    attempt, and innocent in-flight cells are resubmitted without penalty.
    """
    ctx = multiprocessing.get_context(_start_method())
    manager = queue = drainer = None
    if telemetry is not None:
        # Workers stream heartbeats over a manager queue; a drainer thread
        # in the parent forwards them to the callback so the result loop
        # below never blocks on telemetry.
        manager = ctx.Manager()
        queue = manager.Queue()

        def drain() -> None:
            while True:
                item = queue.get()
                if item is None:
                    return
                telemetry(item)

        drainer = threading.Thread(target=drain, daemon=True)
        drainer.start()

    def make_pool():
        return ctx.Pool(
            processes=min(jobs, len(pending)),
            initializer=_init_worker,
            initargs=(queue,),
        )

    worker_slices = slices if telemetry is not None else None
    attempts: dict[str, int] = {}
    #: (key, spec, earliest monotonic submit time) — retries wait out
    #: backoff.
    todo: deque[tuple[str, RunSpec, float]] = deque(
        (k, s, 0.0) for k, s in pending
    )
    #: key → (async result, spec, monotonic start time).
    inflight: dict[str, tuple] = {}
    #: Set from the pool's result thread whenever a cell finishes, so the
    #: loop wakes on completions rather than sleeping out a fixed poll.
    wake = threading.Event()

    def woken(_outcome) -> None:
        wake.set()

    pool = make_pool()
    try:
        draining = False
        while todo or inflight:
            if not draining and stopping():
                # Cooperative shutdown: drop queued cells, drain in-flight.
                draining = True
                todo.clear()

            # Clear before the scan: a cell finishing after it leaves the
            # event set, so the wait at the bottom returns at once.
            wake.clear()
            ready = [k for k, (ar, _, _) in inflight.items() if ar.ready()]
            #: (record or record_error, its arguments), run after the refill.
            settled: list[tuple[Callable, tuple]] = []
            for k in ready:
                async_result, spec, _ = inflight.pop(k)
                status, key, payload, runtime = async_result.get()
                if status == "ok":
                    settled.append((record, (spec, key, payload, runtime)))
                    continue
                attempts[key] = attempts.get(key, 0) + 1
                if attempts[key] > retries or draining:
                    # Out of retries — or shutting down, where starting a
                    # fresh attempt would silently restart work the user
                    # just asked to stop.
                    payload["attempts"] = attempts[key]
                    settled.append((record_error, (spec, key, payload)))
                else:
                    delay = backoff_s * 2 ** (attempts[key] - 1)
                    todo.append((key, spec, time.monotonic() + delay))

            # Refill before record: freed workers start their next cells
            # while the parent persists and reports the finished ones.
            now = time.monotonic()
            while todo and len(inflight) < jobs:
                key, spec, not_before = todo[0]
                if not_before > now:
                    break  # head is backing off; poll in-flight meanwhile
                todo.popleft()
                async_result = pool.apply_async(
                    _execute_safe,
                    ((spec, key, worker_slices),),
                    callback=woken,
                    error_callback=woken,
                )
                inflight[key] = (async_result, spec, time.monotonic())
            for settle, args in settled:
                settle(*args)

            if timeout_s is not None and inflight:
                now = time.monotonic()
                overdue = [
                    (k, spec)
                    for k, (_, spec, started) in inflight.items()
                    if now - started > timeout_s
                ]
                if overdue:
                    # A hung worker holds its pool slot forever; the only
                    # recovery multiprocessing offers is a full teardown.
                    pool.terminate()
                    pool.join()
                    victims = {k for k, _ in overdue}
                    for k, (_, spec, _) in inflight.items():
                        if k in victims:
                            attempts[k] = attempts.get(k, 0) + 1
                            if attempts[k] > retries or draining:
                                record_error(
                                    spec,
                                    k,
                                    {
                                        "kind": "Timeout",
                                        "message": (
                                            f"cell exceeded timeout_s="
                                            f"{timeout_s}"
                                        ),
                                        "traceback": "",
                                        "attempts": attempts[k],
                                        "label": spec.label(),
                                    },
                                )
                                continue
                            delay = backoff_s * 2 ** (attempts[k] - 1)
                            todo.append((k, spec, time.monotonic() + delay))
                        else:
                            # Innocent bystander: resubmit without penalty.
                            todo.appendleft((k, spec, 0.0))
                    inflight.clear()
                    pool = make_pool()

            if not ready and (inflight or todo):
                wake.wait(_POLL_S)
        pool.close()
        pool.join()
    finally:
        pool.terminate()
        pool.join()
        if queue is not None:
            queue.put(None)
            drainer.join()
            manager.shutdown()


def run_campaign(
    campaign: Campaign,
    *,
    jobs: int = 1,
    store: ResultStore | None = None,
    resume: bool = True,
    progress: ProgressFn | None = None,
    telemetry: TelemetryFn | None = None,
    slices: int = DEFAULT_SLICES,
) -> CampaignReport:
    """Expand a grid campaign and execute it (see :func:`run_specs`)."""
    return run_specs(
        campaign.specs(),
        jobs=jobs,
        store=store,
        resume=resume,
        progress=progress,
        telemetry=telemetry,
        slices=slices,
    )
