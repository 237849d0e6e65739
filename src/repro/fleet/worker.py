"""Fleet worker: claim → (cache-check) → run → record, forever.

A :class:`FleetWorker` is the execution half of the fleet: it pulls runs
from the :class:`~repro.fleet.queue.WorkQueue` under expiring leases,
executes them with :func:`~repro.obs.telemetry.run_with_heartbeat` (the
between-slice callback doubles as the lease-renewal and heartbeat-file
cadence), and lands outcomes in the shared result store.  Any number of
workers — spawned by ``run_specs(fleet=True)``, started by hand with
``repro fleet work``, on this machine or another sharing the filesystem —
cooperate through those two structures alone.

Robustness contract:

* **Cache first.**  A claimed key that already has a stored result (some
  other campaign finished it) is completed without execution — the
  content-addressed cache-hit path costs one index lookup.
* **Crash-isolated.**  An exception inside a run is converted to a
  structured error; with attempts left the run is released for another
  worker (or a later self) to retry, otherwise the error — including the
  lease audit trail (attempts, owners, steals) — is recorded and the run
  retired.
* **Steal-aware.**  Every lease renewal verifies ownership; a worker
  whose lease lapsed (it stalled long enough to be presumed dead) and
  was stolen abandons the run mid-flight instead of double-reporting.
  The store's exactly-once ``put`` covers the residual race where both
  finish.
* **Exhaustion duty.**  A claim that comes back ``exhausted`` (prior
  owners burned the attempt budget by dying) is not run: the worker
  records the permanent error on their behalf and retires the task — so
  even a run whose every owner was SIGKILLed reaches a terminal state.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.campaign.runner import error_record
from repro.campaign.store import ResultStore
from repro.fleet.lease import LeaseLost, worker_identity
from repro.fleet.queue import (
    DEFAULT_LEASE_TTL_S,
    DEFAULT_MAX_ATTEMPTS,
    Claimed,
    WorkQueue,
)
from repro.obs.telemetry import DEFAULT_SLICES, TelemetryFn, run_with_heartbeat

StopFn = Callable[[], bool]


@dataclass
class WorkerReport:
    """What one :meth:`FleetWorker.run` invocation did."""

    #: Runs this worker executed to completion (results stored).
    executed: int = 0
    #: Claims satisfied from the content-addressed cache (no execution).
    cache_hits: int = 0
    #: Runs released back to the queue after a failed attempt.
    released: int = 0
    #: Runs retired as permanent errors after a failure here.
    failed: int = 0
    #: Exhausted claims retired on behalf of dead prior owners.
    retired: int = 0
    #: Runs abandoned mid-flight because the lease was stolen.
    abandoned: int = 0
    #: Wall-clock seconds spent in the loop.
    wall_s: float = 0.0

    @property
    def claims(self) -> int:
        """Total claims this worker processed."""
        return (
            self.executed
            + self.cache_hits
            + self.released
            + self.failed
            + self.retired
            + self.abandoned
        )

    def line(self) -> str:
        """One-line summary for logs and the CLI."""
        return (
            f"executed={self.executed} cache_hits={self.cache_hits} "
            f"released={self.released} failed={self.failed} "
            f"retired={self.retired} abandoned={self.abandoned} "
            f"wall={self.wall_s:.1f}s"
        )


@dataclass
class FleetWorker:
    """One lease-holding executor process over a shared queue and store."""

    store: ResultStore
    queue: WorkQueue
    #: Stable identity written into leases, task audit trails, heartbeats.
    worker_id: str = field(default_factory=worker_identity)
    #: Lease validity window; renewed every telemetry slice, so it must
    #: comfortably exceed one slice's wall time (see docs/campaigns.md).
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S
    #: Total claim budget per run before it is retired as an error.
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    #: Sim-time slices per run (renewal/heartbeat cadence).
    slices: int = DEFAULT_SLICES
    #: Optional live-progress callback (fleet-spawned workers stream to
    #: the supervising process through this).
    telemetry: Optional[TelemetryFn] = None

    def run(
        self,
        *,
        max_runs: int | None = None,
        wait_for_work: bool = False,
        poll_s: float = 0.2,
        should_stop: StopFn | None = None,
    ) -> WorkerReport:
        """Process claims until the queue drains (or limits/stop hit).

        With ``wait_for_work`` the worker idles on an empty queue instead
        of exiting — service mode for a standing fleet.  A queue that
        still holds tasks under other workers' live leases is *not*
        drained: the worker keeps polling, ready to steal should a lease
        lapse.  ``should_stop`` and the queue's STOP marker both end the
        loop after the current run.
        """
        report = WorkerReport()
        t0 = time.perf_counter()
        try:
            while True:
                if max_runs is not None and report.claims >= max_runs:
                    break
                if self.queue.stop_requested() or (
                    should_stop is not None and should_stop()
                ):
                    break
                claimed = self.queue.claim(
                    self.worker_id,
                    ttl_s=self.lease_ttl_s,
                    max_attempts=self.max_attempts,
                )
                if claimed is None:
                    if self.queue.drained() and not wait_for_work:
                        break
                    self._beat("idle")
                    time.sleep(poll_s)
                    continue
                self._process(claimed, report)
        finally:
            report.wall_s = time.perf_counter() - t0
            self._beat("exited", extra={"report": report.line()})
        return report

    # ----------------------------------------------------------- internals

    def _process(self, claimed: Claimed, report: WorkerReport) -> None:
        """Drive one claim to a terminal or released state."""
        spec, key = claimed.spec, claimed.key
        if claimed.exhausted:
            self._retire_exhausted(claimed, report)
            return
        # Content-addressed cache: another campaign/user may have finished
        # this key since it was enqueued — completing without execution is
        # the ~0-cost hit path.
        self.store.refresh_key(key)
        if self.store.get(key) is not None:
            self._finish(claimed, report, cached=True)
            return
        lease = claimed.lease
        self._beat("running", key=key, label=spec.label())

        def emit(progress) -> None:
            nonlocal lease
            lease = self.queue.renew(lease, ttl_s=self.lease_ttl_s)
            self._beat(
                "running",
                key=key,
                label=spec.label(),
                extra={
                    "sim_time_s": progress.sim_time_s,
                    "events": progress.events,
                },
            )
            if self.telemetry is not None:
                self.telemetry(progress)

        try:
            result, runtime = run_with_heartbeat(spec, emit, slices=self.slices)
        except LeaseLost:
            # Someone presumed us dead and stole the run; their outcome
            # (or the store's exactly-once put) wins — walk away.
            report.abandoned += 1
            return
        except Exception as exc:  # noqa: BLE001 - containment is the job
            self._handle_failure(claimed, exc, report)
            return
        self.store.put(spec, result, runtime=runtime, key=key)
        self._finish(claimed, report, cached=False, lease_now=lease)

    def _finish(
        self, claimed: Claimed, report: WorkerReport, *, cached: bool,
        lease_now=None,
    ) -> None:
        try:
            self.queue.complete(lease_now or claimed.lease)
        except LeaseLost:
            # Stolen between our store.put and the complete: the result is
            # already durable (and deduplicated), so nothing is lost.
            pass
        if cached:
            report.cache_hits += 1
        else:
            report.executed += 1

    def _handle_failure(
        self, claimed: Claimed, exc: Exception, report: WorkerReport
    ) -> None:
        attempts = claimed.lease.attempt
        error = error_record(exc, attempts, label=claimed.spec.label())
        error.update(claimed.error_metadata())
        error["attempts"] = attempts
        if attempts >= self.max_attempts:
            self.store.put_error(claimed.spec, error)
            try:
                self.queue.discard(claimed)
            except LeaseLost:
                pass
            report.failed += 1
        else:
            try:
                self.queue.release(
                    claimed.lease,
                    reason=error["kind"],
                    error={"kind": error["kind"], "message": error["message"]},
                )
                report.released += 1
            except LeaseLost:
                report.abandoned += 1

    def _retire_exhausted(self, claimed: Claimed, report: WorkerReport) -> None:
        """Record a permanent error for a run whose owners all died."""
        meta = claimed.error_metadata()
        steals = meta.get("steals", [])
        reason = steals[-1]["reason"] if steals else "lease-expired"
        owners = ", ".join(meta.get("owners", ())) or "(none)"
        error = {
            "kind": "LeaseExpired",
            "message": (
                f"attempt budget exhausted after {meta['attempts']} "
                f"claim(s) by [{owners}] — every owner died or stalled "
                f"without completing the run"
            ),
            "traceback": "",
            "label": claimed.spec.label(),
            "steal_reason": reason,
            **meta,
        }
        self.store.put_error(claimed.spec, error)
        try:
            self.queue.discard(claimed)
        except LeaseLost:  # pragma: no cover - exhausted claims hold no lease
            pass
        report.retired += 1

    def _beat(
        self,
        state: str,
        *,
        key: str | None = None,
        label: str | None = None,
        extra: dict | None = None,
    ) -> None:
        """Publish this worker's liveness document."""
        payload = {"state": state, "pid": os.getpid()}
        if key is not None:
            payload["key"] = key
        if label is not None:
            payload["label"] = label
        if extra:
            payload.update(extra)
        self.queue.heartbeat(self.worker_id, payload)
