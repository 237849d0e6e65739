"""Durable filesystem work queue with expiring leases and work-stealing.

One directory tree *is* the queue — no broker, no daemon, no shared
memory — so any number of ``repro fleet work`` processes on one machine
or a shared mount cooperate through it::

    <fleet>/
        queue/<key>.json    # one pending/running task per enqueued RunSpec
        leases/<key>.json   # present iff some worker currently owns the run
        locks/<key>.lock    # per-key flock serialising every mutation
        workers/<id>.json   # worker heartbeats (liveness reporting)
        STOP                # cooperative-shutdown marker

A task file holds the serialized scenario (the run is re-buildable from
the queue alone) plus its audit trail: claim attempts, every owner so
far, and each steal (who took it from whom, and why).  A task is
**pending** when no live lease covers it, **running** while one does, and
**terminal** when its file is gone — completion and permanent failure
both remove it, with the result/error living in the result store.

The lifecycle invariants (property-tested in
``tests/fleet/test_lease_property.py``):

* :meth:`WorkQueue.claim` never hands out a run covered by a live lease —
  at most one worker owns a key at any instant;
* a lapsed lease is stealable: the claim that takes it over increments
  the attempt count and records the previous owner and steal reason;
* every owner-side mutation (:meth:`renew`, :meth:`complete`,
  :meth:`release`, :meth:`discard`) verifies the lease token and raises
  :class:`~repro.fleet.lease.LeaseLost` when the run was stolen, so late
  results from presumed-dead workers are abandoned, not double-counted;
* a task survives any number of worker deaths until either a worker
  completes it or its attempts exhaust ``max_attempts`` — then the
  claimer records a structured error (with the full ownership history)
  and retires the task.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.fleet.lease import Lease, LeaseLost
from repro.campaign.locks import FileLock, atomic_write_json, read_json

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.campaign.spec import RunSpec

QUEUE_DIR = "queue"
LEASE_DIR = "leases"
LOCK_DIR = "locks"
WORKER_DIR = "workers"
STOP_FILE = "STOP"

#: Default lease time-to-live [s].  Must comfortably exceed the wall time
#: of one telemetry slice (the renewal cadence); see docs/campaigns.md.
DEFAULT_LEASE_TTL_S = 30.0
#: Default total claim budget per run before it is retired as an error.
DEFAULT_MAX_ATTEMPTS = 3


@dataclass(frozen=True)
class Claimed:
    """One successful :meth:`WorkQueue.claim` — a leased, runnable task."""

    #: The run to execute (rebuilt from the task's serialized scenario).
    spec: "RunSpec"
    #: The caller's freshly acquired lease (None only when ``exhausted``).
    lease: Lease | None
    #: The task document at claim time (attempts, owners, steals).
    task: dict
    #: True when the task's attempt budget is already spent: do not run
    #: it — record a permanent error (see :meth:`Claimed.error_metadata`)
    #: and retire it with :meth:`WorkQueue.discard`.
    exhausted: bool = False
    #: Audit record of the steal that produced this claim, or None when
    #: the task was simply pending (no lapsed lease to take over).
    stolen: dict | None = None

    @property
    def key(self) -> str:
        """The claimed run's content key."""
        return self.task["key"]

    def error_metadata(self) -> dict:
        """Lease-lifecycle fields merged into a permanent error record:
        attempts made, every prior owner, and each steal with its reason."""
        return {
            "attempts": int(self.task.get("attempts", 0)),
            "owners": list(self.task.get("owners", ())),
            "steals": list(self.task.get("steals", ())),
        }


class WorkQueue:
    """Filesystem-backed run queue shared by every fleet process.

    Constructing one creates nothing: each directory is made by the first
    write into it, so a read-only look (``repro fleet status``) leaves a
    store that never ran a fleet untouched.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.root = Path(root)
        self.clock = clock

    # ------------------------------------------------------------- path layout

    def _task_path(self, key: str) -> Path:
        return self.root / QUEUE_DIR / f"{key}.json"

    def _lease_path(self, key: str) -> Path:
        return self.root / LEASE_DIR / f"{key}.json"

    def _lock(self, key: str) -> FileLock:
        return FileLock(self.root / LOCK_DIR / f"{key}.lock")

    # --------------------------------------------------------------- enqueue

    def enqueue(self, spec: "RunSpec") -> bool:
        """Add one run to the queue; False when it is already queued.

        Callers are expected to consult the result store first — a key
        with a stored result is a cache hit and should not be enqueued.
        Re-enqueueing a key that is already queued (another user's
        overlapping campaign) is a no-op: both campaigns drain the same
        task, executed once.
        """
        key = spec.key()
        path = self._task_path(key)
        with self._lock(key):
            if path.exists():
                return False
            atomic_write_json(
                path,
                {
                    "key": key,
                    "label": spec.label(),
                    "scenario": spec.scenario.to_dict(),
                    "enqueued_at": self.clock(),
                    "attempts": 0,
                    "owners": [],
                    "steals": [],
                    "last_error": None,
                },
            )
        return True

    # ----------------------------------------------------------------- claim

    def claim(
        self,
        owner: str,
        *,
        ttl_s: float = DEFAULT_LEASE_TTL_S,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> Claimed | None:
        """Lease one pending (or steal one lapsed) run, oldest first.

        Returns None when nothing is claimable right now — every task is
        either terminal or covered by a live lease.  A returned claim with
        ``exhausted=True`` must not be run (its attempt budget is spent by
        prior owners that died); the caller records the permanent error
        and calls :meth:`discard`.
        """
        now = self.clock()
        for path in self._scan_tasks():
            key = path.stem
            # Lock-free fast path: skip keys under a visibly live lease.
            held = read_json(self._lease_path(key))
            if held is not None and not Lease.from_dict(held).expired(now):
                continue
            claimed = self._try_claim(
                key, owner, ttl_s=ttl_s, max_attempts=max_attempts
            )
            if claimed is not None:
                return claimed
        return None

    def _scan_tasks(self) -> list[Path]:
        """Task files, oldest enqueue first (FIFO-ish, key tie-break)."""
        paths = [
            p
            for p in (self.root / QUEUE_DIR).glob("*.json")
            if not p.name.startswith(".")
        ]

        def sort_key(p: Path) -> tuple[float, str]:
            doc = read_json(p)
            when = float(doc.get("enqueued_at", 0.0)) if doc else 0.0
            return (when, p.stem)

        return sorted(paths, key=sort_key)

    def _try_claim(
        self, key: str, owner: str, *, ttl_s: float, max_attempts: int
    ) -> Claimed | None:
        """Attempt to lease ``key`` under its lock; None when not claimable."""
        from repro.campaign.spec import RunSpec
        from repro.scenariospec import ScenarioSpec

        with self._lock(key):
            now = self.clock()
            task = read_json(self._task_path(key))
            if task is None:
                return None  # completed/retired between scan and lock
            lease_doc = read_json(self._lease_path(key))
            stolen = None
            if lease_doc is not None:
                prior = Lease.from_dict(lease_doc)
                if not prior.expired(now):
                    return None  # somebody beat us to it
                stolen = {
                    "at": now,
                    "by": owner,
                    "from": prior.owner,
                    "reason": "lease-expired",
                    "attempt": prior.attempt,
                }
            spec = RunSpec(scenario=ScenarioSpec.from_dict(task["scenario"]))
            if int(task.get("attempts", 0)) >= max_attempts:
                # Budget already spent (every prior owner died or failed):
                # surface the audit trail; the caller writes the error.
                if stolen is not None:
                    task.setdefault("steals", []).append(stolen)
                    atomic_write_json(self._task_path(key), task)
                    self._lease_path(key).unlink(missing_ok=True)
                return Claimed(
                    spec=spec, lease=None, task=task,
                    exhausted=True, stolen=stolen,
                )
            attempt = int(task.get("attempts", 0)) + 1
            task["attempts"] = attempt
            task.setdefault("owners", []).append(owner)
            if stolen is not None:
                task.setdefault("steals", []).append(stolen)
            atomic_write_json(self._task_path(key), task)
            lease = Lease.acquire(
                key, owner, attempt=attempt, now=now, ttl_s=ttl_s
            )
            atomic_write_json(self._lease_path(key), lease.to_dict())
            return Claimed(spec=spec, lease=lease, task=task, stolen=stolen)

    # ------------------------------------------------------ owner-side moves

    def _verify(self, lease: Lease) -> None:
        """Raise :class:`LeaseLost` unless ``lease`` still owns its key."""
        current = read_json(self._lease_path(lease.key))
        if current is None or current.get("token") != lease.token:
            raise LeaseLost(
                f"lease on {lease.key[:12]} no longer held by {lease.owner}"
            )

    def renew(self, lease: Lease, *, ttl_s: float = DEFAULT_LEASE_TTL_S) -> Lease:
        """Extend a held lease; raises :class:`LeaseLost` if it was stolen."""
        with self._lock(lease.key):
            self._verify(lease)
            renewed = lease.renewed(now=self.clock(), ttl_s=ttl_s)
            atomic_write_json(self._lease_path(lease.key), renewed.to_dict())
            return renewed

    def complete(self, lease: Lease) -> None:
        """Retire a finished run: drop the lease and the task.

        Call only after the result is durably in the store — the task file
        is the fleet's memory that work remains.  Raises
        :class:`LeaseLost` when the run was stolen (the thief — or the
        store's exactly-once ``put`` — owns the outcome now).
        """
        with self._lock(lease.key):
            self._verify(lease)
            self._lease_path(lease.key).unlink(missing_ok=True)
            self._task_path(lease.key).unlink(missing_ok=True)

    def release(
        self, lease: Lease, *, reason: str, error: dict | None = None
    ) -> None:
        """Give a failed run back to the queue for another attempt.

        The lease is dropped (the task is immediately claimable again) and
        the failure is noted on the task as ``last_error`` for status
        displays.  Raises :class:`LeaseLost` when already stolen.
        """
        with self._lock(lease.key):
            self._verify(lease)
            task = read_json(self._task_path(lease.key))
            if task is not None:
                task["last_error"] = {"reason": reason, **(error or {})}
                atomic_write_json(self._task_path(lease.key), task)
            self._lease_path(lease.key).unlink(missing_ok=True)

    def discard(self, claimed: Claimed) -> None:
        """Retire a run that permanently failed (attempts exhausted).

        Call after the error record is durably in the store.  Safe for
        exhausted claims (which hold no lease); for leased claims the
        token is verified first.
        """
        key = claimed.key
        with self._lock(key):
            if claimed.lease is not None:
                self._verify(claimed.lease)
            self._lease_path(key).unlink(missing_ok=True)
            self._task_path(key).unlink(missing_ok=True)

    # ---------------------------------------------------------------- status

    def lease_of(self, key: str) -> Lease | None:
        """The current lease on ``key``, live or lapsed, or None."""
        doc = read_json(self._lease_path(key))
        return Lease.from_dict(doc) if doc is not None else None

    def task(self, key: str) -> dict | None:
        """The task document for ``key``, or None once terminal."""
        return read_json(self._task_path(key))

    def tasks(self) -> list[dict]:
        """Every non-terminal task document, oldest first."""
        out = []
        for path in self._scan_tasks():
            doc = read_json(path)
            if doc is not None:
                out.append(doc)
        return out

    def pending_count(self) -> int:
        """Number of non-terminal tasks (running ones included)."""
        return sum(
            1
            for p in (self.root / QUEUE_DIR).glob("*.json")
            if not p.name.startswith(".")
        )

    def drained(self) -> bool:
        """True once no task remains (everything terminal)."""
        return self.pending_count() == 0

    # ------------------------------------------------------------ heartbeats

    def heartbeat(self, worker_id: str, payload: dict) -> None:
        """Publish a worker's liveness document (atomic replace)."""
        atomic_write_json(
            self.root / WORKER_DIR / f"{worker_id}.json",
            {"worker": worker_id, "time": self.clock(), **payload},
        )

    def heartbeats(self) -> dict[str, dict]:
        """Every published worker heartbeat, keyed by worker id."""
        out: dict[str, dict] = {}
        for path in sorted((self.root / WORKER_DIR).glob("*.json")):
            if path.name.startswith("."):
                continue
            doc = read_json(path)
            if doc is not None:
                out[path.stem] = doc
        return out

    def clear_heartbeat(self, worker_id: str) -> None:
        """Remove a worker's heartbeat file (clean exit)."""
        (self.root / WORKER_DIR / f"{worker_id}.json").unlink(missing_ok=True)

    # ------------------------------------------------------------- stop flag

    def request_stop(self) -> None:
        """Ask every worker to finish its current run and exit."""
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / STOP_FILE).touch()

    def clear_stop(self) -> None:
        """Withdraw a previous stop request (e.g. at serve startup)."""
        (self.root / STOP_FILE).unlink(missing_ok=True)

    def stop_requested(self) -> bool:
        """True when a cooperative stop has been requested."""
        return (self.root / STOP_FILE).exists()
