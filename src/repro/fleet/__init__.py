"""Fault-tolerant campaign fleet: lease-based work-stealing over a shared store.

This package turns the campaign layer's ``specs → runner → store``
contract into a multi-process, multi-user, crash-tolerant service with no
broker — a directory tree on a plain (or shared) filesystem is the whole
coordination surface:

* :mod:`~repro.fleet.queue` — durable work queue; runs are claimed under
  **expiring leases**, so a worker that dies, hangs, or is SIGKILLed
  simply stops renewing and another worker steals the run, with the full
  ownership history (attempts, owners, steal reasons) audited on the task
  and carried into any permanent error record.
* :mod:`~repro.fleet.shards` — :class:`ShardedResultStore`, the fleet's
  name for :class:`~repro.campaign.store.ResultStore`: a key-prefix
  sharded result store with per-shard locks, exactly-once ``put``
  semantics under concurrent writers, and crash-safe compaction; it
  doubles as the **content-addressed result cache** — identical specs are
  never executed twice, across campaigns or users.
* :mod:`~repro.fleet.worker` — the executor loop behind ``repro fleet
  work`` and the workers ``run_specs(fleet=True)`` spawns.
* :mod:`~repro.fleet.supervisor` — intake and structured liveness
  (``repro fleet status``): per-task lease state, worker heartbeat ages,
  stall detection.

See ``docs/campaigns.md`` for the ops guide (layout, crash-recovery
walkthrough, resume and compaction commands).
"""

from repro.fleet.lease import Lease, LeaseLost, worker_identity
from repro.fleet.locks import FileLock, LockTimeout
from repro.fleet.queue import (
    DEFAULT_LEASE_TTL_S,
    DEFAULT_MAX_ATTEMPTS,
    Claimed,
    WorkQueue,
)
from repro.fleet.shards import (
    DEFAULT_SHARDS,
    CompactionStats,
    ShardedResultStore,
)
from repro.fleet.supervisor import (
    DEFAULT_STALL_AFTER_S,
    EnqueueReport,
    FleetStatus,
    enqueue_specs,
    fleet_status,
    wait_for_drain,
)
from repro.fleet.worker import FleetWorker, WorkerReport

__all__ = [
    "Claimed",
    "CompactionStats",
    "DEFAULT_LEASE_TTL_S",
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_SHARDS",
    "DEFAULT_STALL_AFTER_S",
    "EnqueueReport",
    "FileLock",
    "FleetStatus",
    "FleetWorker",
    "Lease",
    "LeaseLost",
    "LockTimeout",
    "ShardedResultStore",
    "WorkQueue",
    "WorkerReport",
    "enqueue_specs",
    "fleet_status",
    "wait_for_drain",
    "worker_identity",
]
