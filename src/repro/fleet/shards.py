"""The fleet's names for the sharded result store.

The store itself — per-shard writer locks, one line per result,
crash-safe compaction, adoption of a flat ``results.jsonl`` through
``repro fleet compact`` —
is :class:`repro.campaign.store.ResultStore`, the only store layout.  A
campaign process and a fleet of workers open the same directory with the
same class.
"""

from repro.campaign.store import (
    DEFAULT_SHARDS,
    MAX_SHARDS,
    CompactionStats,
    ResultStore,
    shard_index,
)

#: The fleet-side name of :class:`~repro.campaign.store.ResultStore`
#: (the same class object).
ShardedResultStore = ResultStore

__all__ = [
    "DEFAULT_SHARDS",
    "MAX_SHARDS",
    "CompactionStats",
    "ShardedResultStore",
    "shard_index",
]
