"""Helpers for tests of the collector pause: old garbage, heap growth."""

from __future__ import annotations

import gc
import sys
import weakref


class _Cell:
    """A weak-referenceable object for building reference cycles."""


def old_cyclic_garbage() -> weakref.ref:
    """A dead reference cycle in the oldest generation, where only a full
    collection finds it (as a network dropped after its run)."""
    gc.collect()
    cell = _Cell()
    cell.self = cell
    gc.collect()  # promote it while it is still alive
    ref = weakref.ref(cell)
    del cell
    return ref


def grow_heap_by_a_third() -> list:
    """Objects enough to grow the heap, counted in allocated blocks, by a
    third; the caller keeps them alive."""
    return [object() for _ in range(sys.getallocatedblocks() // 3)]
