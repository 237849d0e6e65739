"""Binary exponential backoff bookkeeping.

The engine owns the contention-window state and the residual slot count; the
MAC state machine owns the clock (it knows when the medium went idle/busy)
and calls :meth:`consume` with elapsed idle time.  Keeping the engine
time-free makes it directly property-testable.

802.11 rules implemented:

* ``cw`` starts at ``cw_min``; doubles (``2·(cw+1)−1``) on every failed
  attempt up to ``cw_max``; resets to ``cw_min`` on success or final drop.
* A fresh backoff draws uniformly from ``[0, cw]`` inclusive.
* The count freezes while the medium is busy and resumes — it is *not*
  redrawn — when the medium goes idle again.
"""

from __future__ import annotations

from repro.sim.rng import StreamLike


class BackoffEngine:
    """Contention window + residual backoff slots for one station."""

    __slots__ = ("cw_min", "cw_max", "_cw", "_slots", "_rng")

    def __init__(self, cw_min: int, cw_max: int, rng: StreamLike) -> None:
        if cw_min <= 0 or cw_max < cw_min:
            raise ValueError(f"invalid CW bounds ({cw_min}, {cw_max})")
        self.cw_min = cw_min
        self.cw_max = cw_max
        self._cw = cw_min
        self._slots: int | None = None
        self._rng = rng

    # ------------------------------------------------------------------ state

    @property
    def cw(self) -> int:
        """Current contention window (slots)."""
        return self._cw

    @property
    def slots_remaining(self) -> int | None:
        """Residual backoff slots, or None if no backoff is pending."""
        return self._slots

    @property
    def pending(self) -> bool:
        """True while a drawn backoff has not fully elapsed."""
        return self._slots is not None

    # ------------------------------------------------------------- operations

    def draw(self) -> int:
        """Draw a fresh backoff in [0, cw] (no-op if one is already pending).

        Returns the number of slots pending after the call.
        """
        if self._slots is None:
            self._slots = int(self._rng.integers(0, self._cw, endpoint=True))
        return self._slots

    def consume(self, slots: int) -> None:
        """Account ``slots`` fully elapsed idle slots against the residual."""
        if self._slots is None:
            raise RuntimeError("consume() with no backoff pending")
        if slots < 0:
            raise ValueError(f"cannot consume a negative slot count: {slots!r}")
        self._slots = max(self._slots - slots, 0)

    def finish(self) -> None:
        """Mark the pending backoff as fully elapsed."""
        self._slots = None

    def on_failure(self) -> None:
        """Double the contention window after a failed attempt; redraw later."""
        self._cw = min(2 * (self._cw + 1) - 1, self.cw_max)
        self._slots = None

    def on_success(self) -> None:
        """Reset the contention window after success (or a final drop)."""
        self._cw = self.cw_min
        self._slots = None
