"""Mobility model interface."""

from __future__ import annotations

Position = tuple[float, float]


class MobilityModel:
    """Interface: a node's position as a function of simulation time.

    ``position_at`` may assume monotonically non-decreasing query times (the
    simulator clock only moves forward), which lets implementations advance
    internal state lazily.

    Movement epochs
    ---------------
    Models additionally expose a monotonically non-decreasing **epoch**
    counter that bumps whenever a position sample returns a *different*
    position than the previous sample.  Immobile models never bump, so a
    consumer that cached a derived quantity (e.g. a link gain in
    :class:`~repro.phy.channel.Channel`) can validate its cache with one
    integer comparison instead of resampling and recomputing.  The epoch
    only advances when the position is actually *sampled* — callers that
    need the epoch at the current time must call :meth:`poll` (which samples
    and reports atomically) rather than reading :attr:`epoch` alone.

    Still intervals
    ---------------
    :meth:`still_until` ``(t)`` returns a time ``T >= t`` such that every
    :meth:`poll` at a time in ``[t, T)`` returns the position *and* epoch
    that ``poll(t)`` returns.  ``T == t`` (an empty interval) is always a
    correct answer; ``inf`` means the node never moves again.  The channel
    replays fan-outs while every radio is still (see
    :class:`~repro.phy.channel.Channel`), so an answer that overstates the
    interval breaks bit-identity.  Like ``poll`` it may assume
    non-decreasing query times, and it must not steer the trajectory.
    """

    def position_at(self, t: float) -> Position:
        """The node's (x, y) position [m] at simulation time ``t``."""
        raise NotImplementedError

    @property
    def epoch(self) -> int:
        """Movement epoch as of the most recent position sample.

        The base implementation is pinned at 0 — correct for any model whose
        ``position_at`` is constant.  Mobile models override it.
        """
        return 0

    def poll(self, t: float) -> tuple[Position, int]:
        """Sample the position at ``t`` and return ``(position, epoch)``.

        Equal epochs across two polls guarantee the returned positions were
        equal, so any pure function of the position may be reused.

        Sampling must not steer the trajectory: the position at ``t`` is
        the same whichever earlier times were (or were not) polled, so a
        consumer may skip polls freely — the channel's motion bound skips
        every receiver it can prove out of reach.  Only the epoch *numbers*
        depend on which samples were taken; they are compared for equality
        against the same model's earlier values and nothing else.  Between
        any two times the position moves at most :meth:`max_speed_mps`
        times the elapsed time (up to float rounding of the sample).

        Models on the fan-out hot path override this to sample in one call
        (as :class:`~repro.mobility.waypoint.RandomWaypoint` does).
        """
        pos = self.position_at(t)
        return pos, self.epoch

    def max_speed_mps(self) -> float:
        """Upper bound on the node's speed [m/s] (0 for immobile models).

        Consumers that keep spatial data structures approximately fresh
        (e.g. the channel's grid index) use this to bound how far a node can
        drift between refreshes.  Models with unbounded speed should return
        ``math.inf``; the base implementation does, as the safe default.
        """
        return float("inf")

    def still_until(self, t: float) -> float:
        """End of the still interval starting at ``t`` (see class docs).

        The base implementation knows nothing of the trajectory: ``inf``
        for an immobile model (speed bound 0), otherwise ``t``.
        """
        return float("inf") if self.max_speed_mps() == 0.0 else t
