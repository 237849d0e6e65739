"""Mobility model interface."""

from __future__ import annotations

Position = tuple[float, float]


class MobilityModel:
    """Interface: a node's position as a function of simulation time.

    ``position_at`` may assume monotonically non-decreasing query times (the
    simulator clock only moves forward), which lets implementations advance
    internal state lazily.

    Still intervals
    ---------------
    :meth:`still_until` ``(t)`` returns a time ``T >= t`` such that every
    :meth:`position_at` at a time in ``[t, T)`` returns the position that
    ``position_at(t)`` returns.  ``T == t`` (an empty interval) is always a
    correct answer; ``inf`` means the node never moves again.  The channel
    replays fan-outs while every radio is still (see
    :class:`~repro.phy.channel.Channel`), so an answer that overstates the
    interval breaks bit-identity.  Like ``position_at`` it may assume
    non-decreasing query times, and it must not steer the trajectory.
    """

    def position_at(self, t: float) -> Position:
        """The node's (x, y) position [m] at simulation time ``t``.

        Sampling must not steer the trajectory: the position at ``t`` is
        the same whichever earlier times were (or were not) sampled, so a
        consumer may skip samples freely — the channel's motion bound skips
        every receiver it can prove out of reach.  Between any two times
        the position moves at most :meth:`max_speed_mps` times the elapsed
        time (up to float rounding of the sample).
        """
        raise NotImplementedError

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
