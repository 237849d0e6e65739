"""Random waypoint mobility (CMU model, as used by the paper).

A node alternates between *pause* legs (3 s in the paper) and *move* legs
toward a uniformly chosen destination at a fixed speed (3 m/s in the paper;
the classic model draws speeds from a range — pass ``speed_range`` for
that).  Legs are generated lazily from the node's own RNG stream, so the
trajectory is reproducible and independent of every other random consumer.

Simulated time always advances along the walk: a move leg at zero speed, or
one that takes no time while ``pause_s`` is 0, leaves the node where it
stands for good instead of drawing leg after leg at one instant.
"""

from __future__ import annotations

import math

from repro.config import MobilityConfig
from repro.mobility.base import MobilityModel, Position
from repro.sim.rng import StreamLike


class RandomWaypoint(MobilityModel):
    """Lazily generated random-waypoint trajectory."""

    __slots__ = (
        "_cfg",
        "_rng",
        "_speed_range",
        "_t0",
        "_t1",
        "_p0",
        "_p1",
        "_paused",
        "_moving",
        "_span",
        "_dx",
        "_dy",
    )

    def __init__(
        self,
        rng: StreamLike,
        cfg: MobilityConfig,
        initial: Position,
        *,
        speed_range: tuple[float, float] | None = None,
    ) -> None:
        if speed_range is not None:
            lo, hi = speed_range
            # NaN fails every comparison, so it is refused here too.
            if not (0.0 <= lo <= hi < math.inf):
                raise ValueError(
                    f"speed_range must be finite with 0 <= low <= high, got "
                    f"{speed_range!r}"
                )
        self._cfg = cfg
        self._rng = rng
        self._speed_range = speed_range
        self._p0 = (float(initial[0]), float(initial[1]))
        self._p1 = self._p0
        self._t0 = 0.0
        # Begin with a pause leg, like the CMU generator.
        self._t1 = cfg.pause_s
        self._paused = True
        self._moving = False

    def _draw_speed(self) -> float:
        if self._speed_range is not None:
            lo, hi = self._speed_range
            return float(self._rng.uniform(lo, hi))
        return self._cfg.speed_mps

    def _next_leg(self) -> None:
        if self._paused:
            # Start moving toward a fresh waypoint.
            dest = (
                float(self._rng.uniform(0.0, self._cfg.field_width_m)),
                float(self._rng.uniform(0.0, self._cfg.field_height_m)),
            )
            speed = self._draw_speed()
            self._p0 = self._p1
            self._p1 = dest
            self._t0 = self._t1
            dist = math.hypot(dest[0] - self._p0[0], dest[1] - self._p0[1])
            if speed > 0.0:
                self._t1 = self._t0 + dist / speed
            if speed <= 0.0 or (self._t1 == self._t0 and self._cfg.pause_s == 0.0):
                # Degenerate leg: the node never actually moves.  Either it
                # stands still, or the leg takes no time (a destination on
                # the spot, or a trip that rounds away against ``t0``) and
                # no pause follows, so the walk would draw leg after leg at
                # one instant and simulated time would never advance.
                self._p1 = self._p0
                self._t1 = math.inf
            self._paused = False
        else:
            # Arrived: pause at the destination (paper: 3 seconds).
            self._p0 = self._p1
            self._t0 = self._t1
            self._t1 = self._t0 + self._cfg.pause_s
            self._paused = True
        # Interpolation terms of the new leg, precomputed with the very
        # roundings ``p0 + (p1 - p0) * ((t - t0) / (t1 - t0))`` takes.
        self._moving = not self._paused and self._t1 != self._t0
        if self._moving:
            self._span = self._t1 - self._t0
            self._dx = self._p1[0] - self._p0[0]
            self._dy = self._p1[1] - self._p0[1]

    def max_speed_mps(self) -> float:
        if self._speed_range is not None:
            return float(self._speed_range[1])
        return self._cfg.speed_mps

    def position_at(self, t: float) -> Position:
        while t >= self._t1:
            self._next_leg()
        pos = self._p0
        if self._moving:
            frac = (t - self._t0) / self._span
            if frac > 0.0:
                pos = (pos[0] + self._dx * frac, pos[1] + self._dy * frac)
        return pos

    def still_until(self, t: float) -> float:
        """End of the pause leg (or degenerate leg) under way at ``t``.

        Advances the legs exactly as :meth:`position_at` does.  A pause
        leg holds ``p0``, and so does a leg that goes nowhere (zero speed:
        ``dx == dy == 0``), up to its end ``t1``; a genuine move answers
        ``t``.
        """
        while t >= self._t1:
            self._next_leg()
        if self._moving and (self._dx or self._dy):
            return t
        return self._t1
