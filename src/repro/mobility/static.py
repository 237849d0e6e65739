"""Immobile nodes — controlled topologies for MAC-focused experiments."""

from __future__ import annotations

from repro.mobility.base import MobilityModel, Position


class StaticMobility(MobilityModel):
    """A node pinned at a fixed position."""

    __slots__ = ("_pos",)

    def __init__(self, position: Position) -> None:
        self._pos = (float(position[0]), float(position[1]))

    @property
    def position(self) -> Position:
        """The fixed position."""
        return self._pos

    def position_at(self, t: float) -> Position:
        return self._pos

    def max_speed_mps(self) -> float:
        return 0.0
