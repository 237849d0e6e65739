"""Initial node placement helpers."""

from __future__ import annotations

import math

from repro.sim.rng import StreamLike

Position = tuple[float, float]


def uniform_positions(
    rng: StreamLike, count: int, width_m: float, height_m: float
) -> list[Position]:
    """``count`` positions drawn uniformly over the field."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    xs = rng.uniform(0.0, width_m, size=count)
    ys = rng.uniform(0.0, height_m, size=count)
    return [(float(x), float(y)) for x, y in zip(xs, ys)]


def grid_positions(count: int, width_m: float, height_m: float) -> list[Position]:
    """``count`` positions on a near-square grid covering the field."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    cols = math.ceil(math.sqrt(count))
    rows = math.ceil(count / cols)
    out: list[Position] = []
    for i in range(count):
        r, c = divmod(i, cols)
        x = (c + 0.5) * width_m / cols
        y = (r + 0.5) * height_m / rows
        out.append((x, y))
    return out


def line_positions(count: int, spacing_m: float, y_m: float = 0.0) -> list[Position]:
    """``count`` positions on a horizontal line with fixed spacing.

    The layout of the paper's Figure 1 chain scenarios.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    if spacing_m <= 0:
        raise ValueError(f"spacing must be positive, got {spacing_m!r}")
    return [(i * spacing_m, y_m) for i in range(count)]
