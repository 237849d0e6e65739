"""Shared N × density grid for the PHY benchmarks.

Single source of truth for the network sizes and placement densities the
fan-out microbench (``benchmarks/test_channel_fanout.py``) and the PHY
trajectory dump (``tools/bench_phy.py``) both sweep.  Keeping the grid in one module
means a new size column (e.g. the mega-scale rows) lands in every
consumer at once instead of drifting per file.

* ``DENSITIES`` — nodes per square metre.  ``sparse`` (5·10⁻⁶) is the
  regime the spatial index targets (a handful of radios per interference
  disk); ``dense`` (5·10⁻⁵) is the paper's Section IV density where most
  of the field shares one 3×3 cell block.
* ``SIZES`` — the classic microbench columns.
* ``MEGA_SIZES`` — the 2 000/10 000-node worlds; split out so quick CI
  smokes can sweep ``SIZES`` only.
"""

from __future__ import annotations

#: Placement regimes, nodes per square metre.
DENSITIES: dict[str, float] = {"sparse": 5e-6, "dense": 5e-5}

#: Classic network sizes swept by every fan-out benchmark column.
SIZES: tuple[int, ...] = (10, 50, 200, 800)

#: Mega-scale sizes: exercised only by the indexed fan-out columns.
MEGA_SIZES: tuple[int, ...] = (2000, 10000)

#: The full sweep, classic then mega.
ALL_SIZES: tuple[int, ...] = SIZES + MEGA_SIZES

#: Transmitters sampled per measured round.
TX_SAMPLE: int = 16
