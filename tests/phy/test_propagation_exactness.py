"""Scalar gain exactness at the two-ray branch switch.

``TwoRayGround.gain_at`` switches from the Friis branch to the
``(d·d)·(d·d)`` ground-reflection branch at ``crossover_m``.  The two
branches must meet there: the gain at the crossover and at the float just
below it agree to ``rel=1e-12``, so no scheduled power jumps across it.
"""

from __future__ import annotations

import math

import pytest

from repro.phy.propagation import TwoRayGround


class TestBulkExactModels:
    def test_two_ray_continuous_at_crossover(self):
        model = TwoRayGround()
        c = model.crossover_m
        below = model.gain_at(math.nextafter(c, 0.0))
        at = model.gain_at(c)
        assert at == pytest.approx(below, rel=1e-12)
