"""Propagation model tests — including the paper's range geometry."""

from __future__ import annotations

import dataclasses
import math
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import PAPER_POWER_LEVELS_W, PAPER_POWER_RANGES_M, PhyConfig
from repro.phy.propagation import (
    MIN_DISTANCE_M,
    FreeSpace,
    LogDistanceShadowing,
    TwoRayGround,
    distance,
    model_from_config,
)


class TestDistance:
    def test_euclidean(self):
        assert distance((0, 0), (3, 4)) == 5.0

    def test_zero(self):
        assert distance((1, 1), (1, 1)) == 0.0

    def test_symmetric(self):
        # (rx - src) vs (src - rx) is exact negation; dx*dx is identical.
        a, b = (12.34, 56.78), (90.12, 3.456)
        assert distance(a, b) == distance(b, a)

    def test_spelled_as_sqrt_of_squares(self):
        """Bit-for-bit ``sqrt(dx*dx + dy*dy)``: ``math.hypot`` differs in the
        last bit on some of these points, and every cached gain, received
        power and propagation delay the golden fingerprints pin derives
        from this value."""
        rng = random.Random(7)
        for _ in range(500):
            ax, ay, bx, by = (rng.uniform(0.0, 5000.0) for _ in range(4))
            dx, dy = ax - bx, ay - by
            assert distance((ax, ay), (bx, by)) == math.sqrt(dx * dx + dy * dy)


class TestFreeSpace:
    def test_inverse_square_law(self):
        m = FreeSpace()
        assert m.gain_at(100.0) / m.gain_at(200.0) == pytest.approx(4.0)

    def test_gain_positive_and_below_unity(self):
        m = FreeSpace()
        g = m.gain_at(10.0)
        assert 0.0 < g < 1.0

    def test_range_for_inverts_gain(self):
        m = FreeSpace()
        p_tx = 0.001
        d = m.range_for(p_tx, 1e-10)
        assert p_tx * m.gain_at(d) == pytest.approx(1e-10, rel=1e-9)

    def test_clamps_tiny_distances(self):
        m = FreeSpace()
        assert m.gain_at(0.0) == m.gain_at(MIN_DISTANCE_M)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            FreeSpace().range_for(0.0, 1e-10)


class TestTwoRayGround:
    def test_crossover_location(self):
        m = TwoRayGround()
        # d_c = 4π·ht·hr/λ ≈ 86.1 m for the WaveLAN configuration.
        assert m.crossover_m == pytest.approx(86.14, abs=0.1)

    def test_continuous_at_crossover(self):
        m = TwoRayGround()
        dc = m.crossover_m
        below = m.gain_at(dc * 0.999999)
        above = m.gain_at(dc * 1.000001)
        assert below == pytest.approx(above, rel=1e-4)

    def test_continuous_at_crossover_to_the_float_below(self):
        """The Friis and ``(d·d)·(d·d)`` branches meet at ``crossover_m``.

        The gain at the crossover and at the float just below it agree to
        ``rel=1e-12``, so no scheduled power jumps across the branch switch.
        """
        m = TwoRayGround()
        dc = m.crossover_m
        below = m.gain_at(math.nextafter(dc, 0.0))
        assert m.gain_at(dc) == pytest.approx(below, rel=1e-12)

    def test_fourth_power_law_beyond_crossover(self):
        m = TwoRayGround()
        assert m.gain_at(200.0) / m.gain_at(400.0) == pytest.approx(16.0)

    def test_paper_decode_range_at_max_power(self):
        """281.8 mW reaches exactly the NS-2 RXThresh at 250 m."""
        cfg = PhyConfig()
        m = TwoRayGround()
        assert m.range_for(cfg.max_power_w, cfg.rx_threshold_w) == pytest.approx(
            250.0, rel=0.001
        )

    def test_paper_sensing_range_at_max_power(self):
        """281.8 mW reaches exactly the NS-2 CSThresh at 550 m."""
        cfg = PhyConfig()
        m = TwoRayGround()
        assert m.range_for(cfg.max_power_w, cfg.cs_threshold_w) == pytest.approx(
            550.0, rel=0.001
        )

    @pytest.mark.parametrize(
        "power_w,expected_m", list(zip(PAPER_POWER_LEVELS_W, PAPER_POWER_RANGES_M))
    )
    def test_paper_power_level_table(self, power_w, expected_m):
        """Every paper power level reproduces its published decode range."""
        cfg = PhyConfig()
        m = TwoRayGround()
        computed = m.range_for(power_w, cfg.rx_threshold_w)
        # The paper says "roughly correspond"; all levels land within 10 %
        # and all but the two smallest within 1 % (1 mW computes 43.2 m
        # vs "roughly 40 m", 2 mW 61.1 m vs 60 m).
        rel = {1e-3: 0.10, 2e-3: 0.02}.get(power_w, 0.01)
        assert computed == pytest.approx(expected_m, rel=rel)

    def test_range_for_spans_both_branches(self):
        m = TwoRayGround()
        cfg = PhyConfig()
        # 1 mW resolves on the Friis branch (< 86 m)...
        assert m.range_for(1e-3, cfg.rx_threshold_w) < m.crossover_m
        # ...while 4.8 mW resolves just beyond the crossover.
        assert m.range_for(4.8e-3, cfg.rx_threshold_w) > m.crossover_m

    @given(st.floats(min_value=1.0, max_value=2000.0))
    def test_property_gain_monotone_decreasing(self, d):
        m = TwoRayGround()
        assert m.gain_at(d) >= m.gain_at(d * 1.5) > 0.0

    @given(
        st.floats(min_value=1e-4, max_value=10.0),
        st.floats(min_value=1e-13, max_value=1e-6),
    )
    def test_property_range_roundtrip(self, p_tx, threshold):
        m = TwoRayGround()
        d = m.range_for(p_tx, threshold)
        if d > MIN_DISTANCE_M:
            assert p_tx * m.gain_at(d) == pytest.approx(threshold, rel=1e-6)

    def test_gain_uses_positions(self):
        m = TwoRayGround()
        assert m.gain((0, 0), (100, 0)) == m.gain_at(100.0)


class TestLogDistanceShadowing:
    def test_matches_friis_with_exponent_two(self):
        lds = LogDistanceShadowing(exponent=2.0, reference_m=1.0)
        fs = FreeSpace()
        assert lds.gain_at(50.0) == pytest.approx(fs.gain_at(50.0), rel=1e-9)

    def test_higher_exponent_attenuates_faster(self):
        soft = LogDistanceShadowing(exponent=2.0)
        hard = LogDistanceShadowing(exponent=4.0)
        assert hard.gain_at(100.0) < soft.gain_at(100.0)

    def test_shadowing_offset_scales_gain(self):
        base = LogDistanceShadowing(shadowing_db=0.0)
        up = LogDistanceShadowing(shadowing_db=10.0)
        assert up.gain_at(100.0) == pytest.approx(10.0 * base.gain_at(100.0))

    def test_range_roundtrip(self):
        m = LogDistanceShadowing(exponent=3.1)
        d = m.range_for(0.01, 1e-10)
        assert 0.01 * m.gain_at(d) == pytest.approx(1e-10, rel=1e-6)


class TestModelFromConfig:
    def test_builds_two_ray_with_config_values(self):
        cfg = PhyConfig()
        m = model_from_config(cfg)
        assert isinstance(m, TwoRayGround)
        assert m.frequency_hz == cfg.frequency_hz
        assert m.height_tx_m == cfg.antenna_height_tx_m


class TestPrecomputedFields:
    """Hoisted constants must not change dataclass semantics or results."""

    MODELS = (
        FreeSpace(),
        TwoRayGround(),
        LogDistanceShadowing(shadowing_db=4.0),
        TwoRayGround(frequency_hz=2.4e9, height_tx_m=2.0, system_loss=1.2),
    )

    def test_frozen_hashable_equal(self):
        for m in self.MODELS:
            clone = type(m)(**{f.name: getattr(m, f.name)
                               for f in dataclasses.fields(m)})
            assert clone == m
            assert hash(clone) == hash(m)
            with pytest.raises(dataclasses.FrozenInstanceError):
                m.frequency_hz = 1.0

    def test_replace_recomputes_derived_constants(self):
        m = dataclasses.replace(TwoRayGround(), frequency_hz=2.4e9)
        assert m.wavelength_m == pytest.approx(3e8 / 2.4e9, rel=1e-3)
        assert m.crossover_m == pytest.approx(
            4.0 * math.pi * 1.5 * 1.5 / m.wavelength_m
        )

    def test_pickle_round_trip(self):
        for m in self.MODELS:
            clone = pickle.loads(pickle.dumps(m))
            assert clone == m
            for d in (1.0, 50.0, 100.0, 400.0):
                assert clone.gain_at(d) == m.gain_at(d)

    def test_wavelength_and_crossover_match_direct_formulas(self):
        m = TwoRayGround()
        lam = 299792458.0 / 914e6
        assert m.wavelength_m == pytest.approx(lam)
        assert m.crossover_m == pytest.approx(4.0 * math.pi * 1.5 * 1.5 / lam)
