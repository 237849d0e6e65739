"""RNG registry tests: determinism and stream isolation."""

from __future__ import annotations

import pytest

from repro.sim.rng import RngRegistry


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = RngRegistry(7).stream("mac.3")
        b = RngRegistry(7).stream("mac.3")
        assert a.integers(0, 1000, size=10) == b.integers(0, 1000, size=10)

    def test_different_seeds_differ(self):
        a = RngRegistry(7).stream("mac.3")
        b = RngRegistry(8).stream("mac.3")
        assert a.integers(0, 10**9) != b.integers(0, 10**9)

    def test_streams_are_independent_of_creation_order(self):
        r1 = RngRegistry(5)
        r1.stream("x")
        v1 = r1.stream("y").integers(0, 10**9)
        r2 = RngRegistry(5)
        v2 = r2.stream("y").integers(0, 10**9)  # "y" created first here
        assert v1 == v2

    def test_stream_is_cached(self):
        r = RngRegistry(1)
        assert r.stream("a") is r.stream("a")

    def test_distinct_names_distinct_streams(self):
        r = RngRegistry(1)
        assert r.stream("a") is not r.stream("b")


class TestConvenience:
    def test_uniform_within_bounds(self):
        r = RngRegistry(3)
        for _ in range(100):
            v = r.uniform("u", 2.0, 5.0)
            assert 2.0 <= v <= 5.0

    def test_randint_inclusive_bounds(self):
        r = RngRegistry(3)
        values = {r.randint("i", 0, 3) for _ in range(200)}
        assert values == {0, 1, 2, 3}

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            RngRegistry(-1)
