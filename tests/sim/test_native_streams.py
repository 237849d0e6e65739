"""Native PCG64 streams against numpy, draw for draw.

:class:`repro.sim.rng.Stream` reproduces ``Generator(PCG64(SeedSequence(
entropy=seed, spawn_key=(crc32(name),))))`` on plain Python ints.  These
properties build that numpy generator for the same seed and name and compare
every draw with ``==``: interleaved ``random``, ``uniform`` and ``integers``
(so 32-bit draws share 64-bit outputs through PCG64's half-word buffer),
every branch of numpy's bounded-integer sampler, ``size=`` fills, and the
registry's once-mixed seed pool across seeds of one to seven 32-bit words.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.rng import RngRegistry, Stream

# Inclusive integer ranges, one per branch of numpy's sampler and its edges:
# zero (no draw), 32-bit Lemire, exactly 2**32 - 1 (one raw 32-bit draw) and
# 64-bit Lemire.
RANGES = (0, 1, 30, 1023, 2**32 - 2, 2**32 - 1, 2**32, 2**40)

_SEEDS = st.one_of(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=0, max_value=2**224),  # beyond the 4-word pool
)
_NAMES = st.text(max_size=16)
_DRAW = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(
        st.just("uniform"),
        st.floats(min_value=-1e6, max_value=1e6),
        st.floats(min_value=0.0, max_value=1e6),
    ),
    st.tuples(
        st.just("integers"),
        st.integers(min_value=-(2**40), max_value=2**40),
        st.sampled_from(RANGES),
        st.booleans(),
    ),
)
_SHAPE = st.one_of(
    st.integers(min_value=0, max_value=6),
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3).map(
        tuple
    ),
)


def numpy_twin(seed: int, name: str) -> np.random.Generator:
    """numpy's generator for ``name`` under ``seed``, by the general path."""
    key = zlib.crc32(name.encode("utf-8"))
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(key,))
    return np.random.Generator(np.random.PCG64(seq))


def draw(gen, op):
    """Apply one drawn operation to a native or numpy generator."""
    if op[0] == "random":
        return gen.random()
    if op[0] == "uniform":
        _, low, width = op
        return gen.uniform(low, low + width)
    _, low, span, endpoint = op
    # ``span`` is the inclusive range either way.
    return gen.integers(low, low + span + (not endpoint), endpoint=endpoint)


def same(native, reference) -> bool:
    """Equal values, and plain Python scalars on the native side."""
    if isinstance(reference, np.integer):
        return type(native) is int and native == int(reference)
    return type(native) is float and native == float(reference)


class TestDrawForDraw:
    @given(seed=_SEEDS, name=_NAMES, ops=st.lists(_DRAW, max_size=80))
    def test_interleaved_draws_match_numpy(self, seed, name, ops):
        native = RngRegistry(seed).stream(name)
        reference = numpy_twin(seed, name)
        for op in ops:
            a, b = draw(native, op), draw(reference, op)
            assert same(a, b), (op, a, b)
        # Both ends of every leftover half-word agree too.
        assert native.integers(0, 2**16) == reference.integers(0, 2**16)
        assert native.random() == reference.random()

    @pytest.mark.parametrize("span", RANGES)
    @pytest.mark.parametrize("endpoint", [False, True])
    def test_every_sampler_branch(self, span, endpoint):
        # An odd number of 32-bit draws between 64-bit ones leaves a
        # buffered half-word behind each time.
        native = RngRegistry(11).stream("branch")
        reference = numpy_twin(11, "branch")
        op = ("integers", -5, span, endpoint)
        for _ in range(200):
            for o in (op, op, op, ("random",)):
                a, b = draw(native, o), draw(reference, o)
                assert same(a, b), (o, a, b)

    def test_full_int64_range(self):
        native = RngRegistry(2).stream("wide")
        reference = numpy_twin(2, "wide")
        for _ in range(50):
            a = native.integers(-(2**63), 2**63 - 1, endpoint=True)
            assert same(a, reference.integers(-(2**63), 2**63 - 1, endpoint=True))
            assert same(native.integers(0, 2**33), reference.integers(0, 2**33))

    @given(seed=_SEEDS, name=_NAMES, shape=_SHAPE, low=st.integers(-99, 99))
    def test_size_fills_match_numpy_in_c_order(self, seed, name, shape, low):
        native = RngRegistry(seed).stream(name)
        reference = numpy_twin(seed, name)
        assert native.random(size=shape) == reference.random(size=shape).tolist()
        assert (
            native.uniform(low, 2 * abs(low) + low, size=shape)
            == reference.uniform(low, 2 * abs(low) + low, size=shape).tolist()
        )
        for span in (30, 2**32 - 1, 2**40):
            got = native.integers(low, low + span, size=shape, endpoint=True)
            want = reference.integers(low, low + span, size=shape, endpoint=True)
            assert got == want.tolist()
        assert same(native.integers(0, 7), reference.integers(0, 7))

    @pytest.mark.parametrize("shape", [5, (0,), (2, 3), (3, 1, 2), (4, 0)])
    def test_shaped_fill_is_c_order(self, shape):
        native = RngRegistry(4).stream("fill")
        reference = numpy_twin(4, "fill")
        got = native.integers(0, 10**6, size=shape)
        assert got == reference.integers(0, 10**6, size=shape).tolist()
        assert same(native.random(), reference.random())

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            ((5, 2), {}),
            ((3, 3), {}),
            ((0, 0), {}),
            ((0, -1), {"endpoint": True}),
            ((4, 3), {"endpoint": True}),
            ((-(2**63) - 1, 0), {}),
            ((0, 2**63), {"endpoint": True}),
        ],
    )
    def test_bad_integer_bounds_raise_like_numpy(self, args, kwargs):
        with pytest.raises(ValueError) as want:
            numpy_twin(1, "e").integers(*args, **kwargs)
        with pytest.raises(ValueError, match=str(want.value)):
            RngRegistry(1).stream("e").integers(*args, **kwargs)

    @pytest.mark.parametrize(
        "low, high, error",
        [(5.0, 2.0, ValueError), (0.0, float("inf"), OverflowError)],
    )
    def test_bad_uniform_bounds_raise_like_numpy(self, low, high, error):
        with pytest.raises(error):
            numpy_twin(1, "e").uniform(low, high)
        with pytest.raises(error):
            RngRegistry(1).stream("e").uniform(low, high)


class TestSeeding:
    @given(
        seed=_SEEDS,
        names=st.lists(_NAMES, min_size=1, max_size=8, unique=True),
    )
    def test_cached_pool_matches_the_general_seed_sequence(self, seed, names):
        # One registry mixes the seed once and serves every name from that
        # pool; each stream must equal a SeedSequence built from scratch.
        registry = RngRegistry(seed)
        for name in names:
            native = registry.stream(name)
            reference = numpy_twin(seed, name)
            assert [native.integers(0, 2**40) for _ in range(3)] == [
                int(reference.integers(0, 2**40)) for _ in range(3)
            ]

    @pytest.mark.parametrize(
        "seed", [0, 2**32 - 1, 2**32, 2**96 + 3, 2**128 - 1, 2**128, 2**200 + 7]
    )
    def test_seed_word_counts(self, seed):
        # One to seven 32-bit words: below, at and beyond the 4-word pool.
        native = RngRegistry(seed).stream("mac.0")
        reference = numpy_twin(seed, "mac.0")
        assert native.random(size=4) == reference.random(size=4).tolist()

    def test_stream_seeds_like_pcg64_set_seed(self):
        # ``Stream(initstate, initseq)`` is PCG64 after ``set_seed``: with
        # the SeedSequence's four 64-bit state words it is numpy's PCG64.
        seq = np.random.SeedSequence(entropy=99, spawn_key=(5,))
        words = [int(w) for w in seq.generate_state(4, np.uint64)]
        native = Stream(words[0] << 64 | words[1], words[2] << 64 | words[3])
        reference = np.random.Generator(np.random.PCG64(seq))
        assert native.random(size=20) == reference.random(size=20).tolist()


class TestOneKindPerName:
    def test_numpy_stream_refuses_a_native_name(self):
        registry = RngRegistry(3)
        registry.stream("placement")
        with pytest.raises(ValueError, match="'placement' is already a native"):
            registry.numpy_stream("placement")

    def test_stream_refuses_a_numpy_name(self):
        registry = RngRegistry(3)
        registry.numpy_stream("placement")
        with pytest.raises(ValueError, match="'placement' is already a numpy"):
            registry.stream("placement")

    def test_numpy_stream_is_the_numpy_twin_and_cached(self):
        registry = RngRegistry(3)
        gen = registry.numpy_stream("traffic.0")
        assert registry.numpy_stream("traffic.0") is gen
        reference = numpy_twin(3, "traffic.0")
        assert gen.exponential(2.0) == reference.exponential(2.0)
