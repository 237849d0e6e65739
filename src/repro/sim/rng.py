"""Named, reproducible random-number streams.

Every stochastic component (mobility, traffic, MAC backoff per node, AODV
jitter per node) draws from its *own* named stream derived from the scenario
seed.  This gives two properties the experiments need:

* **Reproducibility** — the same scenario seed always yields the same run.
* **Variance isolation** — changing, say, the MAC protocol does not perturb
  the mobility pattern, because each consumer has an independent stream
  (common random numbers across protocol arms, the standard variance
  reduction for simulation comparisons).

A stream is numpy's ``Generator(PCG64(SeedSequence(entropy=seed,
spawn_key=(crc32(name),))))``, reproduced draw for draw on plain Python
ints by :class:`Stream`, so a simulation process never imports numpy:

* **Seeding** is ``SeedSequence``'s hash mix.  The seed splits into 32-bit
  words (least significant first), padded with zeros to the 4-word pool;
  the pool is hashed and cross-mixed, then the name's CRC word is mixed
  into every pool word, and eight output words give PCG64's 128-bit state
  and increment.  :class:`RngRegistry` mixes the seed's words once and each
  stream mixes in only its name word.
* **PCG64** is a 128-bit LCG with the XSL-RR output function: step
  ``state = state * M + inc``, then rotate ``hi ^ lo`` of the new state
  right by its top six bits.  A 32-bit draw takes the low half of a 64-bit
  output and keeps the high half for the next 32-bit draw.
* **Variates**: ``random()`` is ``(next64 >> 11) * 2**-53``;
  ``uniform(low, high)`` is ``low + (high - low) * random()``;
  ``integers`` follows numpy's branches: a zero range draws nothing, a
  range up to ``2**32 - 1`` takes Lemire's method on 32-bit draws, and
  wider ranges the same on 64-bit draws (numpy's raw-draw branches for a
  full ``2**32 - 1`` or ``2**64 - 1`` are what Lemire's step gives
  there).  ``size=`` fills return lists, nested in C order for a shape.

Three consumers need numpy's ziggurat ``normal`` and ``exponential`` or its
``choice``, which plain Python cannot reproduce exactly: cluster placement,
Poisson traffic and the crash plan of churn faults.  They take
:meth:`RngRegistry.numpy_stream`, which imports numpy on first use and
returns the numpy ``Generator`` for that name.  A name is served by one kind
of stream only, since the two would otherwise diverge.
"""

from __future__ import annotations

import math
import zlib
from operator import index
from typing import TYPE_CHECKING, Any, Protocol

if TYPE_CHECKING:
    import numpy as np

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1

# numpy.random.SeedSequence hash-mix constants.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

# PCG64's 128-bit LCG multiplier.
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341

_TO_UNIT = 2.0**-53  # a 53-bit integer to a float in [0, 1)
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


class StreamLike(Protocol):
    """The draws a stream consumer makes; numpy's ``Generator`` has them too."""

    def random(self, size: Any = None) -> Any:
        """Uniform float(s) in ``[0, 1)``."""

    def uniform(self, low: float = 0.0, high: float = 1.0, size: Any = None) -> Any:
        """Uniform float(s) in ``[low, high)``."""

    def integers(
        self, low: int, high: int, size: Any = None, endpoint: bool = False
    ) -> Any:
        """Integer(s) in ``[low, high)``, or ``[low, high]`` with ``endpoint``."""


def _mix(x: int, y: int) -> int:
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return r ^ (r >> 16)


class _EntropyPool:
    """``SeedSequence`` state after mixing in the run entropy (the seed)."""

    __slots__ = ("_pool", "_hash")

    def __init__(self, seed: int) -> None:
        words = []
        while True:
            words.append(seed & _M32)
            seed >>= 32
            if not seed:
                break
        # A spawn key follows, so the run entropy fills the pool first.
        words += [0] * (_POOL_SIZE - len(words))
        self._hash = _INIT_A
        pool = [self._hashmix(w) for w in words[:_POOL_SIZE]]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = _mix(pool[dst], self._hashmix(pool[src]))
        for word in words[_POOL_SIZE:]:  # seeds above 2**128
            pool = [_mix(p, self._hashmix(word)) for p in pool]
        self._pool = pool

    def _hashmix(self, value: int) -> int:
        value ^= self._hash
        self._hash = h = (self._hash * _MULT_A) & _M32
        value = (value * h) & _M32
        return value ^ (value >> 16)

    def stream(self, key: int) -> Stream:
        """The stream of ``SeedSequence(seed, spawn_key=(key,))``, ``key < 2**32``."""
        h = self._hash
        pool = []
        for word in self._pool:
            value = key ^ h
            h = (h * _MULT_A) & _M32
            value = (value * h) & _M32
            pool.append(_mix(word, value ^ (value >> 16)))
        # generate_state(4, uint64): eight words cycling the pool, read as
        # four little-endian 64-bit words.
        h = _INIT_B
        out = []
        for word in pool + pool:
            value = word ^ h
            h = (h * _MULT_B) & _M32
            value = (value * h) & _M32
            out.append(value ^ (value >> 16))
        return Stream(
            (out[0] | out[1] << 32) << 64 | out[2] | out[3] << 32,
            (out[4] | out[5] << 32) << 64 | out[6] | out[7] << 32,
        )


class Stream:
    """numpy's ``Generator(PCG64(...))`` draws on plain Python ints.

    ``Stream(initstate, initseq)`` seeds like PCG64's ``set_seed``.  Scalar
    draws return Python ``int``/``float``; ``size=`` (an int or a shape
    tuple) returns a list, nested in C order.
    """

    __slots__ = ("_state", "_inc", "_has_uint32", "_uinteger")

    def __init__(self, initstate: int, initseq: int) -> None:
        self._inc = inc = (initseq << 1 | 1) & _M128
        # From state 0: step (giving ``inc``), add ``initstate``, step.
        self._state = ((inc + initstate) * _PCG_MULT + inc) & _M128
        self._has_uint32 = False
        self._uinteger = 0

    def _next64(self) -> int:
        self._state = s = (self._state * _PCG_MULT + self._inc) & _M128
        x = ((s >> 64) ^ s) & _M64
        rot = s >> 122
        return ((x >> rot) | (x << (64 - rot))) & _M64

    def _next32(self) -> int:
        if self._has_uint32:
            self._has_uint32 = False
            return self._uinteger
        x = self._next64()
        self._has_uint32 = True
        self._uinteger = x >> 32
        return x & _M32

    def _bounded(self, rng: int) -> int:
        """A draw in ``[0, rng]`` by numpy's ``random_bounded_uint64_fill``.

        numpy special-cases ``rng`` of exactly ``2**32 - 1`` and ``2**64 - 1``
        as one raw draw; on unbounded ints Lemire's step gives that draw too.
        """
        if rng == 0:
            return 0
        if rng <= _M32:
            draw, bits, mask = self._next32, 32, _M32
        else:
            draw, bits, mask = self._next64, 64, _M64
        excl = rng + 1
        m = draw() * excl
        if (m & mask) < excl:
            threshold = (mask - rng) % excl
            while (m & mask) < threshold:
                m = draw() * excl
        return m >> bits

    def random(self, size=None):
        """Uniform float(s) in ``[0, 1)`` with 53 random bits."""
        if size is None:
            # _next64 inlined: this is the radio's per-edge corruption draw.
            self._state = s = (self._state * _PCG_MULT + self._inc) & _M128
            x = ((s >> 64) ^ s) & _M64
            rot = s >> 122
            return ((((x >> rot) | (x << (64 - rot))) & _M64) >> 11) * _TO_UNIT
        return _fill(self.random, size)

    def uniform(self, low=0.0, high=1.0, size=None):
        """Uniform float(s) in ``[low, high)``."""
        low = float(low)
        span = float(high) - low
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if span < 0:
            raise ValueError("high - low < 0")
        if size is None:
            return low + span * ((self._next64() >> 11) * _TO_UNIT)
        return _fill(lambda: low + span * self.random(), size)

    def integers(self, low, high, size=None, endpoint=False):
        """Integer(s) in ``[low, high)``, or ``[low, high]`` with ``endpoint``."""
        low = int(low)
        high = int(high)
        if not endpoint:
            high -= 1
        if low < _INT64_MIN:
            raise ValueError("low is out of bounds for int64")
        if high > _INT64_MAX:
            raise ValueError("high is out of bounds for int64")
        if low > high:
            if low == 0:
                raise ValueError("high < 0" if endpoint else "high <= 0")
            raise ValueError("low > high" if endpoint else "low >= high")
        rng = high - low
        if size is None:
            return low + self._bounded(rng)
        return _fill(lambda: low + self._bounded(rng), size)


def _fill(draw, size) -> list:
    """``draw()`` repeated over ``size`` (an int or shape tuple), C order."""
    shape = tuple(size) if isinstance(size, (tuple, list)) else (index(size),)
    if any(n < 0 for n in shape):
        raise ValueError("negative dimensions are not allowed")
    if not shape:
        return draw()

    def build(dims: tuple[int, ...]) -> list:
        if len(dims) == 1:
            return [draw() for _ in range(dims[0])]
        return [build(dims[1:]) for _ in range(dims[0])]

    return build(shape)


class RngRegistry:
    """Factory of named random streams for one scenario seed."""

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed!r}")
        self._seed = int(seed)
        self._pool = _EntropyPool(self._seed)
        self._streams: dict[str, Stream] = {}
        self._numpy_streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root scenario seed."""
        return self._seed

    def stream(self, name: str) -> Stream:
        """Return the stream for ``name``, creating it deterministically.

        The stream key is derived from a CRC of the name so that stream
        identity depends only on the *name*, never on creation order.
        """
        gen = self._streams.get(name)
        if gen is None:
            if name in self._numpy_streams:
                raise ValueError(
                    f"stream {name!r} is already a numpy stream; one name "
                    "serves one kind of stream"
                )
            gen = self._pool.stream(zlib.crc32(name.encode("utf-8")))
            self._streams[name] = gen
        return gen

    def numpy_stream(self, name: str) -> np.random.Generator:
        """The numpy ``Generator`` for ``name`` (same seeding as :meth:`stream`).

        For consumers that need numpy-only distributions; importing numpy is
        deferred to the first call.
        """
        gen = self._numpy_streams.get(name)
        if gen is None:
            if name in self._streams:
                raise ValueError(
                    f"stream {name!r} is already a native stream; one name "
                    "serves one kind of stream"
                )
            import numpy as np

            key = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence(entropy=self._seed, spawn_key=(key,))
            gen = np.random.Generator(np.random.PCG64(seq))
            self._numpy_streams[name] = gen
        return gen

    def uniform(self, name: str, low: float, high: float) -> float:
        """One uniform draw from the named stream."""
        return self.stream(name).uniform(low, high)

    def randint(self, name: str, low: int, high: int) -> int:
        """One integer draw in [low, high] inclusive from the named stream."""
        return self.stream(name).integers(low, high, endpoint=True)
