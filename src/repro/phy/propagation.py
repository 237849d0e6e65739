"""Radio propagation models (NS-2 equivalents).

All models expose ``gain(tx_pos, rx_pos)`` returning the linear power ratio
``P_rx / P_tx`` between two ``(x, y)`` positions.  Working with gains rather
than received powers keeps the channel code independent of transmit power —
PCMAC's admission arithmetic multiplies gains by candidate powers directly,
exactly as the paper's formulas do.

The paper (and NS-2) use :class:`TwoRayGround`: Friis free-space attenuation
(``1/d^2``) below a crossover distance and ground-reflection attenuation
(``1/d^4``) beyond it.  With the WaveLAN defaults the crossover is ~86 m, so
the paper's ten power levels span both regimes: the 40–80 m levels resolve by
the Friis branch and the 90–250 m levels by the two-ray branch (reproduced by
``benchmarks/test_power_level_table.py``).

Performance: ``gain_at`` sits on the channel fan-out hot path (once per
candidate receiver per frame), so every derived quantity — wavelength,
crossover distance, numerator products, the embedded Friis model — is
precomputed in ``__post_init__`` rather than rebuilt per call.  The extra
attributes are set with ``object.__setattr__`` so the dataclasses stay
frozen, hashable and comparable on their declared fields only.

Bulk gains cull, scalar gains schedule
--------------------------------------
``gain_at_many`` is the numpy bulk counterpart of ``gain_at``.  The
channel uses it only to *cull* candidates whose received power falls far
below the interference floor; every power that reaches a scheduled event
comes from the scalar ``gain_at``.  So the bulk path need only agree with
the scalar path to within a tiny relative tolerance (far inside the
channel's ``1e-9`` cull margin), which
``tests/phy/test_propagation_exactness.py`` checks for every model.
:class:`FreeSpace` and :class:`TwoRayGround` spell both paths as the same
correctly-rounded operations (``fpd * fpd``, ``(d·d)·(d·d)``), so they in
fact agree exactly; :class:`LogDistanceShadowing` needs a non-integer power
and agrees to ~1 ulp.  :func:`distance` is ``sqrt(dx² + dy²)`` for the
same reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.units import db_to_ratio, wavelength

Position = tuple[float, float]

#: Minimum distance used in gain computations [m].  Two radios can never be
#: closer than near-field scale; clamping avoids a 1/0 for co-located test
#: radios and keeps gains finite.
MIN_DISTANCE_M = 0.01

#: Precomputed 4π (multiplying π by 4 is exact in binary floating point, so
#: ``_FOUR_PI * d`` is bit-identical to ``4.0 * math.pi * d``).
_FOUR_PI = 4.0 * math.pi


def distance(a: Position, b: Position) -> float:
    """Euclidean distance between two planar positions [m].

    Spelled ``sqrt(dx*dx + dy*dy)`` — three correctly-rounded operations a
    numpy array expression reproduces bit-for-bit (see the module docstring;
    ``math.hypot`` would not).  Overflow is not a concern at field scale.
    """
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    return math.sqrt(dx * dx + dy * dy)


class PropagationModel:
    """Interface: linear gain between two positions, and its inverse."""

    def gain(self, tx_pos: Position, rx_pos: Position) -> float:
        """Linear power ratio P_rx / P_tx between the two positions."""
        raise NotImplementedError

    def gain_at(self, dist_m: float) -> float:
        """Linear gain at a given distance [m]."""
        raise NotImplementedError

    def gain_at_many(self, distances_m) -> np.ndarray:
        """Vectorised :meth:`gain_at` over an array of distances [m].

        The base implementation loops; models override it with closed-form
        numpy expressions that match the scalar path to within a tiny
        relative tolerance, so callers treat them as approximate (cull-only
        in the channel fan-out).
        """
        d = np.asarray(distances_m, dtype=float)
        out = np.fromiter(
            (self.gain_at(float(x)) for x in d.ravel()), dtype=float, count=d.size
        )
        return out.reshape(d.shape)

    def range_for(self, tx_power_w: float, threshold_w: float) -> float:
        """Largest distance at which received power still meets ``threshold_w``.

        Solved analytically by each model; used to reproduce the paper's
        power-level ↔ range table, to size scenarios, and to derive the
        spatial-index cell size in :class:`~repro.phy.channel.Channel`.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class FreeSpace(PropagationModel):
    """Friis free-space model: ``Pr = Pt·Gt·Gr·λ² / ((4π d)² L)``.

    The ``(4πd)²`` factor is computed as ``fpd * fpd`` in both the scalar
    and bulk paths: each step is a single correctly-rounded multiply, so the
    two paths agree exactly.
    """

    frequency_hz: float = 914e6
    gain_tx: float = 1.0
    gain_rx: float = 1.0
    system_loss: float = 1.0

    def __post_init__(self) -> None:
        lam = wavelength(self.frequency_hz)
        object.__setattr__(self, "_wavelength_m", lam)
        object.__setattr__(self, "_numerator", self.gain_tx * self.gain_rx * lam * lam)

    @property
    def wavelength_m(self) -> float:
        """Carrier wavelength [m] (precomputed)."""
        return self._wavelength_m

    def gain_at(self, dist_m: float) -> float:
        """Friis gain at ``dist_m`` (clamped to ``MIN_DISTANCE_M``)."""
        d = dist_m if dist_m > MIN_DISTANCE_M else MIN_DISTANCE_M
        fpd = _FOUR_PI * d
        return self._numerator / (fpd * fpd * self.system_loss)

    def gain_at_many(self, distances_m) -> np.ndarray:
        """Vectorized Friis gains (same operations, same order as ``gain_at``)."""
        d = np.maximum(np.asarray(distances_m, dtype=float), MIN_DISTANCE_M)
        fpd = _FOUR_PI * d
        return self._numerator / (fpd * fpd * self.system_loss)

    def gain(self, tx_pos: Position, rx_pos: Position) -> float:
        """Gain between two positions (Euclidean distance, then Friis)."""
        return self.gain_at(distance(tx_pos, rx_pos))

    def range_for(self, tx_power_w: float, threshold_w: float) -> float:
        """Closed-form Friis inverse: ``d = sqrt(Pt·num / ((4π)²·L·Pth))``."""
        if tx_power_w <= 0 or threshold_w <= 0:
            raise ValueError("powers must be positive")
        num = tx_power_w * self._numerator
        den = _FOUR_PI**2 * self.system_loss * threshold_w
        return math.sqrt(num / den)


@dataclass(frozen=True)
class TwoRayGround(PropagationModel):
    """NS-2 two-ray ground model: Friis below the crossover, ``1/d⁴`` above.

    The crossover distance is ``d_c = 4π·ht·hr / λ``; at ``d_c`` the two
    branches agree, so the gain is continuous.  ``d⁴`` is computed as
    ``(d·d)·(d·d)`` in both the scalar and bulk paths — see the module
    docstring (branch selection is an exact float comparison, identical
    either way).
    """

    frequency_hz: float = 914e6
    gain_tx: float = 1.0
    gain_rx: float = 1.0
    height_tx_m: float = 1.5
    height_rx_m: float = 1.5
    system_loss: float = 1.0

    def __post_init__(self) -> None:
        lam = wavelength(self.frequency_hz)
        ht, hr = self.height_tx_m, self.height_rx_m
        object.__setattr__(self, "_wavelength_m", lam)
        object.__setattr__(
            self, "_crossover_m", 4.0 * math.pi * ht * hr / lam
        )
        object.__setattr__(
            self,
            "_friis",
            FreeSpace(
                frequency_hz=self.frequency_hz,
                gain_tx=self.gain_tx,
                gain_rx=self.gain_rx,
                system_loss=self.system_loss,
            ),
        )
        object.__setattr__(
            self, "_numerator", self.gain_tx * self.gain_rx * ht * ht * hr * hr
        )

    @property
    def wavelength_m(self) -> float:
        """Carrier wavelength [m] (precomputed)."""
        return self._wavelength_m

    @property
    def crossover_m(self) -> float:
        """Distance where the Friis and ground-reflection branches meet."""
        return self._crossover_m

    def gain_at(self, dist_m: float) -> float:
        """Two-ray gain: Friis below the crossover, ``1/d⁴`` at or above."""
        d = dist_m if dist_m > MIN_DISTANCE_M else MIN_DISTANCE_M
        if d < self._crossover_m:
            return self._friis.gain_at(d)
        d2 = d * d
        return self._numerator / (d2 * d2 * self.system_loss)

    def gain_at_many(self, distances_m) -> np.ndarray:
        """Vectorized two-ray gains (both branches mirror ``gain_at``)."""
        d = np.maximum(np.asarray(distances_m, dtype=float), MIN_DISTANCE_M)
        d2 = d * d
        return np.where(
            d < self._crossover_m,
            self._friis.gain_at_many(d),
            self._numerator / (d2 * d2 * self.system_loss),
        )

    def gain(self, tx_pos: Position, rx_pos: Position) -> float:
        """Gain between two positions (Euclidean distance, then two-ray)."""
        return self.gain_at(distance(tx_pos, rx_pos))

    def range_for(self, tx_power_w: float, threshold_w: float) -> float:
        """Analytic inverse, branch-aware (Friis first, ``d⁴`` beyond)."""
        if tx_power_w <= 0 or threshold_w <= 0:
            raise ValueError("powers must be positive")
        # Try the Friis branch first; if its solution lands beyond the
        # crossover the answer lies on the 1/d^4 branch instead.
        d_friis = self._friis.range_for(tx_power_w, threshold_w)
        if d_friis < self._crossover_m:
            return d_friis
        num = tx_power_w * self._numerator
        return (num / (self.system_loss * threshold_w)) ** 0.25


@dataclass(frozen=True)
class LogDistanceShadowing(PropagationModel):
    """Log-distance path loss with optional deterministic shadowing offset.

    Included for robustness experiments: ``gain = G0 · (d0/d)^n · 10^(X/10)``
    where ``G0`` is the Friis gain at the reference distance ``d0``, ``n``
    the path-loss exponent, and ``X`` a fixed shadowing offset in dB.  A
    random per-link offset can be layered by the caller; keeping the model
    itself deterministic preserves reproducibility of gain queries.
    """

    frequency_hz: float = 914e6
    exponent: float = 2.7
    reference_m: float = 1.0
    shadowing_db: float = 0.0
    gain_tx: float = 1.0
    gain_rx: float = 1.0
    system_loss: float = 1.0

    def __post_init__(self) -> None:
        g0 = FreeSpace(
            frequency_hz=self.frequency_hz,
            gain_tx=self.gain_tx,
            gain_rx=self.gain_rx,
            system_loss=self.system_loss,
        ).gain_at(self.reference_m)
        object.__setattr__(self, "_reference_gain_val", g0)
        object.__setattr__(self, "_shadow_factor", db_to_ratio(self.shadowing_db))

    def gain_at(self, dist_m: float) -> float:
        """Log-distance gain ``G0·(d0/d)^n·10^(X/10)`` at ``dist_m``."""
        d = dist_m if dist_m > MIN_DISTANCE_M else MIN_DISTANCE_M
        return (
            self._reference_gain_val
            * (self.reference_m / d) ** self.exponent
            * self._shadow_factor
        )

    def gain_at_many(self, distances_m) -> np.ndarray:
        """Vectorized gains; numpy ``**`` may differ from libm ``pow`` in
        the last ulp, well inside the channel's cull margin."""
        d = np.maximum(np.asarray(distances_m, dtype=float), MIN_DISTANCE_M)
        return (
            self._reference_gain_val
            * (self.reference_m / d) ** self.exponent
            * self._shadow_factor
        )

    def gain(self, tx_pos: Position, rx_pos: Position) -> float:
        """Gain between two positions (Euclidean distance, then log-distance)."""
        return self.gain_at(distance(tx_pos, rx_pos))

    def range_for(self, tx_power_w: float, threshold_w: float) -> float:
        """Analytic inverse of the power law: ``d = d0·(Pt·g0/Pth)^(1/n)``."""
        if tx_power_w <= 0 or threshold_w <= 0:
            raise ValueError("powers must be positive")
        g0 = self._reference_gain_val * self._shadow_factor
        # Solve Pt * g0 * (d0/d)^n = threshold for d.
        ratio = tx_power_w * g0 / threshold_w
        return self.reference_m * ratio ** (1.0 / self.exponent)


def model_from_config(phy) -> TwoRayGround:
    """Build the paper's propagation model from a :class:`PhyConfig`."""
    return TwoRayGround(
        frequency_hz=phy.frequency_hz,
        gain_tx=phy.antenna_gain_tx,
        gain_rx=phy.antenna_gain_rx,
        height_tx_m=phy.antenna_height_tx_m,
        height_rx_m=phy.antenna_height_rx_m,
        system_loss=phy.system_loss,
    )
