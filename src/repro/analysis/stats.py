"""Statistics helpers for experiment summaries.

The reproduction claim is about *shape* — who wins and by roughly what
factor — so the comparison utilities focus on orderings, ratios and
monotonicity rather than absolute agreement with the paper's NS-2 numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


def mean_confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> tuple[float, float]:
    """Sample mean and half-width of its t-distribution confidence interval.

    A single observation (or identical observations) yields a zero
    half-width rather than NaN, so tables render cleanly for 1-seed runs.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("need at least one value")
    n = len(vals)
    mean = sum(vals) / n
    if n == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in vals) / (n - 1)
    if var == 0.0:
        return mean, 0.0
    sem = math.sqrt(var / n)
    # Deferred: importing scipy would cost every CLI and worker process.
    from scipy import stats as _scipy_stats

    tcrit = float(_scipy_stats.t.ppf(0.5 + confidence / 2.0, df=n - 1))
    return mean, tcrit * sem


@dataclass(frozen=True)
class SeriesComparison:
    """Shape comparison between a measured and a reference series."""

    #: Spearman rank correlation between the two series (shape agreement).
    rank_correlation: float
    #: Measured / reference ratio at the final (saturation) point.
    final_ratio: float
    #: Mean of pointwise measured/reference ratios.
    mean_ratio: float


def compare_series(
    measured: Sequence[float], reference: Sequence[float]
) -> SeriesComparison:
    """Quantify how well ``measured`` replicates ``reference``'s shape."""
    if len(measured) != len(reference) or not measured:
        raise ValueError("series must be equal-length and non-empty")
    ref = [float(x) for x in reference]
    mea = [float(x) for x in measured]
    if any(r == 0 for r in ref):
        raise ValueError("reference series must be non-zero")
    if len(mea) >= 2:
        from scipy import stats as _scipy_stats

        rho = float(_scipy_stats.spearmanr(mea, ref).statistic)
        if math.isnan(rho):
            rho = 1.0 if mea == sorted(mea) else 0.0
    else:
        rho = 1.0
    ratios = [m / r for m, r in zip(mea, ref)]
    return SeriesComparison(
        rank_correlation=rho,
        final_ratio=ratios[-1],
        mean_ratio=sum(ratios) / len(ratios),
    )


def saturation_ordering(series: dict[str, Sequence[float]]) -> list[str]:
    """Protocol names sorted by their final-point value, descending."""
    return sorted(series, key=lambda k: series[k][-1], reverse=True)
