"""Probabilistic error bounds for approximate answers.

Aqua supplements every approximate answer with an error bound at a chosen
confidence level (Section 2: "probabilistic error/confidence bounds on the
answer, based on the Hoeffding and Chebyshev formulas").  Three bound
families are provided:

* **Standard error** of the sample mean under uniform sampling without
  replacement (Equation 2), with the finite-population correction.
* **Hoeffding** bounds: distribution-free, need only the value range.
* **Chebyshev** bounds: need a variance estimate, valid for any estimator
  with finite variance -- this is what we attach to stratified estimates.

All half-width helpers return the bound ``e`` such that the true value lies
within ``estimate ± e`` with at least the requested confidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..engine.aggregates import Aggregate, grouped_reduce
from ..engine.table import Table
from ..sampling.groups import GroupKey, finest_group_ids, project_key
from ..sampling.stratified import StratifiedSample

__all__ = [
    "ErrorBound",
    "standard_error",
    "normal_quantile",
    "normal_halfwidth",
    "hoeffding_halfwidth_mean",
    "hoeffding_halfwidth_sum",
    "hoeffding_halfwidth_stratified_sum",
    "hoeffding_halfwidths",
    "zero_extended_ranges",
    "chebyshev_halfwidth",
    "chebyshev_from_variance",
    "relative_halfwidth",
]

DEFAULT_CONFIDENCE = 0.90  # Aqua's example confidence level (Figure 4)


@dataclass(frozen=True)
class ErrorBound:
    """A symmetric error bound at a confidence level."""

    halfwidth: float
    confidence: float
    method: str

    def interval(self, estimate: float) -> tuple:
        return (estimate - self.halfwidth, estimate + self.halfwidth)


def _check_confidence(confidence: float) -> None:
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")


def standard_error(
    population_std: float, sample_size: int, population_size: int
) -> float:
    """Equation 2: ``S/sqrt(n) * sqrt(1 - n/N)``.

    Args:
        population_std: ``S``, the (population) standard deviation.
        sample_size: ``n``.
        population_size: ``N``.
    """
    if sample_size <= 0:
        return float("inf")
    if population_size <= 0 or sample_size > population_size:
        raise ValueError(
            f"need 0 < n <= N, got n={sample_size} N={population_size}"
        )
    fpc = 1.0 - sample_size / population_size
    return population_std / math.sqrt(sample_size) * math.sqrt(max(fpc, 0.0))


def normal_quantile(p: float) -> float:
    """The standard normal quantile function ``Phi^{-1}(p)``.

    Acklam's rational approximation (relative error below ``1.15e-9``
    everywhere), so the standard-error bound family needs no scipy.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    # Coefficients for the central and tail regions.
    a = (-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)
    p_low, p_high = 0.02425, 1 - 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
                + c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    if p > p_high:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
                 + c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r
            + a[5]) * q / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r
                            + b[4]) * r + 1)


def normal_halfwidth(
    std_error: float, confidence: float = DEFAULT_CONFIDENCE
) -> float:
    """Standard-error (normal-approximation) half-width: ``z * SE``.

    The CLT-based bound family: at confidence ``1 - delta`` the half-width
    is ``Phi^{-1}(1 - delta/2) * SE``.  Unlike Chebyshev this is *exact* at
    the nominal level for (asymptotically) normal estimators rather than
    conservative, which is what makes it the right family for the
    calibration harness in :mod:`repro.verify`: empirical coverage of a 95%
    normal bound should sit *at* 95%, inside a statistical tolerance band,
    not merely above it.
    """
    _check_confidence(confidence)
    if std_error < 0:
        raise ValueError(f"std error must be >= 0, got {std_error}")
    delta = 1.0 - confidence
    return normal_quantile(1.0 - delta / 2.0) * std_error


def hoeffding_halfwidth_mean(
    value_range: float, sample_size: int, confidence: float = DEFAULT_CONFIDENCE
) -> float:
    """Hoeffding bound on the error of a sample mean of bounded values.

    For n iid observations in an interval of width ``value_range``::

        P(|mean_est - mean| >= e) <= 2 exp(-2 n e^2 / range^2)

    giving ``e = range * sqrt(ln(2/delta) / (2n))`` at confidence
    ``1 - delta``.
    """
    _check_confidence(confidence)
    if sample_size <= 0:
        return float("inf")
    if value_range < 0:
        raise ValueError(f"value range must be >= 0, got {value_range}")
    delta = 1.0 - confidence
    return value_range * math.sqrt(math.log(2.0 / delta) / (2.0 * sample_size))


def hoeffding_halfwidth_sum(
    value_range: float,
    sample_size: int,
    population_size: int,
    confidence: float = DEFAULT_CONFIDENCE,
) -> float:
    """Hoeffding bound for an expansion SUM estimate from a uniform sample.

    The SUM estimator is ``N * mean_est``, so the mean bound scales by
    ``N``.  This is the ``sum_error`` of the paper's Figure 2 rewrite.
    """
    if population_size < 0:
        raise ValueError(f"population size must be >= 0, got {population_size}")
    return population_size * hoeffding_halfwidth_mean(
        value_range, sample_size, confidence
    )


def hoeffding_halfwidth_stratified_sum(
    ranges: "list[float]",
    populations: "list[float]",
    sizes: "list[int]",
    confidence: float = DEFAULT_CONFIDENCE,
) -> float:
    """Hoeffding bound for a *stratified* expansion SUM estimate.

    The estimator ``sum_g (N_g / n_g) * sum_i y_{g,i}`` is a sum of
    ``sum_g n_g`` independent bounded terms; term ``(g, i)`` ranges over an
    interval of width ``(N_g / n_g) * range_g``.  Hoeffding's inequality
    then gives a half-width of::

        sqrt( ln(2/delta) / 2 * sum_g n_g * (N_g/n_g * range_g)^2 )
      = sqrt( ln(2/delta) / 2 * sum_g N_g^2 range_g^2 / n_g )

    With a single stratum this reduces to
    :func:`hoeffding_halfwidth_sum`.  This is the distribution-free
    alternative to the Chebyshev bound used by default; it needs only the
    per-stratum value ranges, which Aqua can precompute with the synopsis.

    Args:
        ranges: per-stratum value range (max - min).
        populations: per-stratum population ``N_g``.
        sizes: per-stratum sample size ``n_g`` (zero-size strata are
            ignored -- they contribute nothing to the estimator either).
        confidence: confidence level.
    """
    _check_confidence(confidence)
    if not (len(ranges) == len(populations) == len(sizes)):
        raise ValueError("ranges/populations/sizes must align")
    delta = 1.0 - confidence
    total = 0.0
    for value_range, population, size in zip(ranges, populations, sizes):
        if size == 0:
            continue
        if value_range < 0 or population < 0 or size < 0:
            raise ValueError("inputs must be non-negative")
        total += population * population * value_range * value_range / size
    return math.sqrt(math.log(2.0 / delta) / 2.0 * total)


def zero_extended_ranges(
    table: Table,
    aggregate: Aggregate,
    group_ids: np.ndarray,
    num_groups: int,
) -> np.ndarray:
    """Per-group value range of a SUM/COUNT input, zero included.

    COUNT's input is the all-ones column.  The WHERE predicate zeroes out
    non-qualifying tuples, so every range is widened to contain zero.
    ``group_ids`` assigns each row of ``table`` to one of ``num_groups``
    groups.
    """
    if aggregate.func == "count":
        values = np.ones(table.num_rows)
    else:
        values = np.asarray(aggregate.expr.evaluate(table), dtype=np.float64)
    lows = grouped_reduce("min", values, group_ids, num_groups)
    highs = grouped_reduce("max", values, group_ids, num_groups)
    return np.maximum(highs, 0.0) - np.minimum(lows, 0.0)


def hoeffding_halfwidths(
    base: Table,
    sample: StratifiedSample,
    aggregate: Aggregate,
    group_by: Sequence[str],
    confidence: float = DEFAULT_CONFIDENCE,
) -> Dict[GroupKey, float]:
    """Per-answer-group Hoeffding half-widths of a SUM/COUNT estimate.

    Per-stratum value ranges come from the base relation
    (:func:`zero_extended_ranges`); the sampled strata of each
    ``group_by`` group feed
    :func:`hoeffding_halfwidth_stratified_sum`.
    """
    grouping = sample.grouping_columns
    ids, keys = finest_group_ids(base, grouping)
    ranges = zero_extended_ranges(base, aggregate, ids, len(keys)).tolist()
    strata = sample.strata  # one copy of the stratum map, not one per key
    per_answer: Dict[GroupKey, Tuple[List[float], List[float], List[int]]] = {}
    for index, key in enumerate(keys):
        stratum = strata.get(key)
        if stratum is None or stratum.sample_size == 0:
            continue
        r, n, m = per_answer.setdefault(
            project_key(key, grouping, group_by), ([], [], [])
        )
        r.append(ranges[index])
        n.append(float(stratum.population))
        m.append(int(stratum.sample_size))
    return {
        answer: hoeffding_halfwidth_stratified_sum(r, n, m, confidence)
        for answer, (r, n, m) in per_answer.items()
    }


def chebyshev_halfwidth(
    std_error: float, confidence: float = DEFAULT_CONFIDENCE
) -> float:
    """Chebyshev: ``P(|X - mu| >= k sigma) <= 1/k^2``.

    At confidence ``1 - delta`` the half-width is ``sigma / sqrt(delta)``.
    Valid for any finite-variance estimator, hence usable with the
    stratified variance estimates of :mod:`repro.estimators.point`.
    """
    _check_confidence(confidence)
    if std_error < 0:
        raise ValueError(f"std error must be >= 0, got {std_error}")
    delta = 1.0 - confidence
    return std_error / math.sqrt(delta)


def relative_halfwidth(halfwidth: float, estimate: float) -> float:
    """Half-width as a fraction of the estimate's magnitude.

    Used by the serve-time guard to decide whether a bound is tight enough
    to be useful.  ``NaN`` half-widths pass through as ``NaN`` (the guard
    treats them separately); a zero estimate with a nonzero half-width
    yields ``inf`` (the bound says nothing relative to the value), while a
    zero half-width is ``0.0`` regardless of the estimate.
    """
    if math.isnan(halfwidth):
        return float("nan")
    if halfwidth == 0.0:
        return 0.0
    if estimate == 0.0:
        return float("inf")
    return abs(halfwidth) / abs(estimate)


def chebyshev_from_variance(
    variance: float, confidence: float = DEFAULT_CONFIDENCE
) -> ErrorBound:
    """Convenience wrapper: variance -> :class:`ErrorBound`."""
    if variance < 0 or math.isnan(variance):
        return ErrorBound(float("nan"), confidence, "chebyshev")
    return ErrorBound(
        chebyshev_halfwidth(math.sqrt(variance), confidence),
        confidence,
        "chebyshev",
    )
