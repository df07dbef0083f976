"""Unbiased point estimation from stratified (biased) samples.

Section 5.1 of the paper: a congressional sample is a union of per-group
uniform samples with different rates, so each sampled tuple carries a
*ScaleFactor* -- the inverse of its stratum's sampling rate.  Then

* ``SUM``:   sum of ``ScaleFactor * value`` over qualifying sample tuples;
* ``COUNT``: sum of ``ScaleFactor`` over qualifying sample tuples;
* ``AVG``:   scaled SUM / scaled COUNT (a ratio estimator).

These are the classic stratified expansion estimators [Coc77]; SUM and COUNT
are exactly unbiased, AVG is asymptotically unbiased.

This module's functions are one-aggregate views of the moments kernel
(:class:`~repro.estimators.moments.SampleMoments`) that finalizes every
approximate answer: estimates straight from a
:class:`~repro.sampling.stratified.StratifiedSample` (no SQL round trip)
with per-answer-group *variance estimates*, from which
:mod:`repro.estimators.errors` derives confidence bounds.  The SQL rewriting
strategies (:mod:`repro.rewrite`) must agree with these numbers -- that
equivalence is asserted in the integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

import numpy as np

from ..engine.aggregates import Aggregate
from ..engine.expressions import Col, Expression, Lit
from ..engine.groupby import key_tuples
from ..engine.predicates import Predicate
from ..engine.table import Table
from ..sampling.groups import GroupKey
from ..sampling.stratified import StratifiedSample
from .errors import DEFAULT_CONFIDENCE, _check_confidence
from .moments import GroupedEstimates, SampleMoments, expansion_variance

__all__ = [
    "GroupEstimate",
    "estimate",
    "estimate_single",
    "expansion_variance",
    "hoeffding_halfwidths",
]


@dataclass(frozen=True)
class GroupEstimate:
    """Estimate for one answer group of a group-by query.

    Attributes:
        key: the answer-group key (over the query's group-by columns).
        value: the point estimate.
        variance: estimated variance of the point estimate (NaN when it
            cannot be estimated, e.g. singleton strata).
        sample_tuples: number of sample tuples that contributed.
    """

    key: GroupKey
    value: float
    variance: float
    sample_tuples: int

    @property
    def std_error(self) -> float:
        return float(np.sqrt(self.variance)) if self.variance >= 0 else float("nan")


def _by_key(estimates: GroupedEstimates) -> Dict[GroupKey, int]:
    """Row index of each answered group (zero support: absent)."""
    keys = (
        key_tuples(estimates.key_arrays)
        if estimates.group_by
        else [()] * len(estimates.support)
    )
    return {
        keys[i]: i for i in np.flatnonzero(estimates.support > 0).tolist()
    }


def estimate(
    sample: StratifiedSample,
    func: str,
    column: Optional[Union[str, Expression]],
    predicate: Optional[Predicate] = None,
    group_by: Sequence[str] = (),
) -> Dict[GroupKey, GroupEstimate]:
    """Estimate ``func(column)`` per answer group.

    One aggregate through the moments kernel
    (:class:`~repro.estimators.moments.SampleMoments`), the one every
    approximate answer is finalized by.

    Args:
        sample: the stratified sample.
        func: ``"sum"``, ``"count"``, or ``"avg"``.
        column: aggregate column name or arbitrary scalar
            :class:`~repro.engine.expressions.Expression` (ignored for
            count; pass ``None``).
        predicate: optional WHERE predicate, evaluated on sample tuples.
        group_by: answer grouping columns ``T'`` (may be any subset of the
            base table's columns, though congressional guarantees only hold
            for subsets of the stratification columns).

    Returns:
        Mapping from answer-group key to :class:`GroupEstimate`.  Groups
        with no qualifying sample tuples are absent (the sample cannot know
        about them) -- the paper's first user requirement is handled by the
        allocation guaranteeing minimum per-group sample sizes.
    """
    func = func.lower()
    if func not in ("sum", "count", "avg"):
        raise ValueError(f"unsupported estimator {func!r}")
    if func != "count" and column is None:
        raise ValueError(f"{func} requires an aggregate column")
    if func == "count":
        expr: Expression = Lit(1)
    else:
        expr = column if isinstance(column, Expression) else Col(column)
    aggregate = Aggregate(func, expr, "estimate")
    estimates = SampleMoments.build(
        sample, predicate, [aggregate], group_by
    ).finalize(group_by, [aggregate], DEFAULT_CONFIDENCE)
    value = estimates.values["estimate"]
    variance = estimates.variances["estimate"]
    return {
        key: GroupEstimate(
            key=key,
            value=float(value[i]),
            variance=float(variance[i]),
            sample_tuples=int(estimates.support[i]),
        )
        for key, i in _by_key(estimates).items()
    }


def estimate_single(
    sample: StratifiedSample,
    func: str,
    column: Optional[Union[str, Expression]],
    predicate: Optional[Predicate] = None,
) -> Optional[GroupEstimate]:
    """Estimate a no-group-by aggregate; ``None`` if nothing qualifies."""
    result = estimate(sample, func, column, predicate=predicate, group_by=())
    return result.get(())


def hoeffding_halfwidths(
    base: Table,
    sample: StratifiedSample,
    aggregate: Aggregate,
    group_by: Sequence[str],
    confidence: float = DEFAULT_CONFIDENCE,
) -> Dict[GroupKey, float]:
    """Per-answer-group Hoeffding half-widths of a SUM/COUNT estimate.

    ``group_by`` lies within the stratification columns.  Per-stratum
    value ranges come from the base relation
    (:func:`~repro.estimators.errors.zero_extended_ranges`); the terms of
    a group's sampled strata sum as in
    :func:`~repro.estimators.errors.hoeffding_halfwidth_stratified_sum`.
    """
    _check_confidence(confidence)
    estimates = SampleMoments.build(
        sample, None, [aggregate], group_by, base=base
    ).finalize(group_by, [aggregate], confidence)
    halfwidths = estimates.halfwidths[aggregate.alias]
    return {
        key: float(halfwidths[i]) for key, i in _by_key(estimates).items()
    }
