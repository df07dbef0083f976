"""Unbiased point estimation from stratified (biased) samples.

Section 5.1 of the paper: a congressional sample is a union of per-group
uniform samples with different rates, so each sampled tuple carries a
*ScaleFactor* -- the inverse of its stratum's sampling rate.  Then

* ``SUM``:   sum of ``ScaleFactor * value`` over qualifying sample tuples;
* ``COUNT``: sum of ``ScaleFactor`` over qualifying sample tuples;
* ``AVG``:   scaled SUM / scaled COUNT (a ratio estimator).

These are the classic stratified expansion estimators [Coc77]; SUM and COUNT
are exactly unbiased, AVG is asymptotically unbiased.

This module computes the estimates directly from a
:class:`~repro.sampling.stratified.StratifiedSample` (no SQL round trip) and
also returns per-answer-group *variance estimates*, from which
:mod:`repro.estimators.errors` derives confidence bounds.  The SQL rewriting
strategies (:mod:`repro.rewrite`) must agree with these numbers -- that
equivalence is asserted in the integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..engine.expressions import Expression
from ..engine.groupby import group_ids_for
from ..engine.predicates import Predicate
from ..sampling.groups import GroupKey
from ..sampling.stratified import StratifiedSample

__all__ = [
    "GroupEstimate",
    "estimate",
    "estimate_single",
    "expansion_variance",
    "group_support",
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


def estimate(
    sample: StratifiedSample,
    func: str,
    column: Optional[Union[str, Expression]],
    predicate: Optional[Predicate] = None,
    group_by: Sequence[str] = (),
) -> Dict[GroupKey, GroupEstimate]:
    """Estimate ``func(column)`` per answer group.

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

    frame = sample.frame
    if not frame.num_strata:
        return {}
    rows = frame.rows
    keep = np.flatnonzero(frame.qualifies(predicate))
    if column is None or func == "count":
        values = np.ones(len(keep))
    elif isinstance(column, Expression):
        values = np.asarray(column.evaluate(rows), dtype=np.float64)[keep]
    else:
        values = np.asarray(rows.column(column), dtype=np.float64)[keep]

    answer_ids, answer_keys, num_answers = group_ids_for(rows, list(group_by))
    answer_ids = answer_ids[keep]
    stratum_ids = frame.stratum_ids[keep]
    tuples = np.bincount(answer_ids, minlength=num_answers)

    # One (answer group, stratum) cell per pair that holds a qualifying
    # tuple; every other pair contributes nothing to value or variance.
    cells, cell_of = np.unique(
        answer_ids * frame.num_strata + stratum_ids, return_inverse=True
    )
    cell_answer, cell_stratum = np.divmod(cells, frame.num_strata)
    cell_populations = frame.populations[cell_stratum]
    cell_sizes = frame.sizes[cell_stratum]
    sf = frame.sf[keep]

    def expansion(y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        total = np.bincount(answer_ids, weights=y * sf, minlength=num_answers)
        terms = expansion_variance(
            cell_populations,
            cell_sizes,
            np.bincount(cell_of, weights=y, minlength=len(cells)),
            np.bincount(cell_of, weights=y * y, minlength=len(cells)),
        )
        return total, np.bincount(
            cell_answer, weights=terms, minlength=num_answers
        )

    if func == "avg":
        num, num_var = expansion(values)
        den, den_var = expansion(np.ones(len(keep)))
        with np.errstate(divide="ignore", invalid="ignore"):
            value = num / den
            # First-order (delta-method) variance for the ratio estimator,
            # ignoring the covariance term (conservative simplification).
            variance = (num_var + value * value * den_var) / (den * den)
        answered = (tuples > 0) & (den != 0)
    else:
        value, variance = expansion(values)
        answered = tuples > 0
    return {
        answer_keys[aid]: GroupEstimate(
            key=answer_keys[aid],
            value=float(value[aid]),
            variance=float(variance[aid]),
            sample_tuples=int(tuples[aid]),
        )
        for aid in np.flatnonzero(answered)
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


def group_support(
    sample: StratifiedSample,
    predicate: Optional[Predicate] = None,
    group_by: Sequence[str] = (),
) -> Dict[GroupKey, int]:
    """Qualifying sample tuples per answer group.

    The serve-time guard uses this to decide whether an answer group has
    enough sample support for its estimate to be trusted (the paper's
    small-group problem, observed at answer time).  Groups with zero
    qualifying tuples are absent, mirroring :func:`estimate`.
    """
    frame = sample.frame
    if not frame.num_strata:
        return {}
    answer_ids, answer_keys, num_answers = group_ids_for(
        frame.rows, list(group_by)
    )
    counts = np.bincount(
        answer_ids[frame.qualifies(predicate)], minlength=num_answers
    )
    return {
        answer_keys[aid]: int(counts[aid]) for aid in np.flatnonzero(counts)
    }


def expansion_variance(
    populations: np.ndarray,
    sizes: np.ndarray,
    sums: np.ndarray,
    sumsq: np.ndarray,
) -> np.ndarray:
    """Per-stratum contributions to the expansion estimator's variance.

    The estimator works on the *zero-extended* values ``y' = y * mask`` so
    that the predicate/answer-group restriction is handled inside each
    stratum: the estimate is ``sum_g (N_g/n_g) * sum_{i in sample_g} y'_i``
    and its estimated variance is ``sum_g N_g^2 (1 - n_g/N_g) s'^2_g / n_g``
    with ``s'^2_g`` the within-stratum sample variance of ``y'`` [Coc77,
    ch. 5].  ``sums`` and ``sumsq`` are each stratum's sums of ``y'`` and
    ``y'^2`` (the zeros add nothing), ``populations`` and ``sizes`` its
    ``N_g`` and ``n_g``; entry ``g`` of the result is stratum ``g``'s term.
    Singleton strata contribute zero estimated variance (their variance is
    not estimable from one observation; with full enumeration the true
    variance is 0 anyway because the FPC vanishes).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        means = sums / sizes
        sample_var = np.where(
            sizes > 1,
            np.maximum(sumsq - sizes * means * means, 0.0)
            / np.maximum(sizes - 1.0, 1.0),
            0.0,
        )
        fpc = 1.0 - sizes / populations
        return populations * populations * fpc * sample_var / sizes
