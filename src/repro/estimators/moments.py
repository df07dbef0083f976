"""Per-cell expansion moments: the one estimator kernel.

:meth:`SampleMoments.build` evaluates the query's WHERE over a sample's
:class:`~repro.sampling.stratified.SampleFrame`, gathers the rows it keeps
and reduces only those to per-*cell* moments: the qualifying tuples (the
guard's support); per SUM/COUNT/AVG input the scaled sum (the Section 5.1
expansion estimator's numerator), the :func:`expansion_variance` terms and,
with a base relation, the Hoeffding terms ``N^2 range^2 / n``; per MIN/MAX
input the unscaled sample extremum (the estimator the rewrites return).
:meth:`SampleMoments.finalize` rolls the cells up to the query's GROUP BY
by summation and finalizes every approximate answer.

Cells are the strata when the GROUP BY lies within the stratification
columns -- each stratum then lies wholly inside one answer group, so any
such grouping finalizes, which the roll-up tier relies on -- else the
(answer group, stratum) pairs holding a qualifying tuple.
:func:`finalize_moments` is the arithmetic from rolled-up moments to
estimates and Chebyshev half-widths; ``sql_stream`` calls it too, with
the relation as one stratum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..engine.aggregates import (
    Aggregate,
    AggregateState,
    finalize_state,
    partial_reduce,
    rollup_state,
)
from ..engine.expressions import Expression, Lit
from ..engine.groupby import factorize
from ..engine.predicates import Predicate
from ..engine.render import render_expression
from ..engine.table import Table
from ..plan.canonical import canonicalize_expression
from ..sampling.groups import finest_group_ids
from ..sampling.stratified import SampleFrame, StratifiedSample
from .errors import zero_extended_ranges

__all__ = [
    "ESTIMABLE_AGGREGATES",
    "EXTREME_AGGREGATES",
    "GroupedEstimates",
    "ONES_KEY",
    "SampleMoments",
    "expansion_variance",
    "finalize_moments",
    "moment_keys",
]

#: Aggregates the expansion moments estimate; each answer carries an
#: ``<alias>_error`` half-width for them.
ESTIMABLE_AGGREGATES = ("sum", "count", "avg")

#: Aggregates answered by the sample's extremum, with no half-width.
EXTREME_AGGREGATES = ("min", "max")

# Moment-table key for the implicit all-ones column: COUNT is the scaled
# sum of ones, and AVG's denominator is the same state.  ``Lit(1)``
# renders to "1", so an explicit SUM(1) shares it, correctly.
ONES_KEY = "1"


def _expression_key(aggregate: Aggregate) -> str:
    return render_expression(canonicalize_expression(aggregate.expr))


def moment_keys(aggregate: Aggregate) -> Tuple[str, ...]:
    """Canonical moment-table keys a SUM/COUNT/AVG ``aggregate`` needs."""
    if aggregate.func == "count":
        return (ONES_KEY,)
    key = _expression_key(aggregate)
    if aggregate.func == "avg":
        return (key, ONES_KEY)
    return (key,)


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


def estimate_moments(
    aggregates: Sequence[Aggregate],
    totals: Dict[str, np.ndarray],
    variances: Dict[str, np.ndarray],
) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """Estimates and their variances from per-group expansion moments.

    ``totals`` and ``variances`` map each :func:`moment_keys` key to the
    per-group expansion estimate of that input's sum and its variance.
    SUM and COUNT are their key's total; AVG is the ratio of its input's
    total to the ``ONES_KEY`` total, with the first-order delta-method
    variance (the covariance term ignored, a conservative simplification).
    Returns ``(values, variances)`` keyed by aggregate alias.
    """
    values: Dict[str, np.ndarray] = {}
    out: Dict[str, np.ndarray] = {}
    for aggregate in aggregates:
        key = moment_keys(aggregate)[0]
        value, variance = totals[key], variances[key]
        if aggregate.func == "avg":  # ratio estimator
            den, den_var = totals[ONES_KEY], variances[ONES_KEY]
            with np.errstate(divide="ignore", invalid="ignore"):
                value = np.where(den != 0, value / den, np.nan)
                variance = np.where(
                    den != 0,
                    (variance + value * value * den_var) / (den * den),
                    np.nan,
                )
        values[aggregate.alias] = value
        out[aggregate.alias] = variance
    return values, out


def _chebyshev(variance: np.ndarray, scale: float) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        return np.where(variance >= 0, np.sqrt(variance) / scale, np.nan)


def finalize_moments(
    aggregates: Sequence[Aggregate],
    totals: Dict[str, np.ndarray],
    variances: Dict[str, np.ndarray],
    confidence: float,
) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """Estimates and Chebyshev half-widths from per-group expansion moments.

    :func:`estimate_moments`, then a half-width of ``sqrt(variance) /
    sqrt(1 - confidence)``, NaN where the variance is NaN or negative.
    Returns ``(values, halfwidths)`` keyed by aggregate alias.
    """
    values, variances = estimate_moments(aggregates, totals, variances)
    scale = float(np.sqrt(1.0 - confidence))
    return values, {
        alias: _chebyshev(variance, scale)
        for alias, variance in variances.items()
    }


class _Sums:
    """Per-cell moments of one SUM/COUNT/AVG input, each summing up to any
    coarser grouping: the scaled masked sum, the variance term (``ONES_KEY``'s
    on first read, by COUNT or AVG) and the Hoeffding term (or ``None``)."""

    def __init__(self, scaled, var_contrib, range_terms):
        self.scaled: np.ndarray = scaled
        self.range_terms: Optional[np.ndarray] = range_terms
        self._var_contrib = var_contrib  # the terms, or what works them out

    @property
    def var_contrib(self) -> np.ndarray:
        if callable(self._var_contrib):
            self._var_contrib = self._var_contrib()
        return self._var_contrib


@dataclass(frozen=True)
class GroupedEstimates:
    """Finalized estimates: sorted group keys with values and bounds.

    ``key_arrays`` holds the keys one array per ``group_by`` column; every
    other array lines up with them, one entry per group.  ``variances``
    and ``halfwidths`` cover the SUM/COUNT/AVG aggregates, ``values``
    every aggregate.
    """

    group_by: Tuple[str, ...]
    key_arrays: Tuple[np.ndarray, ...]
    support: np.ndarray
    values: Dict[str, np.ndarray]
    variances: Dict[str, np.ndarray]
    halfwidths: Dict[str, np.ndarray]


@dataclass(frozen=True)
class SampleMoments:
    """Per-cell moments of one sample under one WHERE predicate.

    ``group_by`` is ``None`` when the cells are the sample's strata, else
    the one GROUP BY the (answer group, stratum) cells were built for,
    with ``cell_groups`` each cell's answer group and ``key_arrays`` the
    groups' sorted keys.  ``hoeffding`` strata moments bound SUM and
    COUNT by their inputs' Hoeffding terms.
    """

    frame: SampleFrame
    hoeffding: bool
    group_by: Optional[Tuple[str, ...]]
    cell_groups: Optional[np.ndarray]
    key_arrays: Tuple[np.ndarray, ...]
    support: np.ndarray
    sums: Dict[str, _Sums]
    extremes: Dict[Tuple[str, str], AggregateState]

    @classmethod
    def build(
        cls,
        sample: StratifiedSample,
        predicate: Optional[Predicate],
        aggregates: Sequence[Aggregate],
        group_by: Sequence[str] = (),
        base: Optional[Table] = None,
    ) -> "SampleMoments":
        """Reduce the qualifying sample rows to per-cell moments.

        One kernel for both kinds of cell: the rows the WHERE keeps are
        gathered (cell id, ``sf``, each input) and reduced by unweighted
        ``np.bincount`` for the support and the all-ones column, by x, x^2
        and x*sf for any other input.  ``np.bincount`` adds in row order,
        so this is byte for byte the masked reduction over every row (a
        masked row added only a zero).  Outside the strata each qualifying
        row is also assigned its answer group.  ``base`` gives strata cells
        Hoeffding terms from each stratum's value range over that relation,
        widened to contain zero, for the SUM and COUNT inputs.
        """
        frame = sample.frame
        rows = frame.rows
        select = np.flatnonzero(frame.qualifies(predicate))
        stratum_ids = frame.stratum_ids[select]
        if set(group_by) <= set(frame.grouping_columns):
            cell_ids, num_cells = stratum_ids, frame.num_strata
            populations, sizes = frame.populations, frame.sizes
            cell_groups, key_arrays, own_group_by = None, (), None
        else:
            answer_ids, key_list = factorize(
                [rows.column(name)[select] for name in group_by]
            )
            cells, cell_ids = np.unique(
                answer_ids * frame.num_strata + stratum_ids,
                return_inverse=True,
            )
            cell_groups, cell_strata = np.divmod(cells, frame.num_strata)
            num_cells = len(cells)
            populations = frame.populations[cell_strata]
            sizes = frame.sizes[cell_strata]
            key_arrays, own_group_by = tuple(key_list), tuple(group_by)
            base = None  # Hoeffding terms are per stratum
        sf = frame.sf[select]
        support = np.bincount(cell_ids, minlength=num_cells).astype(np.int64)
        ranged = {
            moment_keys(a)[0]
            for a in aggregates
            if a.func in ("sum", "count") and base is not None
        }
        if ranged:
            base_ids, base_keys = finest_group_ids(base, frame.grouping_columns)
            position = {key: i for i, key in enumerate(base_keys)}
            # a stratum with no base rows contributes nothing
            stratum_at = np.array(
                [position.get(key, -1) for key in frame.stratum_keys],
                dtype=np.int64,
            )

        def inputs(expr: Expression) -> np.ndarray:
            return np.asarray(expr.evaluate(rows), dtype=np.float64)[select]

        needed: Dict[str, Expression] = {ONES_KEY: Lit(1)}
        extremes: Dict[Tuple[str, str], AggregateState] = {}
        for aggregate in aggregates:
            if aggregate.func == "count":
                continue
            expr = canonicalize_expression(aggregate.expr)
            key = render_expression(expr)
            if aggregate.func in EXTREME_AGGREGATES:
                if (aggregate.func, key) not in extremes:
                    extremes[aggregate.func, key] = partial_reduce(
                        aggregate.func, inputs(expr), cell_ids, num_cells
                    )
            else:
                needed.setdefault(key, expr)

        def reduce(weights: np.ndarray) -> np.ndarray:  # float for no row too
            return np.bincount(
                cell_ids, weights=weights, minlength=num_cells
            ).astype(np.float64, copy=False)

        sums: Dict[str, _Sums] = {}
        for key, expr in needed.items():
            if key == ONES_KEY:  # its sums and sums of squares: the support
                scaled = reduce(sf)
                variance = lambda: expansion_variance(
                    populations, sizes, support, support
                )
            else:
                values = inputs(expr)
                scaled = reduce(values * sf)
                variance = expansion_variance(
                    populations, sizes, reduce(values), reduce(values * values)
                )
            range_terms = None
            if key in ranged:
                ranges = zero_extended_ranges(
                    base, Aggregate("sum", expr, key), base_ids, len(base_keys)
                )
                ranges = np.where(stratum_at >= 0, ranges[stratum_at], 0.0)
                range_terms = populations * populations * ranges * ranges / sizes
            sums[key] = _Sums(scaled, variance, range_terms)
        return cls(
            frame=frame,
            hoeffding=base is not None,
            group_by=own_group_by,
            cell_groups=cell_groups,
            key_arrays=key_arrays,
            support=support,
            sums=sums,
            extremes=extremes,
        )

    @property
    def strata_cells(self) -> bool:
        """Whether the cells are strata (any coarser grouping finalizes)."""
        return self.group_by is None

    def can_finalize(
        self, group_by: Sequence[str], aggregates: Sequence[Aggregate]
    ) -> bool:
        """Whether these moments have the grouping and inputs to serve
        (Hoeffding ones: range terms for every SUM and COUNT input)."""
        if self.strata_cells:
            if not set(group_by) <= set(self.frame.grouping_columns):
                return False
        elif tuple(group_by) != self.group_by:
            return False
        for aggregate in aggregates:
            if aggregate.func in EXTREME_AGGREGATES:
                key = (aggregate.func, _expression_key(aggregate))
                if key not in self.extremes:
                    return False
            elif aggregate.func not in ESTIMABLE_AGGREGATES or any(
                key not in self.sums for key in moment_keys(aggregate)
            ):
                return False
            elif (
                self.hoeffding
                and aggregate.func != "avg"
                and self.sums[moment_keys(aggregate)[0]].range_terms is None
            ):
                return False
        return True

    def finalize(
        self,
        group_by: Sequence[str],
        aggregates: Sequence[Aggregate],
        confidence: float,
        extra_predicate: Optional[Predicate] = None,
    ) -> GroupedEstimates:
        """Roll the per-cell moments up to ``group_by`` and finalize.

        ``extra_predicate`` (strata cells only; conjuncts over
        stratification columns) selects whole strata before the roll-up --
        datacube slicing.  Groups with no qualifying sample tuple are
        absent, except the one group of a query with no GROUP BY: SUM and
        COUNT 0, every other value and Chebyshev half-width NaN.  Moments
        with Hoeffding terms bound SUM and COUNT by every sampled stratum
        of the group, qualifying or not; AVG stays Chebyshev.
        """
        if not self.can_finalize(group_by, aggregates):
            raise ValueError(
                f"moments over {self.frame.grouping_columns} cannot "
                f"finalize GROUP BY {tuple(group_by)}"
            )
        if self.strata_cells:
            all_targets, keys, all_key_arrays = self.frame.projection(group_by)
            num_keys = len(keys)
        else:
            all_targets, all_key_arrays = self.cell_groups, self.key_arrays
            num_keys = len(all_key_arrays[0])
        # targets are dense and sorted: np.unique would leave them unchanged
        pick, present, targets = slice(None), np.arange(num_keys), all_targets
        if extra_predicate is not None:
            pick = np.flatnonzero(
                np.asarray(
                    extra_predicate.evaluate(self.frame.key_table), dtype=bool
                )
            )
            if group_by:
                # renumbered: a slice may leave some groups empty
                present, targets = np.unique(
                    all_targets[pick], return_inverse=True
                )
            else:
                targets = np.zeros(len(pick), dtype=np.int64)
        num_groups = len(present)
        support = np.bincount(
            targets, weights=self.support[pick], minlength=num_groups
        ).astype(np.int64)
        keep = support > 0 if group_by else np.ones(num_groups, dtype=bool)

        def rolled(terms: np.ndarray) -> np.ndarray:
            return np.bincount(
                targets, weights=terms[pick], minlength=num_groups
            )[keep]

        estimable = [a for a in aggregates if a.func in ESTIMABLE_AGGREGATES]
        used = set(k for a in estimable for k in moment_keys(a))
        values, variances = estimate_moments(
            estimable,
            {key: rolled(self.sums[key].scaled) for key in used},
            {key: rolled(self.sums[key].var_contrib) for key in used},
        )
        scale = float(np.sqrt(1.0 - confidence))
        answered = support[keep] > 0
        halfwidths: Dict[str, np.ndarray] = {}
        for aggregate in estimable:
            terms = (
                self.sums[moment_keys(aggregate)[0]].range_terms
                if self.hoeffding and aggregate.func != "avg"
                else None
            )
            if terms is not None:
                # every sampled stratum of the group, whatever the slice
                coarse = np.bincount(
                    all_targets, weights=terms, minlength=num_keys
                )[present][keep]
                halfwidths[aggregate.alias] = np.sqrt(
                    math.log(2.0 / (1.0 - confidence)) / 2.0 * coarse
                )
            else:
                halfwidths[aggregate.alias] = np.where(
                    answered,
                    _chebyshev(variances[aggregate.alias], scale),
                    np.nan,
                )
        for aggregate in aggregates:
            if aggregate.func in EXTREME_AGGREGATES:
                state = self.extremes[
                    aggregate.func, _expression_key(aggregate)
                ]
                sliced = AggregateState(
                    state.func,
                    state.count[pick],
                    low=None if state.low is None else state.low[pick],
                    high=None if state.high is None else state.high[pick],
                )
                values[aggregate.alias] = finalize_state(
                    rollup_state(sliced, targets, num_groups)
                )[keep]

        kept = present[keep]
        return GroupedEstimates(
            group_by=tuple(group_by),
            key_arrays=tuple(column[kept] for column in all_key_arrays),
            support=support[keep],
            values=values,
            variances=variances,
            halfwidths=halfwidths,
        )
