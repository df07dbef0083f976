"""The masked all-rows moments formulation, kept as an oracle.

:meth:`repro.estimators.moments.SampleMoments.build` once ran its weighted
bincounts over every sample row, the rows the WHERE drops masked to zero.
It now reduces only the qualifying rows.  :func:`masked_build` is the old
formulation verbatim, for ``test_moments_kernel.py`` (byte identity) and
``test_moments_cost.py`` (the wall-clock ratio).
"""

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.engine.aggregates import Aggregate, partial_reduce
from repro.engine.expressions import Lit
from repro.engine.groupby import factorize
from repro.engine.render import render_expression
from repro.engine.table import Table
from repro.estimators.errors import zero_extended_ranges
from repro.estimators.moments import (
    EXTREME_AGGREGATES,
    ONES_KEY,
    expansion_variance,
    moment_keys,
)
from repro.plan.canonical import canonicalize_expression
from repro.sampling.groups import finest_group_ids
from repro.sampling.stratified import StratifiedSample


def masked_build(
    sample: StratifiedSample,
    predicate,
    aggregates: Sequence[Aggregate],
    group_by: Sequence[str],
    base: Optional[Table],
):
    """The all-rows formulation: every sample row, masked by the WHERE."""
    frame = sample.frame
    rows = frame.rows
    qualifies = frame.qualifies(predicate)
    if set(group_by) <= set(frame.grouping_columns):
        select = slice(None)
        cell_ids, sf = frame.stratum_ids, frame.sf
        num_cells = frame.num_strata
        populations, sizes = frame.populations, frame.sizes
        cell_groups, key_arrays = None, ()
    else:
        select = np.flatnonzero(qualifies)
        answer_ids, key_list = factorize(
            [rows.column(name)[select] for name in group_by]
        )
        cells, cell_ids = np.unique(
            answer_ids * frame.num_strata + frame.stratum_ids[select],
            return_inverse=True,
        )
        cell_groups, cell_strata = np.divmod(cells, frame.num_strata)
        num_cells = len(cells)
        populations = frame.populations[cell_strata]
        sizes = frame.sizes[cell_strata]
        sf = frame.sf[select]
        qualifies = qualifies[select]
        key_arrays = tuple(key_list)
        base = None
    support = np.bincount(cell_ids[qualifies], minlength=num_cells).astype(
        np.int64
    )
    ranged = {
        moment_keys(a)[0]
        for a in aggregates
        if a.func in ("sum", "count") and base is not None
    }
    if ranged:
        base_ids, base_keys = finest_group_ids(base, frame.grouping_columns)
        position = {key: i for i, key in enumerate(base_keys)}
        stratum_at = np.array(
            [position.get(key, -1) for key in frame.stratum_keys],
            dtype=np.int64,
        )

    def inputs(expr):
        return np.asarray(expr.evaluate(rows), dtype=np.float64)[select]

    needed = {ONES_KEY: Lit(1)}
    extremes = {}
    for aggregate in aggregates:
        if aggregate.func == "count":
            continue
        expr = canonicalize_expression(aggregate.expr)
        key = render_expression(expr)
        if aggregate.func in EXTREME_AGGREGATES:
            if (aggregate.func, key) not in extremes:
                extremes[aggregate.func, key] = partial_reduce(
                    aggregate.func,
                    inputs(expr)[qualifies],
                    cell_ids[qualifies],
                    num_cells,
                )
        else:
            needed.setdefault(key, expr)
    sums: Dict[str, Tuple] = {}
    for key, expr in needed.items():
        values = np.ones(len(qualifies)) if key == ONES_KEY else inputs(expr)
        masked = np.where(qualifies, values, 0.0)
        range_terms = None
        if key in ranged:
            ranges = zero_extended_ranges(
                base, Aggregate("sum", expr, key), base_ids, len(base_keys)
            )
            ranges = np.where(stratum_at >= 0, ranges[stratum_at], 0.0)
            range_terms = populations * populations * ranges * ranges / sizes
        sums[key] = (
            np.bincount(cell_ids, weights=masked * sf, minlength=num_cells),
            expansion_variance(
                populations,
                sizes,
                np.bincount(cell_ids, weights=masked, minlength=num_cells),
                np.bincount(
                    cell_ids, weights=masked * masked, minlength=num_cells
                ),
            ),
            range_terms,
        )
    return support, sums, extremes, cell_groups, key_arrays
