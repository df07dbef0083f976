"""Distribution drift: why incremental maintenance matters (Section 6).

The paper motivates maintenance with warehouses whose data "changes the
database significantly" over time.  This experiment streams a relation
whose group mix *shifts* mid-stream (a new dominant group emerges) and
compares three synopses at the end of the stream:

* **stale** -- built from the first half and never touched;
* **maintained** -- the Section 6 Congress maintainer fed every insert;
* **rebuilt** -- a from-scratch congressional sample of the final relation
  (the oracle; requires a full rescan the maintainer avoids).

Expected shape: stale misses the new group entirely and mis-scales the
old ones; maintained tracks rebuilt closely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..core.congress import Congress
from ..core.allocation import build_sample
from ..engine.catalog import Catalog
from ..engine.executor import execute
from ..engine.schema import Column, ColumnType, Schema
from ..engine.sql import parse_query
from ..engine.table import Table
from ..maintenance.congress import CongressMaintainer
from ..maintenance.onepass import subsample_to_budget
from ..metrics.groupby_error import groupby_error
from ..rewrite.integrated import Integrated
from ..sampling.stratified import StratifiedSample
from .report import format_mapping_table

__all__ = ["DriftResult", "run_drift"]

_SCHEMA = Schema(
    [
        Column("region", ColumnType.STR, "grouping"),
        Column("product", ColumnType.STR, "grouping"),
        Column("amount", ColumnType.FLOAT, "aggregate"),
    ]
)

_QUERY = (
    "SELECT region, sum(amount) AS total FROM sales "
    "GROUP BY region ORDER BY region"
)


@dataclass(frozen=True)
class DriftResult:
    """Qg-style errors for the three synopses after the drift."""

    errors: Dict[str, Dict[str, float]]  # synopsis -> metric -> value
    stream_size: int

    def format(self) -> str:
        return format_mapping_table(
            "synopsis",
            self.errors,
            title=(
                "Drift experiment: region-total errors after a mid-stream "
                f"distribution shift ({self.stream_size} inserts)"
            ),
        )


def _phase(rng, size, weights):
    regions = np.array(["north", "south", "east", "west"])
    picks = rng.choice(regions, size=size, p=weights)
    products = rng.choice(np.array(["w", "g", "z"]), size=size)
    amounts = rng.gamma(2.0, 50.0, size=size)
    return list(zip(picks.tolist(), products.tolist(), amounts.tolist()))


def run_drift(
    stream_size: int = 60_000,
    budget: int = 1500,
    seed: int = 0,
) -> DriftResult:
    """Run the drift experiment and return per-synopsis errors."""
    rng = np.random.default_rng(seed)
    half = stream_size // 2
    # Phase 1: 'west' does not exist.
    first = _phase(rng, half, [0.6, 0.3, 0.1, 0.0])
    # Phase 2: 'west' bursts to 40% of inserts; 'north' fades.
    second = _phase(rng, stream_size - half, [0.2, 0.25, 0.15, 0.4])

    first_table = Table.from_rows(_SCHEMA, first)
    full_table = Table.from_rows(_SCHEMA, first + second)

    grouping = ["region", "product"]

    # Stale: built on phase 1 only; population metadata is also stale.
    stale = build_sample(Congress(), first_table, grouping, budget, rng=rng)

    # Maintained: Eq. 8 maintainer over the whole stream.
    maintainer = CongressMaintainer(_SCHEMA, grouping, budget, rng)
    maintainer.insert_many(first)
    maintainer.insert_many(second)
    maintained = subsample_to_budget(
        maintainer.snapshot(), budget, rng
    ).to_stratified()

    # Rebuilt: the oracle -- full rescan of the final relation.
    rebuilt = build_sample(Congress(), full_table, grouping, budget, rng=rng)

    catalog = Catalog()
    catalog.register("sales", full_table)
    query = parse_query(_QUERY)
    exact = execute(query, catalog)

    def score(sample: StratifiedSample, base_name: str, base: Table):
        catalog.register(base_name, base, replace=True)
        rewrite = Integrated()
        synopsis = rewrite.install(sample, base_name, catalog, replace=True)
        plan = rewrite.plan(query.with_from(base_name), synopsis)
        approx = plan.execute(catalog)
        error = groupby_error(exact, approx, ["region"], "total")
        return {
            "eps_l1": error.eps_l1,
            "eps_inf": error.eps_inf,
            "missing_groups": float(len(error.missing_groups)),
        }

    errors = {
        "stale": score(stale, "sales_stale", first_table),
        "maintained": score(maintained, "sales_maint", maintained.base_table),
        "rebuilt": score(rebuilt, "sales", full_table),
    }
    return DriftResult(errors=errors, stream_size=stream_size)
