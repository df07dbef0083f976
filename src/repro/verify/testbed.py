"""The seeded Zipf testbed the verification harness calibrates against.

One :class:`Testbed` owns a skewed ``lineitem`` relation (the paper's
Section 7.1.1 generator), the query classes of Table 2 (``Q_g2``,
``Q_g3``, one deterministic ``Q_g0`` range query) plus a COUNT/AVG
calibration query, and the exact per-group ground truth for each of them.
Everything is derived from a single seed, so a calibration run is fully
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


from ..engine.catalog import Catalog
from ..engine.executor import execute
from ..engine.query import Query
from ..engine.table import Table
from ..sampling.groups import GroupKey, make_key
from ..synthetic.queries import QueryClass, qg0, qg2, qg3
from ..synthetic.tpcd import GROUPING_COLUMNS, LineitemConfig, generate_lineitem

__all__ = ["Testbed", "TestbedConfig", "qmix", "result_by_group"]

TABLE_NAME = "lineitem"


def qmix(table_name: str = TABLE_NAME) -> QueryClass:
    """COUNT/AVG calibration query over the ``Q_g2`` grouping.

    The paper's Table 2 queries are all SUMs; the unbiasedness contract of
    Section 5.1 also covers COUNT (exactly unbiased) and AVG
    (asymptotically unbiased), so the harness exercises them explicitly.
    """
    sql = (
        "SELECT l_returnflag, l_linestatus, "
        "count(*) AS cnt, avg(l_quantity) AS avg_qty "
        f"FROM {table_name} "
        "GROUP BY l_returnflag, l_linestatus"
    )
    return QueryClass("Qmix", sql)


@dataclass(frozen=True)
class TestbedConfig:
    """Size/skew knobs for the calibration relation.

    Defaults are the quick-mode testbed: small enough that hundreds of
    replications finish in seconds, large enough that every finest group
    receives multiple sample tuples under every allocation (so coverage is
    measured on the estimators, not on degenerate single-tuple strata).
    """

    __test__ = False  # not a pytest class, despite the name

    table_size: int = 4000
    num_groups: int = 27
    group_skew: float = 0.86
    aggregate_skew: float = 0.86
    seed: int = 0
    query_names: Tuple[str, ...] = ("Qg2", "Qg3", "Qg0", "Qmix")
    qg0_selectivity: float = 0.2

    def to_dict(self) -> dict:
        return {
            "table_size": self.table_size,
            "num_groups": self.num_groups,
            "group_skew": self.group_skew,
            "aggregate_skew": self.aggregate_skew,
            "seed": self.seed,
            "query_names": list(self.query_names),
            "qg0_selectivity": self.qg0_selectivity,
        }


def result_by_group(
    table: Table, query: Query
) -> Dict[str, Dict[GroupKey, float]]:
    """``alias -> group key -> value`` from an answer to ``query``.

    Each group key is found under its ``GROUP BY`` name, so ``query``
    must be a stage query (:meth:`~repro.engine.query.Query.bind`) --
    the testbed's query classes are their own.
    """
    if query.group_by:
        key_arrays = [table.column(name) for name in query.group_by]
        keys = [
            make_key(tuple(arr[i] for arr in key_arrays))
            for i in range(table.num_rows)
        ]
    else:
        keys = [() for __ in range(table.num_rows)]
    out: Dict[str, Dict[GroupKey, float]] = {}
    for aggregate in query.aggregates():
        values = table.column(aggregate.alias)
        out[aggregate.alias] = {
            key: float(values[i]) for i, key in enumerate(keys)
        }
    return out


class Testbed:
    """Seeded relation + query classes + exact ground truth."""

    __test__ = False  # not a pytest class, despite the name

    def __init__(self, config: TestbedConfig):
        self.config = config
        self.table = generate_lineitem(
            LineitemConfig(
                table_size=config.table_size,
                num_groups=config.num_groups,
                group_skew=config.group_skew,
                aggregate_skew=config.aggregate_skew,
                seed=config.seed,
            )
        )
        self.grouping_columns: Tuple[str, ...] = GROUPING_COLUMNS
        self.catalog = Catalog()
        self.catalog.register(TABLE_NAME, self.table)
        self.queries: List[QueryClass] = [
            self._make_query(name) for name in config.query_names
        ]
        self._truth: Dict[str, Dict[str, Dict[GroupKey, float]]] = {}

    def _make_query(self, name: str) -> QueryClass:
        if name == "Qg2":
            return qg2()
        if name == "Qg3":
            return qg3()
        if name == "Qmix":
            return qmix()
        if name == "Qg0":
            # One deterministic range query: the middle
            # ``qg0_selectivity`` slice of the key space.
            count = max(1, int(round(self.config.qg0_selectivity
                                     * self.config.table_size)))
            start = max(1, (self.config.table_size - count) // 2)
            return qg0(start, count)
        raise ValueError(f"unknown testbed query class {name!r}")

    def truth(self, query_class: QueryClass) -> Dict[str, Dict[GroupKey, float]]:
        """Exact ``alias -> group -> value``, computed once and cached."""
        cached = self._truth.get(query_class.name)
        if cached is not None:
            return cached
        query = query_class.query
        truth = result_by_group(execute(query, self.catalog), query)
        self._truth[query_class.name] = truth
        return truth
