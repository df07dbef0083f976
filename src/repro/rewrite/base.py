"""Rewrite strategy interface and shared scaling logic.

Section 5.2 of the paper: all four strategies must (a) associate each sample
tuple with its stratum's *ScaleFactor* and (b) scale aggregates --
``SUM(Q) -> sum(Q*SF)``, ``COUNT(*) -> sum(SF)``,
``AVG(Q) -> sum(Q*SF)/sum(SF)``.  They differ in *where* the scale factor
lives (inline column vs. auxiliary relation) and *when* the multiplication
happens (per tuple vs. per group).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from ..engine.aggregates import Aggregate
from ..engine.catalog import Catalog
from ..engine.expressions import Col
from ..engine.query import Projection, Query
from ..errors import AquaError
from ..sampling.stratified import SF_COLUMN, StratifiedSample

__all__ = [
    "REWRITABLE_AGGREGATES",
    "RewriteError",
    "check_rewritable",
    "InstalledSynopsis",
    "RewriteStrategy",
    "scale_select_list",
]


#: The aggregates every strategy has a rewrite rule for.
REWRITABLE_AGGREGATES = ("sum", "count", "avg", "min", "max")


class RewriteError(AquaError, ValueError):
    """Raised when a user query cannot be rewritten.

    Part of the :class:`~repro.errors.AquaError` taxonomy so middleware
    callers can catch one base class; still a :class:`ValueError` for
    backwards compatibility with pre-taxonomy callers.
    """


@dataclass(frozen=True)
class InstalledSynopsis:
    """Metadata for a sample relation set installed in the catalog."""

    strategy: str
    base_name: str
    grouping_columns: Tuple[str, ...]
    sample_name: str
    aux_name: Optional[str] = None


class RewriteStrategy(ABC):
    """One of the paper's four rewriting strategies."""

    name: str = "abstract"

    @abstractmethod
    def install(
        self,
        sample: StratifiedSample,
        base_name: str,
        catalog: Catalog,
        replace: bool = False,
    ) -> InstalledSynopsis:
        """Materialize the strategy's sample relation(s) into ``catalog``."""

    @abstractmethod
    def plan(self, query: Query, synopsis: InstalledSynopsis):
        """Rewrite a user ``query`` into an executable plan."""

    def _check_query(self, query: Query, synopsis: InstalledSynopsis) -> None:
        check_rewritable(query, synopsis.base_name)


def check_rewritable(query: Query, base_name: str) -> None:
    """Raise :class:`RewriteError` unless every strategy can rewrite
    ``query``: an aggregate query over ``base_name`` itself, using only
    SUM/COUNT/AVG/MIN/MAX, with no ``__``-prefixed output alias."""
    if query.from_item != base_name:
        raise RewriteError(
            f"query is over {query.from_item!r}, synopsis covers "
            f"{base_name!r}"
        )
    if not query.has_aggregates():
        raise RewriteError(
            "only aggregate queries can be answered approximately"
        )
    for alias in query.output_aliases():
        if alias.startswith("__"):
            raise RewriteError(
                f"output alias {alias!r} collides with internal names"
            )
    for aggregate in query.aggregates():
        if aggregate.func not in REWRITABLE_AGGREGATES:
            raise RewriteError(
                f"aggregate {aggregate.func!r} has no rewrite rule"
            )


def scale_select_list(
    query: Query,
) -> Tuple[List[Union[Projection, Aggregate]], List[Tuple[str, str, str]]]:
    """Scale a user select list for a flat (non-nested) rewrite.

    Returns ``(select_items, ratios)`` where ``select_items`` replaces each
    user aggregate with its scaled counterpart over a relation carrying an
    ``SF`` column, and ``ratios`` lists ``(alias, numerator, denominator)``
    triples for AVG rewrites.

    MIN and MAX pass through unscaled: the sample extremum is the standard
    (biased) estimator and no scale-up applies.
    """
    select: List[Union[Projection, Aggregate]] = []
    ratios: List[Tuple[str, str, str]] = []
    sf = Col(SF_COLUMN)
    counter = 0
    for item in query.select:
        if isinstance(item, Projection):
            select.append(item)
            continue
        if item.func == "sum":
            select.append(Aggregate("sum", item.expr * sf, item.alias))
        elif item.func == "count":
            select.append(Aggregate("sum", sf, item.alias))
        elif item.func == "avg":
            num = f"__num{counter}"
            den = f"__den{counter}"
            counter += 1
            select.append(Aggregate("sum", item.expr * sf, num))
            select.append(Aggregate("sum", sf, den))
            ratios.append((item.alias, num, den))
        elif item.func in ("min", "max"):
            select.append(item)
        else:
            raise RewriteError(
                f"aggregate {item.func!r} has no rewrite rule"
            )
    return select, ratios
