"""Congress allocation: Equations 4-6 of the paper (Section 4.6).

Congress considers *every* grouping ``T ⊆ G``.  For each grouping it
computes the per-finest-group share ``s_{g,T}`` that strategy S1 would
assign (Equation 4), takes the per-group maximum over all groupings, and
scales the result down to the budget::

    SampleSize(g) = X * max_{T ⊆ G} s_{g,T} / sum_{j ∈ 𝒢} max_{T ⊆ G} s_{j,T}

The scale-down factor ``f = X / sum_j max_T s_{j,T}`` (Equation 6) lies in
``(2^-|G|, 1]`` and guarantees every group, under every grouping, receives at
least ``f`` times its S1-optimal share.

The intermediate ``s_{g,T}`` table (Figure 5 of the paper) is exposed via
:meth:`Congress.share_table` -- it is also the "weight vector" input of the
multi-criteria extension (Section 8, see :mod:`repro.core.multicriteria`).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..sampling.groups import GroupKey, all_groupings
from .allocation import Allocation, _validate
from .senate import senate_share

__all__ = ["Congress", "congress_share_table"]


def congress_share_table(
    counts: Mapping[GroupKey, int],
    grouping_columns: Sequence[str],
    budget: float,
    groupings: Optional[Sequence[Tuple[str, ...]]] = None,
) -> Dict[Tuple[str, ...], Dict[GroupKey, float]]:
    """The full ``s_{g,T}`` table: grouping -> finest group -> share.

    Args:
        counts: finest-partition group counts ``n_g``.
        grouping_columns: the full grouping set ``G``.
        budget: space budget ``X``.
        groupings: which groupings ``T`` to include; defaults to the entire
            power set of ``G`` (full Congress).  Passing a subset yields the
            "specialized" congressional samples of Section 4.7's framework
            (e.g. ``[(), G]`` reproduces Basic Congress's inputs).
    """
    if groupings is None:
        groupings = all_groupings(grouping_columns)
    table: Dict[Tuple[str, ...], Dict[GroupKey, float]] = {}
    for target in groupings:
        table[tuple(target)] = senate_share(
            counts, grouping_columns, target, budget
        )
    return table


class Congress:
    """Max-over-all-groupings allocation -- the paper's *Congress*.

    Args:
        groupings: optional restriction of the groupings considered (all
            subsets of ``G`` by default).  The paper's Congress uses the full
            power set; restricted variants let applications that only ever
            group by certain column subsets reclaim space.
    """

    def __init__(self, groupings: Optional[Sequence[Sequence[str]]] = None):
        self._groupings: Optional[List[Tuple[str, ...]]] = (
            [tuple(t) for t in groupings] if groupings is not None else None
        )

    @property
    def name(self) -> str:
        if self._groupings is None:
            return "congress"
        inner = ";".join(",".join(t) or "-" for t in self._groupings)
        return f"congress[{inner}]"

    def share_table(
        self,
        counts: Mapping[GroupKey, int],
        grouping_columns: Sequence[str],
        budget: float,
    ) -> Dict[Tuple[str, ...], Dict[GroupKey, float]]:
        """Expose the ``s_{g,T}`` table for inspection (Figure 5)."""
        return congress_share_table(
            counts, grouping_columns, budget, self._groupings
        )

    def groupings(
        self, grouping_columns: Sequence[str]
    ) -> Tuple[Tuple[str, ...], ...]:
        """Eq. 8's groupings ``𝒯``: the power set of ``G`` in
        :func:`all_groupings` order, or the restriction given.

        Raises:
            ValueError: the restriction is empty (no grouping to size
                groups for), or names a column outside ``G``.
        """
        if self._groupings is None:
            return tuple(all_groupings(grouping_columns))
        if not self._groupings:
            raise ValueError(
                "Congress([]) has an empty grouping restriction: give it "
                "at least one grouping, or None for every subset of "
                f"{list(grouping_columns)}"
            )
        unknown = {
            column
            for target in self._groupings
            for column in target
            if column not in grouping_columns
        }
        if unknown:
            raise ValueError(
                f"grouping columns {sorted(unknown)} not in "
                f"{list(grouping_columns)}"
            )
        return tuple(self._groupings)

    def allocate(
        self,
        counts: Mapping[GroupKey, int],
        grouping_columns: Sequence[str],
        budget: float,
    ) -> Allocation:
        _validate(counts, budget)
        shares = congress_share_table(
            counts, grouping_columns, budget, self.groupings(grouping_columns)
        )
        pre_scaling = {
            key: max(shares[target][key] for target in shares)
            for key in counts
        }
        total = sum(pre_scaling.values())
        factor = budget / total if total > 0 else 0.0
        fractional = {key: value * factor for key, value in pre_scaling.items()}
        return Allocation(
            strategy=self.name,
            grouping_columns=tuple(grouping_columns),
            budget=budget,
            fractional=fractional,
            populations=dict(counts),
            pre_scaling=pre_scaling,
        )
