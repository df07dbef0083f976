"""Basic Congress: the House/Senate hybrid of Section 4.5.

For each finest group ``g`` take the larger of its House and Senate
allocations, then scale the whole vector down so the total is the budget::

    c_g = X * max(n_g/|R|, 1/m_T) / sum_j max(n_j/|R|, 1/m_T)

where ``T`` is the Senate grouping (the full set ``G`` by default) and
``m_T`` its group count.  Basic Congress fixes both failure modes -- House
starves small groups, Senate starves large ones -- but only for the two
extreme groupings ``∅`` and ``T``; intermediate groupings are the reason for
full Congress.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Tuple

from ..sampling.groups import GroupKey
from .allocation import Allocation, _validate
from .house import House
from .senate import Senate

__all__ = ["BasicCongress"]


class BasicCongress:
    """max(House, Senate) rescaled to the budget -- *Basic Congress*."""

    def __init__(self, target: Optional[Sequence[str]] = None):
        self._target: Optional[Tuple[str, ...]] = (
            tuple(target) if target is not None else None
        )

    @property
    def name(self) -> str:
        if self._target is None:
            return "basic_congress"
        return "basic_congress[" + ",".join(self._target) + "]"

    def groupings(
        self, grouping_columns: Sequence[str]
    ) -> Tuple[Tuple[str, ...], ...]:
        """Eq. 8's groupings ``𝒯 = {∅, T}``: House's and Senate's."""
        return ((),) + Senate(self._target).groupings(grouping_columns)

    def allocate(
        self,
        counts: Mapping[GroupKey, int],
        grouping_columns: Sequence[str],
        budget: float,
    ) -> Allocation:
        _validate(counts, budget)
        house = House().allocate(counts, grouping_columns, budget)
        senate = Senate(self._target).allocate(counts, grouping_columns, budget)
        pre_scaling = {
            key: max(house.fractional[key], senate.fractional[key])
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
