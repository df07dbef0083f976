"""Senate allocation: equal space per group of one chosen grouping.

Section 4.4 of the paper.  For a grouping ``T`` defining ``m_T`` non-empty
groups, each group receives ``X / m_T`` tuples, sampled uniformly within the
group.  Expressed per finest group ``g`` (a subgroup of ``h`` under ``T``)::

    s_{g,T} = (X / m_T) * (n_g / n_h)        (Equation 4)

With ``T = G`` (the default, and what the paper's experiments use) every
finest group gets the same expected size ``X / |𝒢|``.

A Senate sample for ``T`` also serves any grouping ``T' ⊆ T`` at least as
well, since groups under ``T'`` are unions of groups under ``T``.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Tuple

from ..sampling.groups import GroupKey, project_key, projected_counts
from .allocation import Allocation, _validate

__all__ = ["Senate", "senate_share"]


def senate_share(
    counts: Mapping[GroupKey, int],
    grouping_columns: Sequence[str],
    target: Sequence[str],
    budget: float,
) -> dict:
    """Per-finest-group expected sizes ``s_{g,T}`` for grouping ``target``.

    This is Equation 4, reused by Basic Congress and Congress.
    """
    by_group = projected_counts(counts, grouping_columns, target)
    m_t = len(by_group)
    share = budget / m_t
    out = {}
    for key, n_g in counts.items():
        h = project_key(key, grouping_columns, target)
        out[key] = share * n_g / by_group[h]
    return out


class Senate:
    """Equal-per-group allocation -- the paper's *Senate*.

    Args:
        target: the grouping ``T`` to equalize over; ``None`` means the full
            set of grouping columns (the finest partitioning), which is how
            the paper's experiments configure Senate.
    """

    def __init__(self, target: Optional[Sequence[str]] = None):
        self._target: Optional[Tuple[str, ...]] = (
            tuple(target) if target is not None else None
        )

    @property
    def name(self) -> str:
        if self._target is None:
            return "senate"
        return "senate[" + ",".join(self._target) + "]"

    def groupings(
        self, grouping_columns: Sequence[str]
    ) -> Tuple[Tuple[str, ...], ...]:
        """Eq. 8's groupings ``𝒯 = {T}``: ``p = Y / (m_T * n_h)``."""
        target = (
            tuple(grouping_columns) if self._target is None else self._target
        )
        unknown = set(target) - set(grouping_columns)
        if unknown:
            raise ValueError(
                f"senate target columns {sorted(unknown)} not in grouping "
                f"columns {list(grouping_columns)}"
            )
        return (target,)

    def allocate(
        self,
        counts: Mapping[GroupKey, int],
        grouping_columns: Sequence[str],
        budget: float,
    ) -> Allocation:
        _validate(counts, budget)
        (target,) = self.groupings(grouping_columns)
        fractional = senate_share(counts, grouping_columns, target, budget)
        return Allocation(
            strategy=self.name,
            grouping_columns=tuple(grouping_columns),
            budget=budget,
            fractional=fractional,
            populations=dict(counts),
            pre_scaling=dict(fractional),
        )
