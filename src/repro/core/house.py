"""House allocation: a uniform random sample of the whole relation.

Section 4.3 of the paper.  Applying strategy S1 to the class of queries with
*no* group-bys yields a single group -- the entire relation -- so the optimal
precomputed sample is the classic uniform random sample of size ``X``.
Expressed per finest group ``g``, the expected sample size is proportional to
the group's population::

    s_{g,∅} = X * n_g / |R|

House is the baseline that congressional samples generalize: excellent for
highly-selective-free aggregate queries over the whole table, poor for small
groups in skewed group-by queries.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Tuple

from ..sampling.groups import GroupKey
from .allocation import Allocation, _validate

__all__ = ["House"]


class House:
    """Uniform (proportional) allocation -- the paper's *House*."""

    name = "house"

    def groupings(
        self, grouping_columns: Sequence[str]
    ) -> Tuple[Tuple[str, ...], ...]:
        """Eq. 8's groupings ``𝒯 = {∅}``: ``p = Y / |R|`` for every row."""
        return ((),)

    def allocate(
        self,
        counts: Mapping[GroupKey, int],
        grouping_columns: Sequence[str],
        budget: float,
    ) -> Allocation:
        _validate(counts, budget)
        total = sum(counts.values())
        fractional = {
            key: budget * n_g / total for key, n_g in counts.items()
        }
        return Allocation(
            strategy=self.name,
            grouping_columns=tuple(grouping_columns),
            budget=budget,
            fractional=fractional,
            populations=dict(counts),
            pre_scaling=dict(fractional),
        )
