"""Synopsis metadata: what Aqua knows about each precomputed sample.

A :class:`Synopsis` ties together the base table, the allocation strategy
that shaped the sample, the physical :class:`StratifiedSample`, and the
rewrite strategy's installed relation names.  It is what the Aqua rewriter
consults when a user query arrives (Figure 1's "Statistics Collector" +
"Query Rewriter" handshake).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..rewrite.base import InstalledSynopsis
from ..sampling.groups import GroupKey
from ..sampling.stratified import StratifiedSample

__all__ = ["Synopsis"]


@dataclass
class Synopsis:
    """One installed sample synopsis for a base table."""

    base_name: str
    grouping_columns: Tuple[str, ...]
    allocation_strategy: str
    rewrite_strategy: str
    budget: int
    sample: StratifiedSample
    installed: InstalledSynopsis

    @property
    def sample_size(self) -> int:
        return self.sample.total_sample_size

    @property
    def sampling_fraction(self) -> float:
        population = self.sample.total_population
        if population == 0:
            return 0.0
        return self.sample_size / population

    @property
    def empty_strata(self) -> Tuple[GroupKey, ...]:
        """Keys of populated strata that received no sample tuples.

        A nonempty result means some base-table groups are invisible to the
        synopsis -- the answer-time guard repairs them from the base table,
        and :meth:`AquaSystem.health` reports them as reduced coverage.
        """
        sample = self.sample
        order = sample.key_order
        empty = (sample.populations[order] > 0) & (sample.sizes[order] == 0)
        return tuple(map(sample.keys.__getitem__, order[empty].tolist()))

    def validate(self) -> List[str]:
        """Structural issues with the underlying sample (empty = sound)."""
        from .guard import validate_sample

        return validate_sample(self.sample)

    def describe(self) -> str:
        """One-line human-readable summary (for example scripts)."""
        return (
            f"synopsis[{self.base_name}] strategy={self.allocation_strategy} "
            f"rewrite={self.rewrite_strategy} size={self.sample_size} "
            f"({100 * self.sampling_fraction:.2f}% of "
            f"{self.sample.total_population} rows), "
            f"strata={len(self.sample.keys)}"
        )
