"""Bernoulli (probability-proportional) sampling helpers.

These support the Eq. 8 variant of Congress construction and its maintenance
algorithm (Section 6): each tuple is independently selected with a
per-group probability, and when that probability later *decreases* from
``p`` to ``q`` the retained tuples are re-flipped with probability ``q/p``
(the [GM98]-style eviction process the paper cites).
"""

from __future__ import annotations

from itertools import compress
from typing import List, Optional, Sequence, TypeVar

import numpy as np

__all__ = [
    "BernoulliSampler",
    "thin_to_probability",
    "subsample_exact",
]

T = TypeVar("T")


class BernoulliSampler:
    """Select each offered item independently with a caller-supplied rate."""

    def __init__(self, rng: Optional[np.random.Generator] = None):
        self._rng = rng if rng is not None else np.random.default_rng()
        self._offered = 0
        self._accepted = 0

    @property
    def offered(self) -> int:
        return self._offered

    @property
    def accepted(self) -> int:
        return self._accepted

    def accept(self, probability: float) -> bool:
        """Flip a coin with the given probability (clamped to [0, 1])."""
        self._offered += 1
        probability = min(1.0, max(0.0, probability))
        selected = bool(self._rng.random() < probability)
        if selected:
            self._accepted += 1
        return selected


def thin_to_probability(
    items: Sequence[T],
    old_probability: float,
    new_probability: float,
    rng: Optional[np.random.Generator] = None,
) -> List[T]:
    """Re-flip items kept at ``old_probability`` down to ``new_probability``.

    Each surviving item has marginal retention probability exactly
    ``new_probability`` (items are dropped independently w.p.
    ``1 - new/old``).  Requires ``new <= old``; with ``new == old`` items
    are returned unchanged.
    """
    if new_probability > old_probability + 1e-12:
        raise ValueError(
            f"cannot thin upward: old={old_probability} new={new_probability}"
        )
    if old_probability <= 0:
        return []
    ratio = min(1.0, new_probability / old_probability)
    if ratio >= 1.0:
        return list(items)
    rng = rng if rng is not None else np.random.default_rng()
    keep_mask = rng.random(len(items)) < ratio
    return list(compress(items, keep_mask.tolist()))


def subsample_exact(
    items: Sequence[T], size: int, rng: Optional[np.random.Generator] = None
) -> Sequence[T]:
    """Uniform subsample of exactly ``min(size, len(items))`` items.

    The picks come in draw order, from one ``rng.choice``.  A numpy array
    comes back as an array, any other sequence as a list.
    """
    array = isinstance(items, np.ndarray)
    if size >= len(items):
        return items if array else list(items)
    rng = rng if rng is not None else np.random.default_rng()
    idx = rng.choice(len(items), size=size, replace=False)
    return items[idx] if array else [items[i] for i in idx.tolist()]
