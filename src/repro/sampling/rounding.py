"""Integer rounding of fractional sample allocations.

The allocation formulas of Section 4 produce *fractional* expected sample
sizes (e.g. Figure 5's 27.3 / 22.7).  To materialize a sample we need
integers.  The default is largest-remainder rounding, which preserves the
total budget exactly and never deviates from the fractional target by more
than one tuple per group.  A plain floor rounding is provided for ablation
(see ``benchmarks/bench_ablation_rounding.py``).
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Optional, TypeVar

import numpy as np

__all__ = [
    "largest_remainder_round",
    "largest_remainder_array",
    "floor_round",
    "randomized_round",
]

K = TypeVar("K", bound=Hashable)


def largest_remainder_round(
    fractional: Mapping[K, float],
    total: Optional[int] = None,
    caps: Optional[Mapping[K, int]] = None,
) -> Dict[K, int]:
    """Round fractional allocations to integers preserving the total.

    Args:
        fractional: per-key fractional allocation (non-negative).
        total: target integer total; defaults to ``round(sum(fractional))``.
        caps: optional per-key upper bounds (e.g. the group population
            ``n_g`` -- you cannot sample more tuples than a group has).

    Returns:
        Per-key integer allocation summing to ``total`` (or to the sum of
        caps if the caps make ``total`` infeasible).  The keyed form of
        :func:`largest_remainder_array`, keys in ``fractional``'s order.
    """
    keys = list(fractional)
    values = np.array([fractional[k] for k in keys], dtype=np.float64)
    bad = np.flatnonzero(values < -1e-9)
    if len(bad):
        raise ValueError(f"negative allocations for {[keys[i] for i in bad]}")
    cap_values = (
        np.array([caps[k] for k in keys], dtype=np.int64)
        if caps is not None
        else None
    )
    rounded = largest_remainder_array(values, total, cap_values)
    return dict(zip(keys, rounded.tolist()))


def _fill(room: np.ndarray, amount: int) -> np.ndarray:
    """What a greedy pass over ``room`` in order takes to reach ``amount``:
    each entry ``min(room, what is still missing)``."""
    room = np.minimum(room, amount)  # keeps the running sum in range
    before = np.cumsum(room) - room
    return np.clip(amount - before, 0, room)


def largest_remainder_array(
    values: np.ndarray,
    total: Optional[int] = None,
    caps: Optional[np.ndarray] = None,
) -> np.ndarray:
    """:func:`largest_remainder_round` over arrays: ``values`` rounded to
    int64 counts summing to ``total``, each at most its ``caps`` entry.

    The leftover goes one each to the largest remainders, ties to the
    earlier position (a stable sort), then spills into any headroom left,
    largest first.  A ``total`` below the floor sum is stripped from the
    smallest remainders first.
    """
    values = np.asarray(values, dtype=np.float64)
    bad = np.flatnonzero(values < -1e-9)
    if len(bad):
        raise ValueError(f"negative allocations at positions {bad.tolist()}")
    values = np.maximum(values, 0.0)

    if total is None:
        total = int(round(float(values.sum())))
    if caps is None:
        cap_values = np.full(len(values), np.iinfo(np.int64).max)
    else:
        cap_values = np.asarray(caps, dtype=np.int64)
        if np.any(cap_values < 0):
            raise ValueError("caps must be non-negative")

    base = np.minimum(np.floor(values).astype(np.int64), cap_values)
    remaining = total - int(base.sum())
    if remaining < 0:
        # Total smaller than the floor sum: strip from the smallest
        # remainders (largest over-allocation) first.
        order = np.argsort(values - base)  # ascending remainder
        base[order] -= _fill(base[order], -remaining)
        return base

    # Distribute the leftover to the largest remainders, respecting caps.
    remainders = values - np.floor(values)
    headroom = cap_values - base
    order = np.argsort(-remainders, kind="stable")
    favoured = order[headroom[order] > 0][:remaining]
    base[favoured] += 1
    headroom[favoured] -= 1
    remaining -= len(favoured)
    if remaining > 0:
        # Caps exhausted the obvious candidates; spill into any headroom.
        order = np.argsort(-headroom)
        base[order] += _fill(headroom[order], remaining)
    return base


def floor_round(
    fractional: Mapping[K, float], caps: Optional[Mapping[K, int]] = None
) -> Dict[K, int]:
    """Plain floor rounding (under-uses the budget; for ablation)."""
    out: Dict[K, int] = {}
    for key, value in fractional.items():
        rounded = int(np.floor(max(0.0, value)))
        if caps is not None:
            rounded = min(rounded, int(caps[key]))
        out[key] = rounded
    return out


def randomized_round(
    fractional: Mapping[K, float],
    rng: Optional[np.random.Generator] = None,
    caps: Optional[Mapping[K, int]] = None,
) -> Dict[K, int]:
    """Round each value up with probability equal to its fractional part.

    Preserves the total *in expectation* only; matches the paper's
    "select each tuple with probability SampleSize(g)/n_g" variant in
    spirit.  For ablation.
    """
    rng = rng if rng is not None else np.random.default_rng()
    out: Dict[K, int] = {}
    for key, value in fractional.items():
        value = max(0.0, value)
        base = int(np.floor(value))
        if rng.random() < value - base:
            base += 1
        if caps is not None:
            base = min(base, int(caps[key]))
        out[key] = base
    return out
