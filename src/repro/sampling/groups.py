"""Group machinery: finest partitions, groupings, and subgroup projection.

Terminology follows Section 4.6 of the paper:

* ``G`` -- the full set of *grouping attributes* of a relation.
* a *grouping* ``T ⊆ G`` -- the set of columns a query groups by
  (``T = ∅`` is the no-group-by query).
* ``𝒢`` -- the set of non-empty *groups at the finest partitioning*, i.e.
  distinct value combinations over all of ``G``.  Every group under any
  coarser grouping ``T`` is a union of finest groups (*subgroups*).

A group is identified by a :class:`GroupKey`: a tuple of plain Python values
aligned with the grouping columns that define it.
"""

from __future__ import annotations

from itertools import combinations
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from ..engine.table import Table

__all__ = [
    "GroupKey",
    "all_groupings",
    "finest_group_ids",
    "group_counts",
    "group_members",
    "project_key",
    "project_keys",
    "projected_counts",
]

GroupKey = Tuple  # tuple of plain python scalars

#: the one NaN object every key holds in place of a NaN value.  Python
#: hashes a float NaN by identity and tuples compare items by identity
#: first, so keys sharing this object find each other in dicts, as
#: :func:`~repro.engine.groupby.factorize` puts NaN keys in one group.
_NAN = float("nan")


def _as_python(value) -> object:
    """Normalize numpy scalars to plain Python, and every NaN to
    :data:`_NAN`, so GroupKeys hash stably."""
    if isinstance(value, np.generic):
        value = value.item()
    return _NAN if value != value else value


def make_key(values: Sequence) -> GroupKey:
    """Build a normalized :data:`GroupKey` from raw values."""
    return tuple(_as_python(v) for v in values)


def all_groupings(grouping_columns: Sequence[str]) -> List[Tuple[str, ...]]:
    """Enumerate the power set ``U`` of the grouping columns.

    Order: by subset size then column order, so ``()`` (no group-by) comes
    first and the full set ``G`` last -- matching how the one-pass Congress
    construction pseudocode of Section 4.6 iterates ``i = 0, 1, ..., |G|``.

    >>> all_groupings(["a", "b"])
    [(), ('a',), ('b',), ('a', 'b')]
    """
    columns = list(grouping_columns)
    result: List[Tuple[str, ...]] = []
    for size in range(len(columns) + 1):
        for subset in combinations(range(len(columns)), size):
            result.append(tuple(columns[i] for i in subset))
    return result


def finest_group_ids(
    table: Table, grouping_columns: Sequence[str]
) -> Tuple[np.ndarray, List[GroupKey]]:
    """Dense finest-partition group ids for every row.

    Returns ``(ids, keys)`` with ``ids[i]`` indexing into ``keys``; keys are
    normalized tuples over ``grouping_columns``.
    """
    from ..engine.groupby import group_ids_for

    ids, raw_keys, __ = group_ids_for(table, list(grouping_columns))
    keys = [make_key(k) for k in raw_keys]
    return ids, keys


def group_counts(
    table: Table, grouping_columns: Sequence[str]
) -> Dict[GroupKey, int]:
    """Tuple counts ``n_g`` per finest group ``g`` (all groups non-empty)."""
    ids, keys = finest_group_ids(table, grouping_columns)
    counts = np.bincount(ids, minlength=len(keys))
    return {key: int(count) for key, count in zip(keys, counts)}


def group_members(
    table: Table, grouping_columns: Sequence[str], scan=None
) -> Dict[GroupKey, np.ndarray]:
    """Base-row indices of each finest group, ascending, keys sorted.

    The one membership pass of sample construction: the list lengths are
    the counts ``n_g`` an allocation needs, and the lists are what each
    stratum is drawn from.

    ``scan`` optionally is a partitioned-scan runner exposing
    ``map_partitions(table, fn)`` -- e.g. a
    :class:`~repro.engine.executor.ParallelExecutor`.  Each partition then
    lists its own members and the global lists are stitched together with
    the partitions' row offsets.  Range partitions preserve row order, so
    the merged lists (and the sorted key order) equal the serial pass's.
    """
    if scan is None:
        ids, keys = finest_group_ids(table, grouping_columns)
        order = np.argsort(ids, kind="stable")
        boundaries = np.searchsorted(ids[order], np.arange(len(keys) + 1))
        return {
            key: order[boundaries[gid] : boundaries[gid + 1]]
            for gid, key in enumerate(keys)
        }

    def local_members(part):
        local = group_members(part.table, grouping_columns)
        return {
            key: indices + part.row_offset for key, indices in local.items()
        }

    merged: Dict[GroupKey, List[np.ndarray]] = {}
    for partial in scan.map_partitions(table, local_members):
        for key, indices in partial.items():
            merged.setdefault(key, []).append(indices)
    return {key: np.concatenate(merged[key]) for key in sorted(merged)}


def project_key(
    key: GroupKey,
    grouping_columns: Sequence[str],
    target: Sequence[str],
) -> GroupKey:
    """Project a finest-partition key onto a coarser grouping ``target``.

    ``key`` is aligned with ``grouping_columns``; the result is aligned with
    ``target`` (which must be a subset of ``grouping_columns``).

    >>> project_key(("a1", "b2"), ["A", "B"], ["B"])
    ('b2',)
    """
    positions = {name: i for i, name in enumerate(grouping_columns)}
    try:
        return tuple(key[positions[name]] for name in target)
    except KeyError as exc:
        raise KeyError(
            f"grouping column {exc.args[0]!r} not in {list(grouping_columns)}"
        ) from None


def project_keys(
    keys: Iterable[GroupKey],
    grouping_columns: Sequence[str],
    target: Sequence[str],
) -> Iterator[GroupKey]:
    """:func:`project_key` over many keys: the column positions are looked
    up once and every key is projected by one ``itemgetter``.

    >>> list(project_keys([("a1", "b2"), ("a1", "b3")], ["A", "B"], ["B"]))
    [('b2',), ('b3',)]
    """
    # projecting the positions 0..n-1 gives each target column's position,
    # and project_key's KeyError for a column outside grouping_columns
    positions = project_key(range(len(grouping_columns)), grouping_columns, target)
    if len(positions) > 1:
        return map(itemgetter(*positions), keys)
    if positions:
        return zip(map(itemgetter(positions[0]), keys))
    return (() for __ in keys)


def projected_counts(
    finest_counts: Dict[GroupKey, int],
    grouping_columns: Sequence[str],
    target: Sequence[str],
) -> Dict[GroupKey, int]:
    """Aggregate finest-group counts ``n_g`` up to ``n_h`` for grouping T.

    This computes, for each group ``h`` under grouping ``target``, the total
    number of relation tuples in ``h`` (the ``n_h`` of Equation 4).
    """
    out: Dict[GroupKey, int] = {}
    for key, count in finest_counts.items():
        projected = project_key(key, grouping_columns, target)
        out[projected] = out.get(projected, 0) + count
    return out
