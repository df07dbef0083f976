"""Hash group-by executor.

Implements the engine's multi-key, multi-aggregate GROUP BY: compute a dense
group-id per row for the key columns, then reduce each aggregate input per
group (see :mod:`repro.engine.aggregates`).

The reduction is split into a *partial* phase (:func:`partial_group_by`:
local group keys plus mergeable :class:`~repro.engine.aggregates.AggregateState`
moments) and a *finalize* phase (:func:`finalize_group_by`).  The serial
:func:`group_by` is one partial immediately finalized; the parallel executor
runs one partial per partition and merges them with
:func:`merge_group_partials` first -- both paths share the same arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .aggregates import (
    Aggregate,
    AggregateState,
    finalize_state,
    merge_states,
    partial_reduce,
)
from .schema import Column, ColumnType, Schema
from .table import Table

__all__ = [
    "factorize",
    "key_tuples",
    "group_ids_for",
    "align_rows",
    "group_by",
    "distinct",
    "GroupByPartial",
    "partial_group_by",
    "merge_group_partials",
    "finalize_group_by",
]


# A combined code must stay below this; past it the prefix is re-compacted.
_CODE_LIMIT = 2**63


def factorize(
    arrays: Sequence[np.ndarray],
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Dense ids for the distinct row combinations of equal-length arrays.

    Each column is dictionary-encoded with one ``np.unique``, the per-column
    codes are combined mixed-radix (first column most significant) into one
    ``int64`` and a single integer ``np.unique`` yields the ids.  Returns
    ``(ids, key_arrays)``: ``key_arrays[j][g]`` is column ``j``'s value in
    group ``g``, decoded from the group's code.  Groups are in sorted
    lexicographic order of their keys.  NaN keys compare equal to each
    other, so all NaNs of a column fall into one group (sorted last).

    When the product of the column cardinalities would pass ``2**63`` the
    codes combined so far are re-compacted to their dense ranks (at most one
    per row) before the next column is folded in, so the code never wraps.
    """
    if not arrays:
        raise ValueError("factorize needs at least one array")
    # Each digit of the mixed-radix code: its cardinality and, per key
    # column it covers, the value of every digit code.
    digits: List[Tuple[int, List[np.ndarray]]] = []
    combined = None
    span = 1
    for array in arrays:
        uniques, codes = np.unique(array, return_inverse=True)
        codes = codes.astype(np.int64, copy=False).reshape(-1)
        cardinality = max(len(uniques), 1)
        if combined is None:
            combined = codes
        else:
            if span * cardinality >= _CODE_LIMIT:
                prefix, combined = np.unique(combined, return_inverse=True)
                digits = [(len(prefix), _decode(prefix, digits))]
                span = len(prefix)
            combined = combined * cardinality + codes
        span *= cardinality
        digits.append((cardinality, [uniques]))
    if len(digits) == 1:
        return combined, [uniques]  # one column: its codes are the ids
    group_codes, ids = np.unique(combined, return_inverse=True)
    return ids.astype(np.int64, copy=False), _decode(group_codes, digits)


def _decode(
    codes: np.ndarray, digits: Sequence[Tuple[int, List[np.ndarray]]]
) -> List[np.ndarray]:
    """Per-column key values of each combined code (inverse of the combine)."""
    per_digit: List[List[np.ndarray]] = []
    remainder = codes
    for cardinality, tables in reversed(digits):
        digit = remainder % cardinality
        remainder = remainder // cardinality
        per_digit.append([table[digit] for table in tables])
    return [column for columns in reversed(per_digit) for column in columns]


def key_tuples(key_arrays: Sequence[np.ndarray]) -> List[Tuple]:
    """Row tuples of plain Python scalars from parallel key columns."""
    return list(zip(*(column.tolist() for column in key_arrays)))


def group_ids_for(
    table: Table, key_columns: Sequence[str]
) -> Tuple[np.ndarray, List[Tuple], int]:
    """Compute a dense group id per row for the given key columns.

    Returns:
        ``(group_ids, group_keys, num_groups)`` where ``group_ids`` maps each
        row to ``[0, num_groups)`` and ``group_keys[i]`` is the tuple of key
        values (plain Python scalars) for group ``i``, groups sorted
        lexicographically by key.  With no key columns, every row belongs to
        the single group ``()`` (the paper's "no group-bys" case).  Rows
        whose key is NaN in some column share one group per distinct
        combination of the other columns (see :func:`factorize`).
    """
    if not key_columns:
        return np.zeros(table.num_rows, dtype=np.int64), [()], 1
    ids, key_arrays = factorize([table.column(name) for name in key_columns])
    keys = key_tuples(key_arrays)
    return ids, keys, len(keys)


def align_rows(
    reference: Sequence[np.ndarray], probe: Sequence[np.ndarray]
) -> np.ndarray:
    """Position of each probe row's key among the reference rows (-1: absent).

    ``reference`` and ``probe`` are parallel lists of key columns; reference
    keys must be distinct.  Both sides are encoded by one :func:`factorize`
    over their concatenation, so rows are matched by integer code.
    """
    num_reference = len(reference[0])
    ids, __ = factorize(
        [np.concatenate([ref, col]) for ref, col in zip(reference, probe)]
    )
    position = np.full(int(ids.max()) + 1 if len(ids) else 0, -1, dtype=np.int64)
    position[ids[:num_reference]] = np.arange(num_reference)
    return position[ids[num_reference:]]


@dataclass
class GroupByPartial:
    """The mergeable result of grouping one partition.

    Attributes:
        key_columns: the grouping columns.
        group_keys: local group keys in dense-id order (sorted, as produced
            by :func:`group_ids_for`).
        states: per-aggregate-alias partial states, arrays aligned with
            ``group_keys``.
    """

    key_columns: Tuple[str, ...]
    group_keys: List[Tuple]
    states: Dict[str, AggregateState]

    @property
    def num_groups(self) -> int:
        return len(self.group_keys)


def partial_group_by(
    table: Table,
    key_columns: Sequence[str],
    aggregates: Sequence[Aggregate],
) -> GroupByPartial:
    """Group one partition into mergeable per-aggregate states."""
    group_ids, group_keys, num_groups = group_ids_for(table, key_columns)
    states = {}
    for agg in aggregates:
        values = agg.evaluate_input(table)
        states[agg.alias] = partial_reduce(
            agg.func, values, group_ids, num_groups
        )
    return GroupByPartial(tuple(key_columns), group_keys, states)


def merge_group_partials(
    partials: Sequence[GroupByPartial],
) -> GroupByPartial:
    """Merge partition-local partials over the union of their group keys.

    The merged key order is the sorted union, matching the sorted order
    :func:`group_ids_for` gives a single whole-table scan, so the parallel
    path emits groups in exactly the serial order.
    """
    if not partials:
        raise ValueError("merge_group_partials needs at least one partial")
    key_columns = partials[0].key_columns
    merged_keys = sorted({key for p in partials for key in p.group_keys})
    index_of = {key: i for i, key in enumerate(merged_keys)}
    index_maps = [
        np.fromiter(
            (index_of[key] for key in p.group_keys),
            dtype=np.int64,
            count=p.num_groups,
        )
        for p in partials
    ]
    aliases = list(partials[0].states)
    states = {
        alias: merge_states(
            [p.states[alias] for p in partials],
            index_maps,
            len(merged_keys),
        )
        for alias in aliases
    }
    return GroupByPartial(key_columns, merged_keys, states)


def finalize_group_by(
    partial: GroupByPartial,
    schema: Schema,
    aggregates: Sequence[Aggregate],
) -> Table:
    """Finalize a (merged) partial into the GROUP BY result table.

    ``schema`` is the *input* table's schema, used to type the key columns.
    """
    out_columns = {}
    key_schema_cols = []
    for pos, name in enumerate(partial.key_columns):
        src = schema.column(name)
        key_schema_cols.append(Column(name, src.ctype))
        out_columns[name] = src.ctype.coerce(
            [key[pos] for key in partial.group_keys]
        )
    agg_schema_cols = []
    for agg in aggregates:
        agg_schema_cols.append(Column(agg.alias, ColumnType.FLOAT))
        out_columns[agg.alias] = finalize_state(partial.states[agg.alias])
    return Table(Schema(key_schema_cols + agg_schema_cols), out_columns)


def group_by(
    table: Table,
    key_columns: Sequence[str],
    aggregates: Sequence[Aggregate],
) -> Table:
    """Group ``table`` by ``key_columns`` and compute ``aggregates``.

    The result schema is the key columns (original types) followed by one
    FLOAT column per aggregate, named by its alias.  With empty
    ``key_columns`` the result has a single row.
    """
    return finalize_group_by(
        partial_group_by(table, key_columns, aggregates),
        table.schema,
        aggregates,
    )


def distinct(table: Table, key_columns: Sequence[str]) -> Table:
    """Distinct combinations of the key columns (sorted by unique order)."""
    __, group_keys, __ = group_ids_for(table, key_columns)
    schema = table.schema.project(key_columns)
    return Table.from_rows(schema, group_keys)
