"""The columnar sample against the per-stratum code it replaced.

A :class:`StratifiedSample` holds its strata as arrays, the frame is built
from them, and a maintained refresh hands its sample over as arrays.  The
per-stratum versions of that code -- ``SampleFrame.__init__``,
``expected_groups`` and ``structural_issues`` over a dict of
:class:`Stratum`, ``_all_indices_and_sf`` and the relation materializers,
``build``, ``MaintainedSample.to_stratified`` through ``split``, the loop
form of largest-remainder rounding and the ``lexsort`` of the scale-down
-- are kept below as the reference.  Every frame array must be equal with
the same dtype, every relation byte-identical and every verdict worded the
same.
"""

import math
from itertools import chain, combinations
from typing import Dict, FrozenSet, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AquaSystem
from repro.engine import Column, ColumnType, Schema, Table
from repro.maintenance import CongressMaintainer, maintainer_for
from repro.maintenance.base import _narrowest
from repro.maintenance.onepass import _by_group_then_draw
from repro.sampling.groups import GroupKey, group_members, make_key, project_key
from repro.sampling.rounding import (
    largest_remainder_array,
    largest_remainder_round,
)
from repro.sampling.stratified import (
    GID_COLUMN,
    SF_COLUMN,
    SampleFrame,
    StratifiedSample,
    Stratum,
    _readonly,
)
from repro.testing import FaultInjector

# -- the reference: the per-stratum code -----------------------------------


class HeadFrame(SampleFrame):
    """The frame as it was built from a dict of strata; the checks and
    projections it shares with :class:`SampleFrame` are inherited."""

    def __init__(self, base, grouping_columns, strata):
        self._base = base
        self.grouping_columns = tuple(grouping_columns)
        strata = self._strata = dict(strata)
        self.all_keys: Tuple[GroupKey, ...] = tuple(strata)
        count = len(strata)
        self.all_populations = _readonly(
            np.fromiter(
                (s.population for s in strata.values()), np.int64, count
            )
        )
        self.all_sizes = _readonly(
            np.fromiter(
                (s.sample_size for s in strata.values()), np.int64, count
            )
        )
        sampled = [s for s in strata.values() if s.sample_size > 0]
        self.stratum_keys: Tuple[GroupKey, ...] = tuple(
            make_key(s.key) for s in sampled
        )
        has_rows = self.all_sizes > 0
        sizes = self.all_sizes[has_rows]
        self.populations = _readonly(
            self.all_populations[has_rows].astype(np.float64)
        )
        self.sizes = _readonly(sizes.astype(np.float64))
        self.row_indices = _readonly(
            np.concatenate([s.row_indices for s in sampled])
            if sampled
            else np.empty(0, dtype=np.int64)
        )
        self.stratum_ids = _readonly(
            np.repeat(np.arange(len(sampled), dtype=np.int64), sizes)
        )
        # population / size, exactly Stratum.scale_factor for each row
        self.sf = _readonly(np.repeat(self.populations / self.sizes, sizes))
        self._projections: Dict[Tuple[str, ...], tuple] = {}
        self._expected: Dict[Tuple[str, ...], FrozenSet[GroupKey]] = {}

    def head_structural_issues(self) -> Tuple[str, ...]:
        num_base = self._base.num_rows
        marked = np.flatnonzero(self.damaged_strata).tolist()
        issues: List[str] = []
        for key in sorted(self.all_keys[i] for i in marked):
            stratum = self._strata[key]
            if stratum.population < 0:
                issues.append(
                    f"stratum {key}: negative population {stratum.population}"
                )
            if stratum.sample_size > max(stratum.population, 0):
                issues.append(
                    f"stratum {key}: sample size {stratum.sample_size} exceeds "
                    f"population {stratum.population}"
                )
            indices = np.asarray(stratum.row_indices)
            if len(indices):
                if indices.min() < 0 or indices.max() >= num_base:
                    issues.append(
                        f"stratum {key}: row indices out of bounds for base "
                        f"table of {num_base} rows"
                    )
                elif (np.diff(np.sort(indices)) == 0).any():
                    issues.append(f"stratum {key}: duplicate row indices")
            if stratum.sample_size > 0:
                sf = stratum.scale_factor
                if not math.isfinite(sf) or sf <= 0:
                    issues.append(f"stratum {key}: corrupt scale factor {sf}")
        return tuple(issues)

    def head_expected_groups(self, group_by) -> FrozenSet[GroupKey]:
        return frozenset(
            project_key(key, self.grouping_columns, group_by)
            for key, population in zip(
                self.all_keys, self.all_populations.tolist()
            )
            if population > 0
        )


def head_ordered_nonempty(strata) -> List[Stratum]:
    return [s for __, s in sorted(strata.items()) if s.sample_size > 0]


def head_all_indices_and_sf(strata) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenated row indices, per-row SF, and per-row dense gid."""
    strata = head_ordered_nonempty(strata)
    if not strata:
        empty = np.empty(0, dtype=np.int64)
        return empty, np.empty(0, dtype=np.float64), empty
    indices = np.concatenate([s.row_indices for s in strata])
    sizes = [s.sample_size for s in strata]
    sfs = np.repeat(
        np.array([s.scale_factor for s in strata], dtype=np.float64), sizes
    )
    gids = np.repeat(np.arange(len(strata), dtype=np.int64), sizes)
    return indices, sfs, gids


def head_relations(base, grouping_columns, strata) -> List[Table]:
    """sample_table, integrated, normalized and key-normalized relations."""
    indices, sfs, gids = head_all_indices_and_sf(strata)
    ordered = head_ordered_nonempty(strata)
    normalized_aux = Table.from_rows(
        Schema(
            [base.schema.column(name) for name in grouping_columns]
            + [Column(SF_COLUMN, ColumnType.FLOAT)]
        ),
        [tuple(s.key) + (s.scale_factor,) for s in ordered],
    )
    key_aux = Table.from_rows(
        Schema(
            [Column(GID_COLUMN, ColumnType.INT), Column(SF_COLUMN, ColumnType.FLOAT)]
        ),
        [(gid, s.scale_factor) for gid, s in enumerate(ordered)],
    )
    return [
        base.take(indices),
        base.take(indices).with_column(Column(SF_COLUMN, ColumnType.FLOAT), sfs),
        normalized_aux,
        base.take(indices).with_column(Column(GID_COLUMN, ColumnType.INT), gids),
        key_aux,
    ]


def new_relations(sample) -> List[Table]:
    return [
        sample.sample_table(),
        sample.integrated_relation(),
        sample.normalized_relations()[1],
        *sample.key_normalized_relations(),
    ]


def head_build(table, grouping_columns, allocation, rng) -> Dict[GroupKey, Stratum]:
    members = group_members(table, grouping_columns)
    strata: Dict[GroupKey, Stratum] = {}
    for key, rows in members.items():
        want = min(int(allocation.get(key, 0)), len(rows))
        if want > 0:
            chosen = rng.choice(rows, size=want, replace=False)
            chosen = np.sort(chosen)
        else:
            chosen = np.empty(0, dtype=np.int64)
        strata[key] = Stratum(key, len(rows), chosen)
    return strata


def split(values, keys, sizes):
    """``values`` cut into consecutive slices ``sizes`` long, by key."""
    out, cursor = {}, 0
    for key, size in zip(keys, sizes):
        out[key] = values[cursor : cursor + size]
        cursor += size
    return out


def head_to_stratified(maintained) -> Tuple[Table, Dict[GroupKey, Stratum]]:
    positions = dict(maintained.positions)
    ordered = sorted(positions)
    gathered = [positions[key] for key in ordered]
    base = _narrowest(
        maintained.rows.take(
            np.concatenate(gathered) if gathered else np.empty(0, np.int64)
        )
    )
    sizes = [len(at) for at in gathered]
    slices = split(np.arange(len(base), dtype=np.int64), ordered, sizes)
    strata = {
        key: Stratum(key, int(maintained.populations.get(key, size)), at)
        for (key, at), size in zip(slices.items(), sizes)
    }
    return base, strata


def head_largest_remainder_round(fractional, total=None, caps=None):
    keys = list(fractional)
    values = np.array([fractional[k] for k in keys], dtype=np.float64)
    values = np.maximum(values, 0.0)
    if total is None:
        total = int(round(float(values.sum())))
    cap_values = (
        np.array([caps[k] for k in keys], dtype=np.int64)
        if caps is not None
        else np.full(len(keys), np.iinfo(np.int64).max)
    )
    base = np.minimum(np.floor(values).astype(np.int64), cap_values)
    remaining = total - int(base.sum())
    if remaining < 0:
        order = np.argsort(values - base)  # ascending remainder
        for idx in order:
            if remaining == 0:
                break
            reducible = int(base[idx])
            take = min(reducible, -remaining)
            base[idx] -= take
            remaining += take
        return dict(zip(keys, base.tolist()))
    remainders = values - np.floor(values)
    headroom = cap_values - base
    order = np.argsort(-remainders, kind="stable")
    for idx in order:
        if remaining == 0:
            break
        if headroom[idx] > 0:
            base[idx] += 1
            headroom[idx] -= 1
            remaining -= 1
    if remaining > 0:
        for idx in np.argsort(-headroom):
            if remaining == 0:
                break
            take = min(int(headroom[idx]), remaining)
            base[idx] += take
            headroom[idx] -= take
            remaining -= take
    return dict(zip(keys, base.tolist()))


# -- comparison ---------------------------------------------------------------


def assert_same_array(mine, theirs, name):
    assert mine.dtype == theirs.dtype, name
    assert np.array_equal(mine, theirs, equal_nan=mine.dtype.kind == "f"), name


def assert_same_table(mine: Table, theirs: Table):
    assert mine.schema == theirs.schema
    for name in theirs.schema.names:
        assert_same_array(mine.column(name), theirs.column(name), name)
        assert mine.column(name).tobytes() == theirs.column(name).tobytes(), name


FRAME_ARRAYS = (
    "all_populations", "all_sizes", "populations", "sizes", "row_indices",
    "stratum_ids", "sf", "damaged_strata",
)


def assert_same_frame(sample: StratifiedSample, strata) -> None:
    """``sample``'s frame, strata view and relations against the reference
    run on the dict of strata it was made from."""
    new = sample.frame
    old = HeadFrame(sample.base_table, sample.grouping_columns, strata)
    assert new.all_keys == old.all_keys
    assert new.stratum_keys == old.stratum_keys
    for name in FRAME_ARRAYS:
        assert_same_array(getattr(new, name), getattr(old, name), name)
        assert not getattr(new, name).flags.writeable, name
    assert new.structural_issues == old.head_structural_issues()
    grouping = sample.grouping_columns
    for size in range(len(grouping) + 1):
        for group_by in combinations(grouping, size):
            assert new.expected_groups(group_by) == old.head_expected_groups(
                group_by
            )
            mine, theirs = new.projection(group_by), old.projection(group_by)
            assert_same_array(mine[0], theirs[0], "targets")
            assert list(map(make_key, mine[1])) == list(map(make_key, theirs[1]))
    view = sample.strata
    assert list(view) == list(strata)
    for key, stratum in strata.items():
        assert view[key].population == stratum.population
        assert np.array_equal(view[key].row_indices, stratum.row_indices)
    assert sample.total_sample_size == sum(s.sample_size for s in strata.values())
    assert sample.total_population == sum(s.population for s in strata.values())
    try:
        theirs = head_relations(sample.base_table, grouping, strata)
    except IndexError:
        with pytest.raises(IndexError):
            new_relations(sample)
        return
    for mine, reference in zip(new_relations(sample), theirs):
        assert_same_table(mine, reference)


# -- generated strata ---------------------------------------------------------

KEY_COLUMNS = {
    "str": ColumnType.STR,
    "int": ColumnType.INT,
    "float": ColumnType.FLOAT,
}


def base_table(kinds, num_rows, rng):
    schema = Schema(
        [Column(f"k{i}", KEY_COLUMNS[kind], "grouping") for i, kind in enumerate(kinds)]
        + [Column("v", ColumnType.FLOAT, "aggregate")]
    )
    data = {"v": rng.normal(size=num_rows)}
    for i, kind in enumerate(kinds):
        if kind == "str":
            data[f"k{i}"] = rng.choice(["a", "bb", "ccc"], size=num_rows)
        elif kind == "int":
            data[f"k{i}"] = rng.integers(0, 4, size=num_rows)
        else:
            data[f"k{i}"] = rng.choice([0.5, np.nan], size=num_rows)
    return Table.from_columns(schema, **data)


def key_value(kind, i):
    """The ``i``-th value of a key column; float keys repeat a fresh NaN
    object (a raw NaN, not the one ``make_key`` puts in keys)."""
    if kind == "str":
        return f"g{i % 5}" + "x" * (i % 3)
    if kind == "int":
        return np.int64(i * 7 - 20) if i % 2 else i * 7 - 20
    return float("nan") if i % 3 == 0 else i / 4


DAMAGE = ("negative", "oversized", "out_of_bounds", "duplicate", "unsorted")


@st.composite
def strata_dicts(draw):
    kinds = draw(
        st.lists(st.sampled_from(sorted(KEY_COLUMNS)), min_size=1, max_size=3)
    )
    num_rows = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    count = draw(st.integers(0, 12))
    strata = []
    for i in range(count):
        key = tuple(key_value(kind, i) for kind in kinds)
        population = int(rng.integers(0, num_rows + 1))
        size = int(rng.integers(0, population + 1)) if draw(st.booleans()) else 0
        indices = np.sort(rng.choice(num_rows, size=size, replace=False))
        strata.append(Stratum(key, population, indices.astype(np.int64)))
    for kind, target in draw(
        st.lists(st.tuples(st.sampled_from(DAMAGE), st.integers(0, 11)), max_size=3)
    ):
        if target >= count:
            continue
        old = strata[target]
        indices = np.array(old.row_indices)
        if kind == "negative":
            strata[target] = Stratum(old.key, -3, indices)
        elif kind == "oversized":
            strata[target] = Stratum(old.key, max(len(indices) - 1, 0), indices)
        elif kind == "unsorted":
            strata[target] = Stratum(old.key, old.population, indices[::-1])
        elif len(indices) and kind == "out_of_bounds":
            indices[-1] = num_rows + 3
            strata[target] = Stratum(old.key, old.population, indices)
        elif len(indices):
            twin = np.append(indices, indices[0])
            strata[target] = Stratum(old.key, old.population + 1, twin)
    order = draw(st.permutations(range(count)))
    grouping = [f"k{i}" for i in range(len(kinds))]
    return (
        base_table(kinds, num_rows, rng),
        grouping,
        {strata[i].key: strata[i] for i in order},
    )


@settings(deadline=None, max_examples=300)
@given(case=strata_dicts())
def test_frame_from_arrays_equals_the_per_stratum_frame(case):
    base, grouping, strata = case
    assert_same_frame(StratifiedSample(base, grouping, strata), strata)


@settings(deadline=None, max_examples=60)
@given(case=strata_dicts())
def test_from_member_lists(case):
    base, grouping, strata = case
    members = {key: s.row_indices.tolist() for key, s in strata.items()}
    populations = {key: s.population for key, s in strata.items()}
    sample = StratifiedSample.from_member_lists(base, grouping, members, populations)
    reference = {
        key: Stratum(key, int(populations[key]), np.asarray(sorted(rows), dtype=np.int64))
        for key, rows in members.items()
    }
    assert_same_frame(sample, reference)


@pytest.mark.parametrize("seed", range(4))
def test_build_draws_the_per_group_sample(seed):
    rng = np.random.default_rng(seed)
    base = base_table(["str", "int"], 300, rng)
    keys = list(group_members(base, ["k0", "k1"]))
    allocation = {key: int(rng.integers(-1, 30)) for key in keys[1:]}
    sample = StratifiedSample.build(
        base, ["k0", "k1"], allocation, rng=np.random.default_rng(seed)
    )
    reference = head_build(
        base, ["k0", "k1"], allocation, np.random.default_rng(seed)
    )
    assert_same_frame(sample, reference)
    assert np.array_equal(sample.key_order, np.arange(len(keys)))


# -- fault-injected samples ---------------------------------------------------


FAULTS = (
    "drop_stratum",
    "corrupt_scale_factor",
    "truncate_sample",
    "empty_allocation",
    "corrupt_row_indices",
)


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_injected_samples(fault):
    rng = np.random.default_rng(5)
    system = AquaSystem(space_budget=60, rng=np.random.default_rng(6))
    system.register_table("rel", base_table(["str", "int"], 400, rng))
    getattr(FaultInjector(system), fault)("rel")
    sample = system.synopsis("rel").sample
    strata = sample.strata
    rebuilt = StratifiedSample(sample.base_table, sample.grouping_columns, strata)
    assert_same_frame(rebuilt, strata)
    assert sample.frame.structural_issues == rebuilt.frame.structural_issues


# -- the maintained hand-over -------------------------------------------------

STR_SCHEMA = Schema(
    [
        Column("region", ColumnType.STR, "grouping"),
        Column("tier", ColumnType.INT, "grouping"),
        Column("v", ColumnType.FLOAT, "aggregate"),
    ]
)


def stream(rng, count):
    regions = rng.choice(["n", "south", "east-by-east", "w"], size=count)
    tiers = rng.choice([1, 2, 3, 40], size=count, p=[0.6, 0.3, 0.08, 0.02])
    return list(zip(regions.tolist(), tiers.tolist(), rng.normal(size=count).tolist()))


@pytest.mark.parametrize(
    "strategy",
    [
        pytest.param("congress", id="Congress"),
        pytest.param("house", id="House"),
        pytest.param("senate", id="Senate"),
    ],
)
@pytest.mark.parametrize("budget", [12, 80])
def test_to_stratified_equals_split_plus_the_unsampled_groups(strategy, budget):
    rng = np.random.default_rng(budget)
    maintainer = maintainer_for(
        strategy, STR_SCHEMA, ["region", "tier"], budget, rng
    )
    maintainer.insert_many(stream(rng, 600))
    maintained = maintainer.snapshot()
    base, held = head_to_stratified(maintained)
    sample = maintained.to_stratified()
    assert_same_table(sample.base_table, base)
    strata = sample.strata
    assert [key for key in strata if key in held] == list(held)
    for key, stratum in held.items():
        assert strata[key].population == stratum.population
        assert_same_array(strata[key].row_indices, stratum.row_indices, key)
    unsampled = set(maintained.populations) - set(held)
    assert {key for key in strata if key not in held} == unsampled
    for key in unsampled:
        assert strata[key].sample_size == 0
        assert strata[key].population == maintained.populations[key]
    assert list(strata) == sorted(strata)
    assert_same_frame(sample, strata)


def test_congress_snapshot_equals_split():
    """The snapshot cuts the maintainer's flat members into its held groups,
    and every member is a row of its group."""
    rng = np.random.default_rng(3)
    maintainer = CongressMaintainer(STR_SCHEMA, ["region", "tier"], 30, rng)
    maintainer.insert_many(stream(rng, 500))
    snapshot = maintainer.snapshot()
    held = maintainer._sizes > 0
    keys = maintainer.cube.group_keys
    expected = split(
        maintainer._members,
        [keys[g] for g in maintainer._groups[held].tolist()],
        maintainer._sizes[held].tolist(),
    )
    assert list(snapshot.positions) == list(expected)
    region, tier = snapshot.rows.column("region"), snapshot.rows.column("tier")
    for key, at in expected.items():
        assert_same_array(snapshot.positions[key], at, key)
        assert set(zip(region[at].tolist(), tier[at].tolist())) == {key}


@settings(deadline=None, max_examples=200)
@given(
    sizes=st.lists(st.integers(0, 40), min_size=1, max_size=300),
    seed=st.integers(0, 2**16),
)
def test_scale_down_order_is_the_lexsort(sizes, seed):
    sizes = np.asarray(sizes, dtype=np.int64)
    group = np.repeat(
        np.arange(len(sizes), dtype=np.min_scalar_type(len(sizes) - 1)), sizes
    )
    draws = np.random.default_rng(seed).random(int(sizes.sum()))
    assert np.array_equal(
        _by_group_then_draw(group, draws),
        np.lexsort((draws, group.astype(np.int64))),
    )


# -- rounding -----------------------------------------------------------------


@settings(deadline=None, max_examples=300)
@given(
    sizes=st.lists(st.integers(0, 30), min_size=1, max_size=40),
    share=st.floats(0.0, 1.0),
)
def test_array_rounding_equals_the_loop_on_scale_downs(sizes, share):
    """The scale-down's call: proportional targets, capped at the sizes.
    Equal sizes give tied remainders; the earlier group wins each tie."""
    total = sum(sizes)
    budget = int(share * total)
    fractional = {i: size * (budget / total) if total else 0.0 for i, size in enumerate(sizes)}
    caps = dict(enumerate(sizes))
    reference = head_largest_remainder_round(fractional, total=budget, caps=caps)
    assert largest_remainder_round(fractional, total=budget, caps=caps) == reference
    mine = largest_remainder_array(
        np.fromiter(fractional.values(), np.float64), total=budget,
        caps=np.asarray(sizes, dtype=np.int64),
    )
    assert mine.dtype == np.int64
    assert mine.tolist() == list(reference.values())


@settings(deadline=None, max_examples=300)
@given(
    values=st.lists(st.sampled_from([0.0, 0.5, 1.5, 2.25, 3.0, 7.75]), min_size=1, max_size=30),
    shift=st.integers(-12, 40),
    capped=st.booleans(),
    cap_seed=st.integers(0, 2**16),
)
def test_array_rounding_equals_the_loop_on_any_total(values, shift, capped, cap_seed):
    """Totals below the floor sum, above every cap, and everything between,
    with many tied remainders."""
    fractional = dict(enumerate(values))
    total = max(0, int(sum(values)) + shift)
    caps = None
    if capped:
        rng = np.random.default_rng(cap_seed)
        caps = {i: int(c) for i, c in enumerate(rng.integers(0, 9, len(values)))}
    reference = head_largest_remainder_round(fractional, total=total, caps=caps)
    assert largest_remainder_round(fractional, total=total, caps=caps) == reference
    mine = largest_remainder_array(
        np.asarray(values), total=total,
        caps=None if caps is None else np.fromiter(caps.values(), np.int64),
    )
    assert mine.tolist() == list(reference.values())
