"""Byte-identity oracle for the maintained (Section 6) refresh path.

The reference below is the row-tuple algorithm: a dict-of-dicts count
cube, per-group member lists of row tuples settled one group at a time,
``thin_to_probability`` over lists, a table load that counts every row
first and flips one coin per row at its group's final probability, single
inserts buffered until the next read loads them as one table, a
scale-down that draws one number per member and keeps each group's
smallest, and ``to_stratified`` through ``Table.from_rows``.  The columnar
maintainers must draw the same random numbers in the same order, so under
one seed both give the same strata (keys, order, populations, row indices)
and the same base-table bytes, dtypes included.
"""

from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.engine import Column, ColumnType, Schema, Table
from repro.maintenance import CongressMaintainer, subsample_to_budget
from repro.sampling.groups import all_groupings
from repro.sampling.rounding import largest_remainder_round
from repro.sampling.stratified import StratifiedSample, Stratum
from repro.synthetic import GROUPING_COLUMNS, LineitemConfig, generate_lineitem
from tests.maintenance.reservoir_reference import (
    BasicCongressMaintainer,
    HouseMaintainer,
    KeyExtractor,
    SenateMaintainer,
)

# -- the reference: the row-tuple algorithm ------------------------------------


class ReferenceCube:
    def __init__(self, grouping_columns):
        self._grouping_columns = tuple(grouping_columns)
        self._groupings = tuple(all_groupings(self._grouping_columns))
        positions = {name: i for i, name in enumerate(self._grouping_columns)}
        self._projections = {
            target: tuple(positions[name] for name in target)
            for target in self._groupings
        }
        self._counts = {target: {} for target in self._groupings}

    def observe(self, key):
        for target in self._groupings:
            positions = self._projections[target]
            projected = tuple(key[i] for i in positions)
            bucket = self._counts[target]
            bucket[projected] = bucket.get(projected, 0) + 1

    def finest_counts(self):
        return dict(self._counts[self._grouping_columns])

    def selection_probability(self, key, budget):
        best = 0.0
        for target in self._groupings:
            positions = self._projections[target]
            projected = tuple(key[i] for i in positions)
            m_t = len(self._counts[target])
            n_h = self._counts[target].get(projected, 0)
            if m_t == 0 or n_h == 0:
                continue
            best = max(best, budget / (m_t * n_h))
        return min(1.0, best)


def reference_thin(items, old_probability, new_probability, rng):
    if old_probability <= 0:
        return []
    ratio = min(1.0, new_probability / old_probability)
    if ratio >= 1.0:
        return list(items)
    keep_mask = rng.random(len(items)) < ratio
    return [item for item, keep in zip(items, keep_mask) if keep]


class ReferenceCongress:
    def __init__(self, schema, grouping_columns, budget, rng):
        self.schema = schema
        self.grouping_columns = tuple(grouping_columns)
        self._key_of = KeyExtractor(schema, grouping_columns)
        self._budget = float(budget)
        self._rng = rng
        self._cube = ReferenceCube(grouping_columns)
        self._members: Dict[tuple, List[Tuple]] = {}
        self._stored_p: Dict[tuple, float] = {}
        self._pending: List[Tuple] = []

    def _settle(self, key):
        current = self._cube.selection_probability(tuple(key), self._budget)
        stored = self._stored_p.get(key)
        if stored is None:
            self._stored_p[key] = current
            return current
        if current < stored - 1e-15:
            members = self._members.get(key, [])
            if members:
                self._members[key] = reference_thin(
                    members, stored, current, self._rng
                )
            self._stored_p[key] = current
        return self._stored_p[key]

    def _load(self, rows):
        keys = [self._key_of(row) for row in rows]
        for key in keys:
            self._cube.observe(key)
        for key in list(self._stored_p):
            self._settle(key)
        for key in keys:
            if key not in self._stored_p:
                self._settle(key)
        probability = {
            key: self._cube.selection_probability(key, self._budget)
            for key in self._stored_p
        }
        coins = self._rng.random(len(rows))
        accepted = {}
        for row, key, coin in zip(rows, keys, coins):
            if coin < probability[key]:
                accepted.setdefault(key, []).append(row)
        for key in self._stored_p:
            if key in accepted:
                self._members.setdefault(key, []).extend(accepted[key])

    def drain(self):
        """Load the buffered inserts as one table."""
        rows, self._pending = self._pending, []
        if rows:
            self._load(rows)

    def insert_table(self, table):
        self.drain()
        self._load([tuple(row) for row in table.iter_rows()])

    def insert(self, row):
        self._pending.append(tuple(row))

    def snapshot(self):
        self.drain()
        rows_by_group = {
            key: list(members)
            for key, members in self._members.items()
            if members
        }
        return rows_by_group, self._cube.finest_counts()


def reference_subsample(rows_by_group, budget, rng, drawn=None):
    """The scale-down; ``drawn`` collects the groups the one draw covers,
    in draw order."""
    sizes = {key: len(rows) for key, rows in rows_by_group.items()}
    total = sum(sizes.values())
    if total <= budget:
        return rows_by_group
    factor = budget / total
    fractional = {key: size * factor for key, size in sizes.items()}
    targets = largest_remainder_round(fractional, total=budget, caps=sizes)
    numbers = iter(rng.random(total).tolist())
    out = {}
    for key, rows in rows_by_group.items():
        drawn_here = [next(numbers) for __ in rows]
        smallest = sorted(range(len(rows)), key=drawn_here.__getitem__)
        kept = [rows[i] for i in smallest[: targets.get(key, 0)]]
        if drawn is not None:
            drawn.append(key)
        if kept:
            out[key] = kept
    return out


def reference_to_stratified(schema, grouping_columns, rows_by_group, populations):
    """Every group seen is a stratum, an unsampled one empty."""
    all_rows, strata, cursor = [], {}, 0
    for key in sorted(set(rows_by_group) | set(populations)):
        rows = rows_by_group.get(key, [])
        population = int(populations.get(key, len(rows)))
        indices = np.arange(cursor, cursor + len(rows), dtype=np.int64)
        strata[key] = Stratum(key, population, indices)
        all_rows.extend(rows)
        cursor += len(rows)
    base = Table.from_rows(schema, all_rows)
    return StratifiedSample(base, grouping_columns, strata)


def assert_same_sample(new: StratifiedSample, ref: StratifiedSample) -> None:
    assert list(new.strata) == list(ref.strata)
    for key, stratum in ref.strata.items():
        got = new.stratum(key)
        assert got.population == stratum.population
        assert got.row_indices.dtype == stratum.row_indices.dtype
        assert got.row_indices.tolist() == stratum.row_indices.tolist()
    assert new.base_table.schema == ref.base_table.schema
    for name in ref.base_table.schema.names:
        mine, theirs = new.base_table.column(name), ref.base_table.column(name)
        assert mine.dtype == theirs.dtype, name
        assert mine.tobytes() == theirs.tobytes(), name


# -- drivers --------------------------------------------------------------------


def refreshed(maintainer, budget, rng):
    return subsample_to_budget(maintainer.snapshot(), budget, rng).to_stratified()


def reference_refreshed(reference, budget, rng, drawn=None):
    rows_by_group, populations = reference.snapshot()
    kept = reference_subsample(rows_by_group, budget, rng, drawn)
    return reference_to_stratified(
        reference.schema, reference.grouping_columns, kept, populations
    )


def replay(schema, grouping, budget, initial, stream, *, seed=0,
           drain_every=0, refresh_every=50, subsample_budget=None, head=()):
    """Feed ``head`` (row tuples, one by one), ``initial`` (a Table, bulk)
    then ``stream`` (row tuples, one by one) to both implementations,
    comparing every refresh.  If ``drain_every`` > 0, every that many
    inserts read the maintainer's ``current_probability`` of the row just
    inserted, which loads the buffered rows.  Returns the reference and,
    per refresh, the groups drawn from in draw order."""
    subsample_budget = subsample_budget or budget
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    maintainer = CongressMaintainer(schema, grouping, budget, rng)
    reference = ReferenceCongress(schema, grouping, budget, ref_rng)
    for row in head:
        maintainer.insert(row)
        reference.insert(row)
    maintainer.insert_table(initial)
    reference.insert_table(initial)
    draws = []

    def compare():
        draws.append([])
        assert_same_sample(
            refreshed(maintainer, subsample_budget, rng),
            reference_refreshed(reference, subsample_budget, ref_rng, draws[-1]),
        )

    for i, row in enumerate(stream, 1):
        maintainer.insert(row)
        reference.insert(row)
        if drain_every and i % drain_every == 0:
            maintainer.current_probability(reference._key_of(row))
            reference.drain()
        if i % refresh_every == 0:
            compare()
    compare()
    assert rng.random() == ref_rng.random()  # both streams at the same place
    return reference, draws


def lineitem(rows, groups, seed):
    return generate_lineitem(
        LineitemConfig(table_size=rows, num_groups=groups, seed=seed)
    )


STR_SCHEMA = Schema(
    [
        Column("region", ColumnType.STR, "grouping"),
        Column("tier", ColumnType.STR, "grouping"),
        Column("note", ColumnType.STR),
        Column("v", ColumnType.FLOAT, "aggregate"),
        Column("n", ColumnType.INT),
    ]
)


def str_rows(rng, count, regions):
    """Rows over string keys of uneven widths, notes up to 12 characters."""
    region = rng.choice(regions, size=count, p=None)
    tier = rng.choice(["t", "tier-two", "t3"], size=count, p=[0.7, 0.25, 0.05])
    note = ["x" * int(k) for k in rng.integers(0, 13, size=count)]
    return list(
        zip(
            region.tolist(),
            tier.tolist(),
            note,
            rng.normal(size=count).tolist(),
            rng.integers(0, 100, size=count).tolist(),
        )
    )


# -- the cases ------------------------------------------------------------------


class TestCongressRefreshIdentity:
    @pytest.mark.parametrize("drain_every", [0, 37])
    def test_int_keys_with_new_groups(self, drain_every):
        table = lineitem(3000, 27, seed=3)
        # a second generator's rows: other key values, so groups keep arriving
        later = list(lineitem(800, 64, seed=4).iter_rows())
        late_rows = [
            tuple(row) for pair in zip(table.iter_rows(), later) for row in pair
        ]
        __, draws = replay(
            table.schema, GROUPING_COLUMNS, 60, table.slice(0, 1500),
            late_rows, drain_every=drain_every, refresh_every=97,
        )
        assert len(draws) > 5

    @pytest.mark.parametrize("drain_every", [0, 25])
    def test_str_keys(self, drain_every):
        rng = np.random.default_rng(5)
        regions = ["n", "south", "east-by-east", "w"]
        initial = Table.from_rows(STR_SCHEMA, str_rows(rng, 700, regions))
        stream = str_rows(rng, 900, regions + ["far-north-west"])
        replay(
            STR_SCHEMA, ["region", "tier"], 40, initial, stream,
            seed=11, drain_every=drain_every, refresh_every=40,
        )

    def test_refresh_after_every_insert(self):
        table = lineitem(1000, 8, seed=6)
        stream = list(lineitem(200, 27, seed=7).iter_rows())
        replay(
            table.schema, GROUPING_COLUMNS, 30, table, stream,
            seed=2, refresh_every=1, subsample_budget=20,
        )

    def test_first_accepted_order_differs_from_first_seen(self):
        """A group whose first rows are all rejected is subsampled where it
        was first accepted, not where it was first seen: some refresh draws
        from two groups in the opposite order to the one they were seen in.
        """
        table = lineitem(2000, 64, seed=8)
        stream = list(lineitem(600, 216, seed=9).iter_rows())
        reference, draws = replay(
            table.schema, GROUPING_COLUMNS, 100, table.slice(0, 1000),
            stream, seed=4, refresh_every=50, subsample_budget=30,
        )
        seen = {key: i for i, key in enumerate(reference._stored_p)}
        assert any(drawn != sorted(drawn, key=seen.get) for drawn in draws)

    def test_no_rows(self):
        table = lineitem(500, 8, seed=1)
        replay(table.schema, GROUPING_COLUMNS, 10, table.slice(0, 0), [])


class TestInsertTableIdentity:
    @pytest.mark.parametrize("drain_every", [0, 37])
    def test_load_onto_held_rows(self, drain_every):
        """A load onto rows inserted one at a time first loads those rows
        as their own table, then thins the held groups to their new
        probabilities and flips its own coins; the buffered rows are in
        the row store before the loaded rows."""
        table = lineitem(3000, 27, seed=12)
        head = list(lineitem(400, 64, seed=13).iter_rows())
        stream = list(lineitem(300, 64, seed=14).iter_rows())
        replay(
            table.schema, GROUPING_COLUMNS, 40, table, stream,
            seed=1, drain_every=drain_every, head=head, refresh_every=60,
        )


NAN_SCHEMA = Schema(
    [
        Column("g", ColumnType.FLOAT, "grouping"),
        Column("h", ColumnType.INT, "grouping"),
        Column("v", ColumnType.FLOAT, "aggregate"),
    ]
)


def nan_rows(rng, count):
    """Rows whose float key is NaN a tenth of the time; every NaN is its
    own float object."""
    g = rng.choice([0.5, 1.5, np.nan], size=count, p=[0.6, 0.3, 0.1])
    h = rng.integers(0, 4, size=count)
    return list(zip(g.tolist(), h.tolist(), rng.normal(size=count).tolist()))


def int_case():
    table = lineitem(2500, 27, seed=15)
    later = [tuple(row) for row in lineitem(700, 64, seed=16).iter_rows()]
    return table.schema, GROUPING_COLUMNS, 50, table.slice(0, 1200), later


def str_case():
    rng = np.random.default_rng(17)
    regions = ["n", "south", "east-by-east", "w"]
    initial = Table.from_rows(STR_SCHEMA, str_rows(rng, 600, regions))
    later = str_rows(rng, 700, regions + ["far-north-west"])
    return STR_SCHEMA, ("region", "tier"), 40, initial, later


def nan_case():
    rng = np.random.default_rng(18)
    initial = Table.from_rows(NAN_SCHEMA, nan_rows(rng, 500))
    return NAN_SCHEMA, ("g", "h"), 12, initial, nan_rows(rng, 600)


class TestSingleInsertsAreOneLoad:
    """Single inserts, read at some points, give the bytes of
    ``insert_table`` over the rows between those points, at one seed."""

    @pytest.mark.parametrize("case", [int_case, str_case, nan_case])
    @pytest.mark.parametrize("drain_every", [0, 37])
    def test_inserts_then_snapshot_equal_insert_table(self, case, drain_every):
        schema, grouping, budget, initial, rows = case()
        single = CongressMaintainer(
            schema, grouping, budget, np.random.default_rng(9)
        )
        loaded = CongressMaintainer(
            schema, grouping, budget, np.random.default_rng(9)
        )
        single.insert_table(initial)
        loaded.insert_table(initial)
        key_of, start = KeyExtractor(schema, grouping), 0
        for i, row in enumerate(rows, 1):
            single.insert(row)
            if drain_every and i % drain_every == 0:
                # alternate the two kinds of read that load buffered rows
                if i // drain_every % 2:
                    single.cube
                else:
                    single.current_probability(key_of(row))
                loaded.insert_table(Table.from_rows(schema, rows[start:i]))
                start = i
        if start < len(rows):
            loaded.insert_table(Table.from_rows(schema, rows[start:]))
        mine, theirs = single.snapshot(), loaded.snapshot()
        assert mine.keys == theirs.keys
        assert mine.sizes.tolist() == theirs.sizes.tolist()
        assert mine.members.tolist() == theirs.members.tolist()
        assert list(mine.populations.items()) == list(theirs.populations.items())
        assert_same_sample(mine.to_stratified(), theirs.to_stratified())
        assert single._rng.random() == loaded._rng.random()


def house_rows(m):
    out = {}
    for row in m._reservoir.items():
        out.setdefault(m._key_of(row), []).append(row)
    return out


def senate_rows(m):
    return {
        key: [tuple(row) for row in sampler.items()]
        for key, sampler in m._reservoirs.items()
    }


def basic_congress_rows(m):
    out = {}
    for __, key, row in m._reservoir.items():
        out.setdefault(key, []).append(row)
    for key, members in m._delta.items():
        if members:
            out.setdefault(key, []).extend(members)
    return out


class TestTupleMaintainers:
    @pytest.mark.parametrize(
        "maintainer_class, tuples",
        [
            (HouseMaintainer, house_rows),
            (SenateMaintainer, senate_rows),
            (BasicCongressMaintainer, basic_congress_rows),
        ],
    )
    def test_to_stratified_equals_from_rows(self, maintainer_class, tuples):
        rng = np.random.default_rng(21)
        maintainer = maintainer_class(STR_SCHEMA, ["region", "tier"], 60, rng)
        maintainer.insert_many(str_rows(rng, 800, ["n", "south", "east-by-east"]))
        rows_by_group = tuples(maintainer)
        populations = dict(maintainer._populations)
        assert_same_sample(
            maintainer.snapshot().to_stratified(),
            reference_to_stratified(
                STR_SCHEMA, ("region", "tier"), rows_by_group, populations
            ),
        )
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        assert_same_sample(
            subsample_to_budget(maintainer.snapshot(), 25, rng_a).to_stratified(),
            reference_to_stratified(
                STR_SCHEMA, ("region", "tier"),
                reference_subsample(rows_by_group, 25, rng_b), populations,
            ),
        )
