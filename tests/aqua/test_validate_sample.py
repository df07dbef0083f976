"""``validate_sample``: the array-at-a-time structural pass says exactly what
the per-stratum loop it replaced said, judges every guarded answer, and
walks each sample object once -- its frame remembers the verdict."""

import math
from functools import cached_property

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.aqua import validate_sample  # noqa: E402
from repro.engine import Column, ColumnType, Schema, Table  # noqa: E402
from repro.sampling.stratified import (  # noqa: E402
    SampleFrame,
    StratifiedSample,
    Stratum,
)
from repro.testing import inject  # noqa: E402

from test_faults import (  # noqa: E402
    _COVERAGE,
    SQL,
    STRUCTURAL_FAULTS,
    VERDICTS,
    system,  # noqa: F401  (fixture)
)
from test_guard import make_table  # noqa: E402


def oracle(sample):
    """``validate_sample`` as it stood before the pass moved onto the
    frame: one Python visit per stratum.  Kept verbatim as the reference."""
    issues = []
    num_base = sample.base_table.num_rows
    for key, stratum in sorted(sample.strata.items()):
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
            elif len(np.unique(indices)) != len(indices):
                issues.append(f"stratum {key}: duplicate row indices")
        if stratum.sample_size > 0:
            sf = stratum.scale_factor
            if not math.isfinite(sf) or sf <= 0:
                issues.append(f"stratum {key}: corrupt scale factor {sf}")
    return issues


KEY_SHAPES = {
    "str": ((ColumnType.STR,), lambda i: (f"g{i:02d}",)),
    "int": ((ColumnType.INT,), lambda i: (i * 7 - 20,)),
    "str_int": (
        (ColumnType.STR, ColumnType.INT),
        lambda i: (f"g{i % 3}", i // 3),
    ),
}
DAMAGE = (
    "negative_population",
    "size_above_population",
    "zero_population_rows_kept",
    "index_below_zero",
    "index_at_num_rows",
    "index_far_above",
    "duplicate_in_stratum",
    "index_shared_with_another_stratum",
    "unsorted",
    "emptied",
)


def base_table(shape, num_rows):
    ctypes, __ = KEY_SHAPES[shape]
    columns = [
        Column(f"k{i}", ctype, "grouping") for i, ctype in enumerate(ctypes)
    ]
    data = {
        column.name: (
            np.zeros(num_rows, dtype=np.int64)
            if column.ctype is ColumnType.INT
            else np.full(num_rows, "g")
        )
        for column in columns
    }
    return Table.from_columns(Schema(columns), **data)


def damaged(kind, stratum, donor, num_rows, rng):
    """``stratum`` with one kind of damage (``donor``: some other stratum)."""
    key, population = stratum.key, stratum.population
    indices = np.array(stratum.row_indices)
    if kind == "negative_population":
        return Stratum(key, -1 - int(rng.integers(5)), indices)
    if kind == "size_above_population":
        return Stratum(key, max(len(indices) - 1, 0), indices)
    if kind == "zero_population_rows_kept":
        return Stratum(key, 0, indices)
    if kind == "emptied":
        return Stratum(key, population, indices[:0])
    if kind == "unsorted":
        return Stratum(key, population, indices[::-1])
    if kind == "index_shared_with_another_stratum":
        fresh = np.setdiff1d(donor.row_indices, indices)[:1]
        return Stratum(
            key, population + len(fresh), np.concatenate([indices, fresh])
        )
    if not len(indices):
        return stratum
    spot = int(rng.integers(len(indices)))
    if kind == "duplicate_in_stratum":
        twin = np.insert(indices, int(rng.integers(len(indices))), indices[spot])
        return Stratum(key, population + 1, twin)
    indices[spot] = {
        "index_below_zero": -1 - int(rng.integers(3)),
        "index_at_num_rows": num_rows,
        "index_far_above": num_rows + 10**12,
    }[kind]
    return Stratum(key, population, indices)


@st.composite
def samples(draw):
    shape = draw(st.sampled_from(sorted(KEY_SHAPES)))
    num_rows = draw(st.integers(min_value=1, max_value=60))
    num_strata = draw(st.integers(min_value=1, max_value=9))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    unsampled = draw(st.booleans()) and draw(st.booleans())
    strata = []
    for i in range(num_strata):
        population = int(rng.integers(0, num_rows + 1))
        size = 0 if unsampled else int(rng.integers(0, population + 1))
        indices = np.sort(rng.choice(num_rows, size=size, replace=False))
        strata.append(
            Stratum(KEY_SHAPES[shape][1](i), population, indices.astype(np.int64))
        )
    hits = draw(
        st.lists(
            st.tuples(
                st.sampled_from(DAMAGE), st.integers(0, num_strata - 1)
            ),
            max_size=6,
        )
    )
    for kind, target in hits:
        donor = strata[(target + 1) % num_strata]
        strata[target] = damaged(kind, strata[target], donor, num_rows, rng)
    order = draw(st.permutations(range(num_strata)))
    return StratifiedSample(
        base_table(shape, num_rows),
        [f"k{i}" for i in range(len(KEY_SHAPES[shape][0]))],
        {strata[i].key: strata[i] for i in order},
    )


@settings(deadline=None, max_examples=400)
@given(sample=samples())
def test_same_issues_in_the_same_order_as_the_per_stratum_loop(sample):
    assert validate_sample(sample) == oracle(sample)


def stratum(key, population, indices):
    return Stratum((key,), population, np.asarray(indices, dtype=np.int64))


def sample_of(*strata, num_rows=10):
    return StratifiedSample(
        base_table("str", num_rows), ["k0"], {s.key: s for s in strata}
    )


class TestWording:
    def test_sound_sample_has_no_issues(self):
        sample = sample_of(stratum("a", 5, [0, 3]), stratum("b", 5, []))
        assert validate_sample(sample) == oracle(sample) == []

    def test_no_sampled_stratum_at_all(self):
        sample = sample_of(stratum("a", 5, []), stratum("b", -2, []))
        assert validate_sample(sample) == oracle(sample) == [
            "stratum ('b',): negative population -2"
        ]

    def test_no_strata(self):
        assert validate_sample(sample_of()) == []

    def test_same_index_in_two_strata_is_not_a_duplicate(self):
        sample = sample_of(stratum("a", 5, [1, 2]), stratum("b", 5, [2, 3]))
        assert validate_sample(sample) == []

    def test_duplicate_is_found_in_unsorted_indices(self):
        sample = sample_of(stratum("a", 5, [4, 1, 4]), stratum("b", 5, [4]))
        assert validate_sample(sample) == oracle(sample) == [
            "stratum ('a',): duplicate row indices"
        ]

    def test_out_of_bounds_hides_the_duplicate_as_the_loop_had_it(self):
        sample = sample_of(stratum("a", 5, [10, 10]))
        assert validate_sample(sample) == oracle(sample) == [
            "stratum ('a',): row indices out of bounds for base table of "
            "10 rows"
        ]

    def test_every_issue_of_every_damaged_stratum_in_key_order(self):
        sample = sample_of(
            stratum("c", 0, [1, 1]),
            stratum("a", 9, [0]),
            stratum("b", -1, [-1]),
        )
        assert validate_sample(sample) == oracle(sample) == [
            "stratum ('b',): negative population -1",
            "stratum ('b',): sample size 1 exceeds population -1",
            "stratum ('b',): row indices out of bounds for base table of "
            "10 rows",
            "stratum ('b',): corrupt scale factor -1.0",
            "stratum ('c',): sample size 2 exceeds population 0",
            "stratum ('c',): duplicate row indices",
            "stratum ('c',): corrupt scale factor 0.0",
        ]


@pytest.fixture
def walks(monkeypatch):
    """Count the structural passes run from here on."""
    calls = []
    walk = SampleFrame.damaged_strata.func

    def counted(frame):
        calls.append(frame)
        return walk(frame)

    memo = cached_property(counted)
    memo.__set_name__(SampleFrame, "damaged_strata")
    monkeypatch.setattr(SampleFrame, "damaged_strata", memo)
    return calls


class TestEveryGuardedAnswerIsJudged:
    def test_n_guarded_answers_walk_each_sample_once(self, system, walks):  # noqa: F811
        """The verdict is a property of the sample object, remembered by
        its frame: five guarded answers over one sample walk it once."""
        frame = system.synopsis("rel").sample.frame
        for i in range(5):
            sql = f"select a, sum(q) s from rel where q > -{i + 1} group by a"
            assert not system.answer(sql).guard.degraded
        assert walks == [frame]

    def test_unguarded_and_cached_answers_do_not_run_it(self, system, walks):  # noqa: F811
        system.answer(SQL)
        assert system.answer(SQL).cache_hit
        assert len(walks) == 1
        system.answer("select b, sum(q) s from rel group by b", guard=False)
        assert len(walks) == 1

    @pytest.mark.parametrize("route", ["install", "patch"])
    @pytest.mark.parametrize("kind", STRUCTURAL_FAULTS)
    def test_structural_faults_get_the_pinned_wording(
        self, system, monkeypatch, walks, kind, route  # noqa: F811
    ):
        assert not system.answer(SQL).guard.degraded
        if route == "patch":
            def refuse(name, sample):
                raise RuntimeError("not materialisable")

            monkeypatch.setattr(system, "_install", refuse)
        inject(system, kind, "rel")
        sample = system.synopsis("rel").sample
        expected = [i for i in VERDICTS[kind][2] if i != _COVERAGE]
        assert validate_sample(sample) == oracle(sample) == expected
        assert list(system.synopsis("rel").validate()) == expected
        assert walks[-1] is sample.frame  # the damaged sample's own arrays


# A guarded answer no cached answer or roll-up entry can serve: a literal
# of its own each time.
def _fresh_answer(system, literal):
    sql = f"select a, b, sum(q) s from rel where q > -{literal} group by a, b"
    return system.answer(sql)


def _refresh(system):
    system.refresh_synopsis("rel")


def _insert_and_refresh(system):
    inject(system, "stale", "rel")
    system.refresh_synopsis("rel")


def _reregister(system):
    system.register_table("rel", make_table())


class TestANewSampleIsWalkedAnew:
    """The memo lives on the frame of one sample object, so whatever installs
    another sample starts from an unjudged one."""

    @pytest.mark.parametrize(
        "change",
        [_refresh, _insert_and_refresh, _reregister],
        ids=["refresh", "insert_and_refresh", "reregister"],
    )
    def test_after(self, system, walks, change):  # noqa: F811
        assert not _fresh_answer(system, 1).guard.degraded
        (first,) = walks
        change(system)
        frame = system.synopsis("rel").sample.frame
        assert frame is not first and not frame.judged
        assert not _fresh_answer(system, 2).guard.degraded
        assert not _fresh_answer(system, 3).guard.degraded
        assert walks == [first, frame]

    @pytest.mark.parametrize("route", ["install", "patch"])
    @pytest.mark.parametrize("kind", STRUCTURAL_FAULTS)
    def test_after_a_fault(self, system, monkeypatch, walks, kind, route):  # noqa: F811
        assert not _fresh_answer(system, 1).guard.degraded
        (first,) = walks
        if route == "patch":
            def refuse(name, sample):
                raise RuntimeError("not materialisable")

            monkeypatch.setattr(system, "_install", refuse)
        inject(system, kind, "rel")
        frame = system.synopsis("rel").sample.frame
        assert frame is not first and not frame.judged
        report = _fresh_answer(system, 2).guard
        assert report.issues == VERDICTS[kind][2]
        assert _fresh_answer(system, 3).guard.issues == report.issues
        assert walks == [first, frame]


def test_appending_to_a_returned_list_leaves_the_next_verdict_alone(system):  # noqa: F811
    inject(system, "corrupt_scale_factor", "rel")
    sample = system.synopsis("rel").sample
    verdict = validate_sample(sample)
    verdict.append("scribbled")
    assert validate_sample(sample) == oracle(sample) == verdict[:-1]
    # health() appends the coverage line to its own copy, every time
    issues = system.health("rel").issues
    assert issues == system.health("rel").issues
    assert issues.count(_COVERAGE) == 1
    assert "scribbled" not in issues


@settings(deadline=None, max_examples=200)
@given(
    sample=samples(),
    kind=st.sampled_from(DAMAGE),
    seed=st.integers(0, 2**16),
)
def test_the_remembered_verdict_is_the_oracle_s_before_and_after_damage(
    sample, kind, seed
):
    assert not sample.frame.judged
    verdict = validate_sample(sample)
    assert sample.frame.judged
    assert not sample.frame.damaged_strata.flags.writeable
    assert verdict == validate_sample(sample) == oracle(sample)
    # damage a fresh copy: the judged original must not leak into it
    rng = np.random.default_rng(seed)
    strata = sample.strata
    keys = list(strata)
    at = int(rng.integers(len(keys)))
    donor = strata[keys[(at + 1) % len(keys)]]
    strata[keys[at]] = damaged(
        kind, strata[keys[at]], donor, sample.base_table.num_rows, rng
    )
    hurt = StratifiedSample(sample.base_table, sample.grouping_columns, strata)
    assert not hurt.frame.judged
    assert validate_sample(hurt) == oracle(hurt)
    assert validate_sample(sample) == verdict
