"""The roll-up index against a reference scan over tuple conjuncts.

:class:`RollupIndex` takes the probe WHERE's canonical conjuncts with
their texts, worked out once per miss, and each :class:`ReuseSnapshot`
keeps its conjunct texts as a frozenset made when it is built.  The
reference below is the scan that re-canonicalized and re-rendered the
probe and built a set from every entry's tuple of texts on every lookup,
over a model of the index's LRU order (``put`` appends or moves to the
end and evicts from the front, a counted hit promotes, an invalidation
drops a table's entries).  Under random registrations, evictions,
invalidations and lookups the index must pick the same snapshot with
the same extra conjuncts, and keep the same order.
"""

from collections import OrderedDict

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.aqua.reuse import ReuseSnapshot, RollupIndex
from repro.engine import Column, ColumnType, Schema, Table
from repro.engine.render import render_predicate
from repro.engine.sql import parse_query
from repro.estimators.moments import SampleMoments
from repro.plan.canonical import (
    canonicalize_predicate,
    predicate_conjuncts,
    split_conjuncts,
)
from repro.plan.optimizer import _conjoin, _split_and
from repro.sampling.stratified import StratifiedSample

CAPACITY = 4
GROUPING = ["g", "h"]
# Two entries can tie (the same number of extra conjuncts): then the first
# in LRU order wins.
ENTRY_WHERES = [
    None,
    "v > 10",
    "g = 'a'",
    "v > 10 AND h = 'x'",
    "g = 'a' AND v > 10",
    "w < 3",
]
PROBE_WHERES = ENTRY_WHERES + [
    "h = 'x' AND g = 'a' AND v > 10",
    "h = 'x' AND g = 'b' AND v > 10",
    "10 < v AND w < 3 AND h = 'y'",
    "w < 3 AND v > 10",
    "h = 'x'",
]
ENTRY_AGGREGATES = ["SUM(v) AS s", "SUM(v) AS s, AVG(w) AS m, MIN(v) AS lo"]
PROBE_AGGREGATES = ENTRY_AGGREGATES + ["COUNT(*) AS c", "MAX(w) AS hi"]
GROUP_BYS = [(), ("g",), ("h", "g"), ("w",)]
SIGNATURES = [("sample_a",), ("sample_b",)]


def _sample() -> StratifiedSample:
    rng = np.random.default_rng(3)
    n = 200
    table = Table.from_columns(
        Schema(
            [
                Column("g", ColumnType.STR, "grouping"),
                Column("h", ColumnType.STR, "grouping"),
                Column("v", ColumnType.FLOAT, "aggregate"),
                Column("w", ColumnType.INT),
            ]
        ),
        g=rng.choice(["a", "b", "c"], size=n),
        h=rng.choice(["x", "y"], size=n),
        v=rng.gamma(2.0, 10.0, size=n),
        w=rng.integers(0, 6, size=n),
    )
    allocation = {
        (g, h): 8 for g in ("a", "b", "c") for h in ("x", "y")
    }
    return StratifiedSample.build(table, GROUPING, allocation, rng=rng)


SAMPLE = _sample()


def _query(select: str, where, group_by=()):
    sql = "SELECT " + ", ".join(list(group_by) + [select]) + " FROM t"
    if where is not None:
        sql += f" WHERE {where}"
    if group_by:
        sql += " GROUP BY " + ", ".join(group_by)
    return parse_query(sql).bind()[0]


def _moments(where, select):
    query = _query(select, where)
    return SampleMoments.build(SAMPLE, query.where, query.aggregates())


MOMENTS = {
    (where, select): _moments(where, select)
    for where in ENTRY_WHERES
    for select in ENTRY_AGGREGATES
}


def _snapshot(base_name, version, signature, confidence, where, select):
    query = _query(select, where)
    canonical = (
        None if query.where is None else canonicalize_predicate(query.where)
    )
    return ReuseSnapshot(
        base_name=base_name,
        version=version,
        synopsis_signature=signature,
        conjuncts=frozenset(text for _, text in split_conjuncts(canonical)),
        confidence=confidence,
        describe_source=f"{base_name}@v{version} {where}",
        moments=MOMENTS[where, select],
    )


class ReferenceIndex:
    """The index as it was: tuple conjuncts, re-derived on every lookup."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = OrderedDict()  # key -> (snapshot, tuple conjuncts)

    @staticmethod
    def key(snapshot, conjuncts):
        return (
            snapshot.base_name,
            snapshot.version,
            snapshot.synopsis_signature,
            conjuncts,
            snapshot.confidence,
        )

    def register(self, snapshot, where):
        conjuncts = predicate_conjuncts(where)
        key = self.key(snapshot, conjuncts)
        self.entries[key] = (snapshot, conjuncts)
        self.entries.move_to_end(key)
        while len(self.entries) > self.capacity:
            self.entries.popitem(last=False)

    def invalidate(self, base_name):
        for key in [k for k in self.entries if base_name in (None, k[0])]:
            del self.entries[key]

    def lookup(
        self, base_name, version, signature, where, group_by, aggregates,
        confidence, count,
    ):
        if where is not None:
            parts = _split_and(canonicalize_predicate(where))
            texts = [render_predicate(part) for part in parts]
        else:
            parts, texts = [], []
        probe_set = set(texts)
        best = None
        for key, (snapshot, conjuncts) in self.entries.items():
            if not (
                snapshot.base_name == base_name
                and snapshot.version == version
                and snapshot.synopsis_signature == signature
                and snapshot.confidence == confidence
            ):
                continue
            entry_set = set(conjuncts)
            if not entry_set <= probe_set:
                continue
            extra = [
                (part, text)
                for part, text in zip(parts, texts)
                if text not in entry_set
            ]
            grouping = set(snapshot.moments.frame.grouping_columns)
            if any(
                not set(part.referenced_columns()) <= grouping
                for part, _ in extra
            ):
                continue
            if not snapshot.moments.can_finalize(group_by, aggregates):
                continue
            if best is not None and len(best[2]) <= len(extra):
                continue
            best = (key, snapshot, tuple(text for _, text in extra), extra)
        if best is not None and count:
            self.entries.move_to_end(best[0])
        return best


# (table, version, synopsis, confidence): mostly one, so that lookups hit,
# and each of the others differs from it in one field.
MAIN = ("t", 1, SIGNATURES[0], 0.95)
scopes = st.sampled_from(
    [MAIN] * 6
    + [
        ("u", 1, SIGNATURES[0], 0.95),
        ("t", 0, SIGNATURES[0], 0.95),
        ("t", 1, SIGNATURES[1], 0.95),
        ("t", 1, SIGNATURES[0], 0.9),
    ]
)
registrations = st.tuples(
    st.just("register"),
    scopes,
    st.sampled_from(ENTRY_WHERES),
    st.sampled_from(ENTRY_AGGREGATES),
)
invalidations = st.tuples(
    st.just("invalidate"), st.sampled_from([None, "t", "u"])
)
lookups = st.tuples(
    st.just("lookup"),
    scopes,
    st.sampled_from(PROBE_WHERES),
    st.sampled_from(PROBE_AGGREGATES),
    st.sampled_from(GROUP_BYS),
    st.booleans(),
)
operations = st.lists(
    st.one_of(registrations, registrations, lookups, lookups, invalidations),
    min_size=10,
    max_size=40,
)


TIE = [  # two snapshots one extra conjunct from the probe: the LRU-first wins
    ("register", MAIN, "v > 10 AND h = 'x'", ENTRY_AGGREGATES[0]),
    ("register", MAIN, "g = 'a' AND v > 10", ENTRY_AGGREGATES[0]),
]
TIE_PROBE = ("lookup", MAIN, "h = 'x' AND g = 'a' AND v > 10", "SUM(v) AS s")


@example(TIE + [TIE_PROBE + (("g",), True)] * 2)  # the hit is promoted
@example(TIE + [TIE_PROBE + (("g",), False)] * 2)  # an explain probe is not
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(operations)
def test_lookup_matches_a_scan_over_tuple_conjuncts(ops):
    index, reference = RollupIndex(capacity=CAPACITY), ReferenceIndex(CAPACITY)
    for op in ops:
        if op[0] == "register":
            _, scope, where, select = op
            snapshot = _snapshot(*scope, where, select)
            index.register(snapshot)
            reference.register(snapshot, _query(select, where).where)
        elif op[0] == "invalidate":
            index.invalidate(op[1])
            reference.invalidate(op[1])
        else:
            _, scope, where, select, group_by, count = op
            name, version, signature, confidence = scope
            query = _query(select, where, group_by)
            canonical = (
                None
                if query.where is None
                else canonicalize_predicate(query.where)
            )
            match = index.lookup(
                base_name=name,
                version=version,
                synopsis_signature=signature,
                conjuncts=split_conjuncts(canonical),
                group_by=query.group_by,
                aggregates=query.aggregates(),
                confidence=confidence,
                count=count,
            )
            expected = reference.lookup(
                name, version, signature, query.where, query.group_by,
                query.aggregates(), confidence, count,
            )
            if expected is None:
                assert match is None
            else:
                _, snapshot, extra_texts, extra = expected
                assert match is not None
                assert match.snapshot is snapshot
                assert match.extra_conjuncts == extra_texts
                assert match.extra_predicate == (
                    _conjoin([part for part, _ in extra]) if extra else None
                )
        assert [id(s) for s in index._entries.values()] == [
            id(snapshot) for snapshot, _ in reference.entries.values()
        ]
