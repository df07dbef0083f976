"""One binding per query: every stage finds GROUP BY columns by name.

``Query.bind`` turns a user query into the stage query every stage runs
(each GROUP BY column selected under its own name, unselected ones
appended, an aggregate alias equal to a GROUP BY column renamed) and a
presentation back to the user's columns.  Two properties hold it:

* the binder property: over aliases, key selection (selected, aliased,
  unselected), aggregate aliases equal to a key name, ORDER BY on output
  or base names and LIMIT, ``answer()``, ``exact()`` and ``compare()``
  either all succeed -- same schema, same group keys, ``exact()``'s row
  count -- or ``answer()`` and ``exact()`` raise the same ``AquaError``;
* the canonical tier serves what a fresh system computes: a respelling
  that differs only in GROUP BY order is byte-identical to a direct
  answer, under every ORDER BY and LIMIT.
"""

import numpy as np
import pytest

from repro.aqua import AquaSystem
from repro.engine import Column, ColumnType, Schema, Table
from repro.engine.sql import parse_query
from repro.errors import AquaError

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

KEYS = ("g", "h", "k")
AGGREGATES = ("SUM(v)", "COUNT(*)", "AVG(w)")


def _table(n=3000, seed=5):
    rng = np.random.default_rng(seed)
    schema = Schema(
        [
            Column("g", ColumnType.STR, "grouping"),
            Column("h", ColumnType.STR, "grouping"),
            Column("k", ColumnType.INT, "grouping"),
            Column("v", ColumnType.FLOAT, "aggregate"),
            Column("w", ColumnType.FLOAT, "aggregate"),
            Column("id", ColumnType.INT, "key"),
        ]
    )
    return Table.from_columns(
        schema,
        g=rng.choice(["a", "b", "c"], size=n),
        h=rng.choice(["x", "y"], size=n),
        k=rng.choice([1, 2, 3], size=n),
        v=rng.gamma(2.0, 40.0, size=n),
        w=rng.normal(50.0, 12.0, size=n),
        id=np.arange(n),
    )


def _system(**kwargs):
    system = AquaSystem(
        space_budget=900, rng=np.random.default_rng(5), **kwargs
    )
    system.register_table("t", _table(), grouping_columns=list(KEYS))
    return system


@pytest.fixture(scope="module")
def shared_system():
    """One system for the binder property: its caches fill across
    examples, so later answers also come from the cache tiers."""
    return _system()


# -- the binder property -------------------------------------------------


@st.composite
def bound_queries(draw):
    group_by = draw(st.lists(st.sampled_from(KEYS), max_size=3, unique=True))
    items, outputs, orderable = [], set(), []
    for column in group_by:
        mode = draw(st.sampled_from(["selected", "aliased", "unselected"]))
        if mode == "selected":
            items.append(column)
            outputs.add(column)
            orderable.append(column)
        elif mode == "aliased":
            alias = f"{column}_o"
            items.append(f"{column} AS {alias}")
            outputs.add(alias)
            orderable += [alias, column]  # ORDER BY either name
    aggregates = []
    for j, text in enumerate(
        draw(st.lists(st.sampled_from(AGGREGATES), min_size=1, max_size=2))
    ):
        names = [f"a{j}"] + [c for c in KEYS if c not in outputs]
        alias = draw(st.sampled_from(names))
        outputs.add(alias)
        aggregates.append(alias)
        items.append(f"{text} AS {alias}")
    items = draw(st.permutations(items))
    sql = f"SELECT {', '.join(items)} FROM t"
    if draw(st.booleans()):
        sql += " WHERE id >= 100"
    if group_by:
        sql += f" GROUP BY {', '.join(group_by)}"
    if draw(st.booleans()):
        # Always true, so the approximate and exact answers keep the same
        # groups.
        sql += f" HAVING {draw(st.sampled_from(aggregates))} > -1000000"
    order = []
    if draw(st.booleans()):
        order = draw(
            st.lists(
                st.sampled_from(orderable + aggregates),
                min_size=1,
                max_size=2,
                unique=True,
            )
        )
        sql += f" ORDER BY {', '.join(order)}"
    # Estimates reorder rows ranked by an aggregate, which would change
    # the groups a LIMIT keeps.
    if draw(st.booleans()) and not set(order) & set(aggregates):
        sql += f" LIMIT {draw(st.integers(min_value=0, max_value=4))}"
    return sql


def _outcome(call):
    try:
        return call(), None
    except Exception as exc:  # compared by type below
        return None, exc


def _keys(table, columns):
    return sorted(zip(*(table.column(c).tolist() for c in columns)))


@settings(
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(sql=bound_queries(), guard=st.booleans())
@example(sql="SELECT SUM(v) AS s FROM t GROUP BY g", guard=True)
@example(sql="SELECT SUM(v) AS g FROM t GROUP BY g", guard=True)
@example(sql="SELECT SUM(v) AS g FROM t GROUP BY g HAVING g > 0", guard=True)
@example(
    sql="SELECT SUM(v) AS g FROM t GROUP BY g HAVING g > 0", guard=False
)
def test_answer_and_exact_agree_on_every_binding(shared_system, sql, guard):
    system = shared_system
    approx, approx_error = _outcome(lambda: system.answer(sql, guard=guard))
    exact, exact_error = _outcome(lambda: system.exact(sql))
    if approx_error is not None or exact_error is not None:
        assert isinstance(approx_error, AquaError), (sql, approx_error)
        assert type(approx_error) is type(exact_error), (
            sql, approx_error, exact_error,
        )
        return
    query = parse_query(sql)
    names = exact.schema.names
    assert names == query.output_aliases(), sql
    assert approx.result.schema.names[: len(names)] == names, sql
    assert approx.result.schema.columns[: len(names)] == (
        exact.schema.columns
    ), sql
    assert approx.result.num_rows == exact.num_rows, sql
    keys = [item.alias for item in query.projections()]
    assert _keys(approx.result, keys) == _keys(exact, keys), sql

    report = system.compare(sql, guard=guard)
    assert report.exact == exact, sql
    assert report.approximate.result.schema == approx.result.schema, sql
    assert set(report.errors) == {a.alias for a in query.aggregates()}, sql


# -- the canonical tier serves what a fresh system computes --------------


@st.composite
def respellings(draw):
    """Two spellings differing only in GROUP BY order, with a shared
    ORDER BY (none / a key / an aggregate) and LIMIT (none / 1-4)."""
    group_by = draw(st.lists(st.sampled_from(KEYS), min_size=2, max_size=3,
                             unique=True))
    first = draw(st.permutations(group_by))
    second = draw(st.permutations(group_by))
    head = (
        f"SELECT {', '.join(group_by)}, SUM(v) AS s, COUNT(*) AS c FROM t "
    )
    tail = ""
    order = draw(st.sampled_from([None, "key", "aggregate"]))
    if order == "key":
        tail += f" ORDER BY {draw(st.sampled_from(group_by))}"
    elif order == "aggregate":
        tail += " ORDER BY s"
    limit = draw(st.sampled_from([None, 1, 2, 3, 4]))
    if limit is not None:
        tail += f" LIMIT {limit}"
    return (
        f"{head}GROUP BY {', '.join(first)}{tail}",
        f"{head}GROUP BY {', '.join(second)}{tail}",
    )


def _assert_byte_identical(got, want, context):
    assert got.schema == want.schema, context
    for name in want.schema.names:
        if name == "provenance":
            continue  # synopsis vs. rollup: which tier served it
        left, right = got.column(name), want.column(name)
        assert left.dtype == right.dtype, (context, name)
        assert left.tobytes() == right.tobytes(), (context, name)


@settings(deadline=None, max_examples=40)
@given(pair=respellings(), guard=st.booleans())
@example(
    pair=(
        "SELECT g, h, SUM(v) AS s, COUNT(*) AS c FROM t GROUP BY g, h LIMIT 3",
        "SELECT g, h, SUM(v) AS s, COUNT(*) AS c FROM t GROUP BY h, g LIMIT 3",
    ),
    guard=False,
)
@example(
    pair=(
        "SELECT g, h, k, SUM(v) AS s, COUNT(*) AS c FROM t "
        "GROUP BY g, h, k ORDER BY g",
        "SELECT g, h, k, SUM(v) AS s, COUNT(*) AS c FROM t "
        "GROUP BY k, h, g ORDER BY g",
    ),
    guard=True,
)
def test_a_respelled_group_order_serves_the_direct_answer(pair, guard):
    first, second = pair
    system = _system()
    system.answer(first, guard=guard)
    served = system.answer(second, guard=guard)
    direct = _system(cache=False).answer(second, guard=guard)
    _assert_byte_identical(served.result, direct.result, pair)
    if served.cache_tier == "canonical":
        assert served.result.num_rows == system.exact(second).num_rows


def test_an_unselected_key_query_takes_canonical_hits():
    # Its stage query selects the key, so a respelled alias shares the
    # entry and is presented in its own columns.
    system = _system()
    system.answer("SELECT SUM(v) AS s FROM t GROUP BY g")
    served = system.answer("SELECT SUM(v) AS total FROM t GROUP BY g")
    assert served.cache_tier == "canonical"
    assert served.result.schema.names[:2] == ["total", "total_error"]
    direct = _system(cache=False).answer(
        "SELECT SUM(v) AS total FROM t GROUP BY g"
    )
    _assert_byte_identical(served.result, direct.result, "unselected")
