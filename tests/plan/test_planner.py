"""Lowering: plans execute value-identically to the serial engine."""

import pytest

from repro.core import Congress, build_sample
from repro.engine import Catalog, execute, parse_query
from repro.plan import (
    Filter,
    GroupBy,
    Limit,
    Project,
    ScaleUp,
    Scan,
    Sort,
    execute_plan,
    lower_query,
    lower_rewritten,
    optimize,
    walk,
)
from repro.rewrite import ALL_STRATEGIES

QUERIES = [
    "select a, b, q from rel",
    "select a, q * 2 + 1 as d from rel where q > 3",
    "select a, sum(q) s from rel group by a",
    "select a, b, sum(q) s, count(*) c, avg(q) m from rel "
    "group by a, b order by a, b",
    "select sum(q) s from rel",
    "select a, sum(q) s from rel where id < 6 group by a "
    "having s > 1 order by a limit 3",
    "select a, min(q) lo, max(q) hi from rel group by a order by a",
    # Nested FROM subquery -- the Nested-integrated shape.
    "select a, sum(d) t from "
    "(select a, q * 2 as d from rel where q > 2) group by a order by a",
]


class TestLowerQuery:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_matches_serial_executor(self, catalog, sql):
        query = parse_query(sql)
        plan = lower_query(query, catalog)
        assert execute_plan(plan, catalog) == execute(query, catalog)

    @pytest.mark.parametrize("sql", QUERIES)
    def test_optimized_plan_matches_too(self, catalog, sql):
        query = parse_query(sql)
        plan = optimize(lower_query(query, catalog))
        assert execute_plan(plan, catalog) == execute(query, catalog)

    def test_scan_hint_stamped_from_catalog(self, catalog):
        plan = lower_query(parse_query("select a from rel"), catalog)
        scans = [n for __, n in walk(plan) if isinstance(n, Scan)]
        assert scans[0].table_columns == ("a", "b", "q", "id")

    def test_scan_hint_absent_without_catalog(self):
        plan = lower_query(parse_query("select a from rel"))
        scans = [n for __, n in walk(plan) if isinstance(n, Scan)]
        assert scans[0].table_columns is None

    def test_clause_order_mirrors_executor(self, catalog):
        query = parse_query(
            "select a, sum(q) s from rel where id < 6 group by a "
            "having s > 1 order by a limit 3"
        )
        plan = lower_query(query, catalog)
        kinds = [type(n).__name__ for __, n in walk(plan)]
        assert kinds == [
            "Limit", "Sort", "Filter", "Project", "GroupBy", "Filter", "Scan"
        ]

    def test_plain_select_is_compute_project(self, catalog):
        plan = lower_query(parse_query("select q * 2 as d from rel"), catalog)
        assert isinstance(plan, Project) and plan.mode == "compute"

    def test_aggregate_shaping_is_view_project(self, catalog):
        plan = lower_query(
            parse_query("select a, sum(q) s from rel group by a"), catalog
        )
        assert isinstance(plan, Project) and plan.mode == "view"
        assert isinstance(plan.child, GroupBy)


@pytest.fixture
def installed(skewed_table, rng):
    catalog = Catalog()
    catalog.register("rel", skewed_table)
    sample = build_sample(Congress(), skewed_table, ["a", "b"], 1000, rng=rng)
    return catalog, sample


class TestLowerRewritten:
    @pytest.mark.parametrize("cls", ALL_STRATEGIES, ids=lambda c: c.name)
    def test_always_carries_scale_up(self, installed, cls):
        catalog, sample = installed
        strategy = cls()
        synopsis = strategy.install(sample, "rel", catalog, replace=True)
        query = parse_query("select a, sum(q) s from rel group by a")
        rewritten = strategy.plan(query, synopsis)
        logical = lower_rewritten(rewritten, catalog)
        kinds = {n.kind for __, n in walk(logical)}
        assert "scale_up" in kinds

    @pytest.mark.parametrize("cls", ALL_STRATEGIES, ids=lambda c: c.name)
    def test_naive_and_optimized_agree(self, installed, cls):
        catalog, sample = installed
        strategy = cls()
        synopsis = strategy.install(sample, "rel", catalog, replace=True)
        query = parse_query(
            "select a, sum(q) s, avg(q) m from rel "
            "where id < 10000 group by a order by a"
        )
        rewritten = strategy.plan(query, synopsis)
        naive = execute_plan(lower_rewritten(rewritten, catalog), catalog)
        optimized = execute_plan(
            optimize(lower_rewritten(rewritten, catalog)), catalog
        )
        assert naive == optimized

    @pytest.mark.parametrize("cls", ALL_STRATEGIES, ids=lambda c: c.name)
    def test_execute_goes_through_the_plan(self, installed, cls):
        catalog, sample = installed
        strategy = cls()
        synopsis = strategy.install(sample, "rel", catalog, replace=True)
        query = parse_query("select a, sum(q) s from rel group by a order by a")
        rewritten = strategy.plan(query, synopsis)
        via_spec = rewritten.execute(catalog)
        via_plan = execute_plan(
            optimize(rewritten.to_logical(catalog)), catalog
        )
        assert via_spec == via_plan

    def test_user_clauses_sit_above_scale_up(self, installed):
        catalog, sample = installed
        strategy = ALL_STRATEGIES[0]()
        synopsis = strategy.install(sample, "rel", catalog, replace=True)
        query = parse_query(
            "select a, sum(q) s from rel group by a "
            "having s > 0 order by a limit 2"
        )
        logical = lower_rewritten(strategy.plan(query, synopsis), catalog)
        assert isinstance(logical, Limit)
        assert isinstance(logical.child, Sort)
        assert isinstance(logical.child.child, Filter)  # HAVING
        assert isinstance(logical.child.child.child, ScaleUp)


class TestGroupCountScan:
    def test_matches_direct_group_counts(self, skewed_table, rng):
        """A planner-lowered ``COUNT(*) GROUP BY`` must agree with the
        sampling layer's direct ``group_counts`` -- same keys, same counts,
        in the same sorted group order."""
        from repro.sampling import group_counts
        from repro.sampling.groups import make_key

        catalog = Catalog()
        catalog.register("rel", skewed_table)
        query = parse_query("select a, b, count(*) c from rel group by a, b")
        result = execute_plan(optimize(lower_query(query, catalog)), catalog)
        a, b, c = (result.column(name) for name in ("a", "b", "c"))
        via_plan = {
            make_key((a[i], b[i])): int(c[i]) for i in range(result.num_rows)
        }
        direct = group_counts(skewed_table, ("a", "b"))
        assert via_plan == direct
        assert list(via_plan) == list(direct) == sorted(direct)
