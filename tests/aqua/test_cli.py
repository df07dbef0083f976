"""Unit tests for the Aqua shell."""

import io

import pytest

from repro.aqua import AquaSystem
from repro.aqua.cli import AquaShell, build_system, main
from repro.engine import write_csv


@pytest.fixture
def shell(skewed_table, rng):
    aqua = AquaSystem(space_budget=500, rng=rng)
    aqua.register_table("rel", skewed_table)
    out = io.StringIO()
    return AquaShell(aqua, out=out), out


class TestShellCommands:
    def test_sql_answer(self, shell):
        sh, out = shell
        assert sh.execute_line("select a, sum(q) s from rel group by a")
        text = out.getvalue()
        assert "s_error" in text
        assert "approximate" in text

    def test_exact(self, shell):
        sh, out = shell
        sh.execute_line(".exact select count(*) c from rel")
        assert "20000" in out.getvalue()

    def test_tables(self, shell):
        sh, out = shell
        sh.execute_line(".tables")
        assert "rel" in out.getvalue()

    def test_synopsis(self, shell):
        sh, out = shell
        sh.execute_line(".synopsis")
        assert "congress" in out.getvalue()

    def test_budget(self, shell):
        sh, out = shell
        sh.execute_line(".budget")
        assert "500" in out.getvalue()

    def test_help(self, shell):
        sh, out = shell
        sh.execute_line(".help")
        assert ".exact" in out.getvalue()

    def test_quit_returns_false(self, shell):
        sh, __ = shell
        assert sh.execute_line(".quit") is False

    def test_unknown_command(self, shell):
        sh, out = shell
        sh.execute_line(".bogus")
        assert "unknown command" in out.getvalue()

    def test_sql_error_reported_not_raised(self, shell):
        sh, out = shell
        sh.execute_line("select from nowhere")
        assert "error:" in out.getvalue()

    def test_empty_line_ignored(self, shell):
        sh, out = shell
        assert sh.execute_line("   ")
        assert out.getvalue() == ""

    def test_run_over_lines_stops_at_quit(self, shell):
        sh, out = shell
        sh.run([".budget", ".quit", ".tables"])
        assert "rel" not in out.getvalue()

    def test_row_cap(self, shell):
        sh, out = shell
        sh.execute_line(".exact select id from rel order by id")
        assert "more rows" in out.getvalue()


class TestBuildSystem:
    def test_demo_census(self):
        import argparse

        args = argparse.Namespace(
            csv=None, table=None, grouping=None, budget=100
        )
        aqua = build_system(args)
        assert "census" in aqua.catalog

    def test_csv_loading(self, small_table, tmp_path):
        import argparse

        path = tmp_path / "rel.csv"
        write_csv(small_table, path)
        args = argparse.Namespace(
            csv=str(path), table="rel", grouping="a,b", budget=4
        )
        aqua = build_system(args)
        assert aqua.synopsis("rel").sample_size == 4

    def test_csv_requires_table_and_grouping(self, tmp_path):
        import argparse

        args = argparse.Namespace(
            csv=str(tmp_path / "x.csv"), table=None, grouping=None, budget=4
        )
        with pytest.raises(SystemExit):
            build_system(args)


class TestMain:
    def test_execute_mode(self, small_table, tmp_path, capsys):
        path = tmp_path / "rel.csv"
        write_csv(small_table, path)
        code = main(
            [
                "--csv", str(path),
                "--table", "rel",
                "--grouping", "a,b",
                "--budget", "8",
                "-e", "select a, count(*) c from rel group by a order by a",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "c_error" in out


class TestExplainCompareCommands:
    def test_explain(self, shell):
        # The `shell` fixture runs with telemetry disabled: strategy name,
        # sample-table provenance, and the operator tree must show anyway.
        sh, out = shell
        sh.execute_line(".explain select a, sum(q) s from rel group by a")
        text = out.getvalue()
        assert "rewrite strategy" in text
        assert "bs_rel" in text
        assert "-- synopsis tables: bs_rel" in text
        assert "-- sample:" in text
        assert "-- plan:" in text
        assert "Scan bs_rel" in text
        assert "GroupBy" in text

    def test_compare(self, shell):
        sh, out = shell
        sh.execute_line(".compare select a, sum(q) s from rel group by a")
        text = out.getvalue()
        assert "speedup" in text
        assert "coverage" in text

    def test_usage_messages(self, shell):
        sh, out = shell
        sh.execute_line(".explain")
        sh.execute_line(".compare")
        text = out.getvalue()
        assert "usage: .explain" in text
        assert "usage: .compare" in text


class TestObservabilityCommands:
    @pytest.fixture
    def telemetry_shell(self, skewed_table, rng):
        import io

        from repro.obs import Telemetry

        aqua = AquaSystem(
            space_budget=500, rng=rng, telemetry=Telemetry.enabled()
        )
        aqua.register_table("rel", skewed_table)
        out = io.StringIO()
        return AquaShell(aqua, out=out), out

    def test_trace_prints_result_and_span_tree(self, telemetry_shell):
        sh, out = telemetry_shell
        sh.execute_line(
            ".trace select a, sum(q) s from rel group by a having s >= 0"
        )
        text = out.getvalue()
        assert "s_error" in text  # the answer table itself
        for stage in ("answer", "parse", "moments", "finalize"):
            assert stage in text
        assert "ms" in text

    def test_trace_works_when_telemetry_disabled(self, shell):
        sh, out = shell
        sh.execute_line(".trace select a, sum(q) s from rel group by a")
        assert "answer" in out.getvalue()
        assert not sh._aqua.tracer.enabled  # restored afterwards

    def test_trace_usage(self, telemetry_shell):
        sh, out = telemetry_shell
        sh.execute_line(".trace")
        assert "usage: .trace" in out.getvalue()

    def test_stats_human_view(self, telemetry_shell):
        sh, out = telemetry_shell
        sh.execute_line("select a, sum(q) s from rel group by a")
        sh.execute_line(".stats")
        text = out.getvalue()
        assert "aqua_queries_total{table=rel}  1" in text
        assert "aqua_answer_seconds" in text

    def test_stats_json(self, telemetry_shell):
        import json

        sh, out = telemetry_shell
        sh.execute_line("select a, sum(q) s from rel group by a")
        out.truncate(0)
        out.seek(0)
        sh.execute_line(".stats json")
        data = json.loads(out.getvalue())
        assert data["aqua_queries_total"]["type"] == "counter"

    def test_stats_prometheus(self, telemetry_shell):
        sh, out = telemetry_shell
        sh.execute_line("select a, sum(q) s from rel group by a")
        sh.execute_line(".stats prom")
        text = out.getvalue()
        assert "# TYPE aqua_queries_total counter" in text
        assert 'aqua_queries_total{table="rel"} 1' in text

    def test_stats_before_any_activity(self):
        import io

        from repro.obs import Telemetry

        aqua = AquaSystem(space_budget=100, telemetry=Telemetry.enabled())
        out = io.StringIO()
        AquaShell(aqua, out=out).execute_line(".stats")
        assert "no metrics recorded yet" in out.getvalue()

    def test_stats_shows_synopsis_build(self, telemetry_shell):
        sh, out = telemetry_shell
        sh.execute_line(".stats")
        assert "aqua_synopsis_build_seconds" in out.getvalue()

    def test_stats_when_registry_disabled(self, shell):
        sh, out = shell
        sh.execute_line(".stats")
        assert "metrics registry is disabled" in out.getvalue()

    def test_stats_usage(self, telemetry_shell):
        sh, out = telemetry_shell
        sh.execute_line(".stats xml")
        assert "usage: .stats" in out.getvalue()

    def test_build_system_telemetry_flag(self):
        import argparse

        on = build_system(argparse.Namespace(
            csv=None, table=None, grouping=None, budget=100,
        ))
        assert on.tracer.enabled and on.metrics.enabled
        off = build_system(argparse.Namespace(
            csv=None, table=None, grouping=None, budget=100,
            no_telemetry=True,
        ))
        assert not off.tracer.enabled and not off.metrics.enabled


class TestParallelAndCacheCommands:
    def test_parallel_show_and_set(self, shell):
        sh, out = shell
        sh.execute_line(".parallel")
        assert "parallel scans:" in out.getvalue()
        sh.execute_line(".parallel 4")
        assert sh._aqua.parallel_config.workers == 4
        sh.execute_line(".parallel off")
        assert sh._aqua.executor is None
        assert "parallel scans: off" in out.getvalue()

    def test_parallel_usage(self, shell):
        sh, out = shell
        sh.execute_line(".parallel lots")
        assert "usage: .parallel" in out.getvalue()

    def test_cache_stats_and_clear(self, shell):
        sh, out = shell
        sh.execute_line("select a, sum(q) s from rel group by a")
        sh.execute_line("select a, sum(q) s from rel group by a")
        sh.execute_line(".cache")
        assert "1 hits / 1 misses" in out.getvalue()
        sh.execute_line(".cache clear")
        assert "dropped 1 cached answers" in out.getvalue()

    def test_cache_resize_and_off(self, shell):
        sh, out = shell
        sh.execute_line(".cache 5")
        assert sh._aqua.answer_cache.capacity == 5
        sh.execute_line(".cache off")
        assert sh._aqua.answer_cache is None
        assert "answer cache: off" in out.getvalue()
        sh.execute_line(".cache")  # showing the disabled cache is fine
        sh.execute_line(".cache clear")

    def test_cache_usage(self, shell):
        sh, out = shell
        sh.execute_line(".cache everything")
        assert "usage: .cache" in out.getvalue()

    def test_build_system_workers_flag(self):
        import argparse

        aqua = build_system(argparse.Namespace(
            csv=None, table=None, grouping=None, budget=100, workers=2,
        ))
        assert aqua.parallel_config.workers == 2


class TestServeCommand:
    def test_serve_off_by_default(self, shell):
        sh, out = shell
        sh.execute_line(".serve")
        assert "serving: off" in out.getvalue()

    def test_serve_sql_requires_service(self, shell):
        sh, out = shell
        sh.execute_line(".serve select a, sum(q) s from rel group by a")
        assert "serving is off" in out.getvalue()

    def test_serve_on_query_stats_off(self, shell):
        sh, out = shell
        sh.execute_line(".serve on 2")
        assert "serving: on (2 workers" in out.getvalue()
        sh.execute_line(".serve select a, sum(q) s from rel group by a")
        assert "[served: full" in out.getvalue()
        sh.execute_line(".serve")
        assert "admitted 1" in out.getvalue()
        sh.execute_line(".serve off")
        assert sh._service is None

    def test_serve_usage_on_bad_workers(self, shell):
        sh, out = shell
        sh.execute_line(".serve on many")
        assert "usage: .serve" in out.getvalue()

    def test_close_shuts_service_down(self, shell):
        sh, out = shell
        sh.execute_line(".serve on 1")
        sh.close()
        assert sh._service is None


@pytest.fixture
def observed_shell(skewed_table, rng):
    aqua = AquaSystem(space_budget=500, rng=rng, telemetry=True)
    aqua.register_table("rel", skewed_table)
    out = io.StringIO()
    return AquaShell(aqua, out=out), out, aqua


class TestEventAndSloCommands:
    def test_events_disabled_message(self, shell):
        sh, out = shell
        sh.execute_line(".events")
        assert "event log is disabled" in out.getvalue()

    def test_events_lists_recent_queries(self, observed_shell):
        sh, out, _aqua = observed_shell
        sh.execute_line("select a, sum(q) s from rel group by a")
        sh.execute_line(".events")
        text = out.getvalue()
        assert "ok" in text
        assert "rel" in text
        assert "groups" in text

    def test_events_limit_argument(self, observed_shell):
        sh, out, _aqua = observed_shell
        for _ in range(3):
            sh.execute_line("select a, sum(q) s from rel group by a")
        out.truncate(0), out.seek(0)
        sh.execute_line(".events 2")
        lines = [l for l in out.getvalue().splitlines() if l.strip()]
        assert len(lines) == 2

    def test_events_bad_argument(self, observed_shell):
        sh, out, _aqua = observed_shell
        sh.execute_line(".events nope")
        assert "usage: .events" in out.getvalue()

    def test_slo_without_monitor(self, observed_shell):
        sh, out, _aqua = observed_shell
        sh.execute_line(".slo")
        assert "no SLO monitor attached" in out.getvalue()

    def test_slo_describes_attached_monitor(self, observed_shell):
        from repro.obs.slo import SLOMonitor

        sh, out, aqua = observed_shell
        aqua.attach_slo(SLOMonitor())
        sh.execute_line("select a, sum(q) s from rel group by a")
        sh.execute_line(".slo")
        text = out.getvalue()
        assert "p99_latency_ms" in text
        assert "bound_violation_rate" in text

    def test_report_renders(self, observed_shell):
        sh, out, _aqua = observed_shell
        sh.execute_line("select a, sum(q) s from rel group by a")
        sh.execute_line(".report")
        assert "observability report" in out.getvalue()

    def test_help_mentions_new_commands(self, shell):
        sh, out = shell
        sh.execute_line(".help")
        text = out.getvalue()
        assert ".events" in text
        assert ".slo" in text
        assert ".report" in text
