"""Consolidated query-pipeline benchmark: stage latencies + accuracy.

Runs the paper's query classes (Q_g2, Q_g3, and a Q_g0 slice query) through
a fully-telemetered :class:`~repro.aqua.system.AquaSystem` and emits a
machine-readable ``benchmarks/results/BENCH_pipeline.json``: per-query
median stage latencies (from the span traces), end-to-end approximate and
exact times, speedups, the paper's per-aggregate error metrics, and the
guard's provenance counts.  The JSON is the bench trajectory downstream
tooling tracks; the ``.txt`` table stays human-readable.

Protocol: five runs per query, first discarded (the paper's timing
protocol), medians reported.
"""

import statistics

import numpy as np
import pytest

from repro import AquaSystem, Telemetry
from repro.experiments import default_table_size
from repro.synthetic import LineitemConfig, generate_lineitem, qg0_set, qg2, qg3
from repro.synthetic.tpcd import GROUPING_COLUMNS

SAMPLE_FRACTION = 0.05
REPEATS = 5

# the one answer route's stages
STAGES = ("parse", "validate", "moments", "finalize", "guard")


@pytest.fixture(scope="module")
def pipeline_results():
    table_size = default_table_size()
    config = LineitemConfig(table_size=table_size, num_groups=1000, seed=0)
    table = generate_lineitem(config)
    budget = int(round(SAMPLE_FRACTION * table.num_rows))
    aqua = AquaSystem(
        space_budget=budget,
        rng=np.random.default_rng(1),
        telemetry=Telemetry.enabled(),
    )
    aqua.register_table(
        "lineitem", table, grouping_columns=list(GROUPING_COLUMNS)
    )

    queries = [qg2(), qg3()]
    queries.append(
        qg0_set(table_size, num_queries=1, rng=np.random.default_rng(7))[0]
    )

    per_query = {}
    for query_class in queries:
        stage_runs = {stage: [] for stage in STAGES}
        totals = []
        provenance = {}
        for i in range(REPEATS):
            answer = aqua.answer(query_class.query)
            if i == 0:
                provenance = dict(answer.provenance_counts)
                continue  # paper protocol: discard the first run
            stage_seconds = answer.trace.stage_seconds()
            for stage in STAGES:
                stage_runs[stage].append(stage_seconds.get(stage, 0.0))
            totals.append(answer.trace.total_seconds)
        report = aqua.compare(query_class.query)
        per_query[query_class.name] = {
            "stage_seconds_median": {
                stage: statistics.median(runs)
                for stage, runs in stage_runs.items()
            },
            "total_seconds_median": statistics.median(totals),
            "exact_seconds": report.exact_elapsed_seconds,
            "speedup": report.speedup,
            "provenance": provenance,
            "accuracy": {
                alias: {
                    "mean_pct": error.eps_l1,
                    "worst_pct": error.eps_inf,
                    "coverage": error.coverage,
                }
                for alias, error in report.errors.items()
            },
        }
    return aqua, table_size, budget, per_query


def test_pipeline_bench_json(pipeline_results, save_json, save_result):
    aqua, table_size, budget, per_query = pipeline_results
    snapshot = aqua.metrics.snapshot()
    payload = {
        "schema_version": 1,
        "config": {
            "table_size": table_size,
            "budget": budget,
            "sample_fraction": SAMPLE_FRACTION,
            "repeats": REPEATS,
            "rewrite_strategy": "nested_integrated",
        },
        "queries": per_query,
        "metrics": {
            name: snapshot[name]
            for name in (
                "aqua_queries_total",
                "aqua_stage_seconds",
                "aqua_guard_groups_total",
            )
            if name in snapshot
        },
    }
    save_json("BENCH_pipeline", payload)

    lines = [
        f"{'query':<8s} {'approx ms':>10s} {'exact ms':>10s} "
        f"{'speedup':>8s} {'mean err':>9s}"
    ]
    for name, data in per_query.items():
        mean_err = statistics.mean(
            acc["mean_pct"] for acc in data["accuracy"].values()
        )
        lines.append(
            f"{name:<8s} {data['total_seconds_median'] * 1000:>10.2f} "
            f"{data['exact_seconds'] * 1000:>10.2f} "
            f"{data['speedup']:>7.1f}x {mean_err:>8.2f}%"
        )
    save_result("pipeline_telemetry", "\n".join(lines))

    # Sanity: the traced stages must account for the measured total.
    for name, data in per_query.items():
        total = data["total_seconds_median"]
        stage_sum = sum(data["stage_seconds_median"].values())
        assert stage_sum <= total * 1.05
        assert stage_sum >= total * 0.5, (name, stage_sum, total)
