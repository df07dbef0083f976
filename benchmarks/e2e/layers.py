"""The traced run: per-layer numbers, measured from outside the program.

Replays the first quarter of a workload's stream under the harness's span
recorder.  Per op it times the real ``answer()`` (or HTTP call) in a root
span, then calls the layers in pipeline order itself -- parse,
canonicalize, validate, rewrite, lower+optimize, execute over the synopsis,
``estimate`` -- each in a child span of a ``replay`` span carrying the op's
id.  A layer's number is its span median; ``aqua.shell_ms`` is the named
remainder.  A hit replays only the layers a hit runs (parse, canonicalize).

Three identically built systems take every op in turn, so that none warms
another's caches and the sandbox's drift (the same code runs 10 % faster or
slower a minute later) cancels between them: ``main`` traced, ``side``
untraced (the base of ``bench.trace_overhead_pct``, and afterwards the
target of the ``guard=False`` probes), ``tele`` built with
``telemetry=True``.  End-to-end metrics never come from here.  A layer that
a workload never calls reads 0 on that workload.  ``bench.host_slowdown``
says how busy the host was meanwhile (``clock.py``).
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np

from repro import engine
from repro.aqua.guard import validate_sample
from repro.core import Congress, allocate_from_table
from repro.engine.aggregates import Aggregate
from repro.engine.sql import parse_query
from repro.estimators import estimate
from repro.maintenance import maintainer_for, subsample_to_budget
from repro.plan import (
    canonicalize,
    canonicalize_query,
    execute_plan,
    lower_rewritten,
    optimize,
)
from repro.plan.cost import CostModel
from repro.rewrite import NestedIntegrated
from repro.sampling import StratifiedSample
from repro.serve import QueryService, ServiceConfig
from repro.synthetic import GROUPING_COLUMNS

import clock
import streams
import workloads
from spans import Recorder
from streams import DATA_SEED, SPACE_BUDGET, TABLE
from workloads import Accuracy, OpLog, Tally, median

PROBE_REPEATS = 3
SERVICE_PAIRS = 20

# name -> unit; the order the metrics print in
PER_LAYER = {
    "engine.parse_ms": "ms",
    "engine.execute_base_ms": "ms",
    "engine.base_rows_per_s": "rows/s",
    "plan.canonicalize_ms": "ms",
    "rewrite.plan_ms": "ms",
    "plan.optimize_ms": "ms",
    "plan.execute_sample_ms": "ms",
    "plan.sample_rows_per_s": "rows/s",
    "plan.cache.hit_rate": "share",
    "estimators.estimate_ms": "ms",
    "aqua.validate_ms": "ms",
    "aqua.guard_ms": "ms",
    "aqua.shell_ms": "ms",
    "aqua.shell_share": "share",
    "aqua.cache.hit_ms_p50": "ms",
    "aqua.cache.miss_ms_p50": "ms",
    "aqua.cache.exact_hits": "count",
    "aqua.cache.canonical_hits": "count",
    "aqua.cache.rollup_hits": "count",
    "aqua.cache.misses": "count",
    "aqua.cache.evictions": "count",
    "aqua.cache.reuse_share": "share",
    "aqua.guard.synopsis_group_share": "share",
    "aqua.speedup_vs_exact": "ratio",
    "aqua.synopsis_rows": "rows",
    "aqua.synopsis_bytes": "bytes",
    "aqua.insert_us_per_row": "us/row",
    "core.allocate_ms": "ms",
    "sampling.build_ms": "ms",
    "maintenance.insert_us_per_row": "us/row",
    "maintenance.snapshot_ms": "ms",
    "serve.queue_ms_p50": "ms",
    "serve.served_ms_p50": "ms",
    "serve.http_overhead_ms_p50": "ms",
    "serve.service_overhead_ms": "ms",
    "serve.response_bytes_p50": "bytes",
    "serve.rejected": "count",
    "serve.degraded": "count",
    "obs.telemetry_overhead_pct": "%",
    "bench.trace_overhead_pct": "%",
    "bench.host_slowdown": "ratio",
}

# The layers answer(guard=False) runs on a miss, besides the shell.
UNGUARDED_LAYERS = (
    "engine.parse",
    "plan.canonicalize",
    "rewrite.plan",
    "plan.optimize",
    "plan.execute_sample",
)


# -- replays ---------------------------------------------------------------


def replay_layers(recorder: Recorder, system, answered: List[tuple]) -> None:
    """Call each layer's public function, in pipeline order, per op."""
    rewrite = NestedIntegrated()
    catalog = system.catalog
    synopsis = system.synopsis(TABLE)
    for op_id, sql, miss in answered:
        with recorder.span("replay", op_id=str(op_id)):
            with recorder.span("engine.parse"):
                query = parse_query(sql)
            with recorder.span("plan.canonicalize"):
                canonicalize_query(query)
            if not miss:
                continue
            with recorder.span("aqua.validate"):
                validate_sample(synopsis.sample)
            with recorder.span("rewrite.plan"):
                rewritten = rewrite.plan(query, synopsis.installed)
            with recorder.span("plan.optimize"):
                # what a plan-cache miss pays in AquaSystem._optimized_plan
                lowered, __ = canonicalize(lower_rewritten(rewritten, catalog))
                logical = optimize(
                    lowered, cost_model=CostModel.from_catalog(catalog)
                )
            with recorder.span("plan.execute_sample", rows=synopsis.sample_size):
                execute_plan(logical, catalog)
            aggregate = next(s for s in query.select if isinstance(s, Aggregate))
            with recorder.span("estimators.estimate"):
                estimate(
                    synopsis.sample,
                    aggregate.func,
                    None if aggregate.func == "count" else aggregate.expr,
                    predicate=query.where,
                    group_by=query.group_by,
                )


def replay_base(recorder: Recorder, system, sqls: List[str]) -> None:
    """``engine.execute`` on the base table, for the checked queries."""
    rows = system.catalog.get(TABLE).num_rows
    for sql in sqls:
        query = parse_query(sql)
        with recorder.span("engine.execute_base", rows=rows):
            engine.execute(query, system.catalog)


def probe_unguarded(recorder: Recorder, system, sqls: List[str]) -> None:
    """``answer(guard=False)`` on sibling fresh-literal queries."""
    for sql in sqls:
        with recorder.span("aqua.answer_unguarded"):
            system.answer(sql, guard=False)


def probe_set_up(recorder: Recorder, system) -> None:
    """The two layers the common set-up spends its time in."""
    table = system.catalog.get(TABLE)
    for __ in range(PROBE_REPEATS):
        with recorder.span("core.allocate"):
            allocation = allocate_from_table(
                Congress(), table, GROUPING_COLUMNS, SPACE_BUDGET
            )
        with recorder.span("sampling.build"):
            StratifiedSample.build(
                table, GROUPING_COLUMNS, allocation.rounded(),
                rng=np.random.default_rng(DATA_SEED + 1),
            )


def probe_maintenance(recorder: Recorder, system) -> None:
    """Section 6's maintainer over the whole table, then its snapshot."""
    table = system.catalog.get(TABLE)
    rng = np.random.default_rng(DATA_SEED + 1)
    maintainer = maintainer_for(
        "congress", table.schema, GROUPING_COLUMNS, SPACE_BUDGET, rng
    )
    with recorder.span("maintenance.insert_many", rows=table.num_rows):
        maintainer.insert_many(table.iter_rows())
    for __ in range(PROBE_REPEATS):
        with recorder.span("maintenance.snapshot"):
            subsample_to_budget(
                maintainer.snapshot(), SPACE_BUDGET, rng
            ).to_stratified()


def probe_service(system, sqls: List[str]) -> float:
    """``QueryService.query`` minus ``AquaSystem.answer``, on sibling ops."""
    service = QueryService(system, ServiceConfig())
    served, direct = [], []
    try:
        for via_service, via_answer in zip(sqls[0::2], sqls[1::2]):
            start = time.perf_counter()
            service.query(via_service)
            served.append((time.perf_counter() - start) * 1e3)
            start = time.perf_counter()
            system.answer(via_answer)
            direct.append((time.perf_counter() - start) * 1e3)
    finally:
        service.close()
    return median(served) - median(direct)


# -- metrics from spans ----------------------------------------------------


def _rows_per_s(recorder: Recorder, name: str) -> float:
    rates = [
        span["rows"] / (span["end"] - span["start"])
        for span in recorder.spans(name)
    ]
    return median(rates)


def _us_per_row(rows_per_s: float) -> float:
    return 1e6 / rows_per_s if rows_per_s else 0.0


def _overhead_pct(with_it: List[float], without: List[float]) -> float:
    base = median(without)
    return 100.0 * (median(with_it) - base) / base if base else 0.0


def layer_metrics(recorder: Recorder, system, guarded_miss_ms: List[float]) -> Dict[str, float]:
    """Span medians, and the two remainders named from them."""
    ms = recorder.median_ms
    synopsis = system.synopsis(TABLE)
    sample_table = system.catalog.get(synopsis.installed.sample_name)
    unguarded = ms("aqua.answer_unguarded")
    named_layers = sum(ms(name) for name in UNGUARDED_LAYERS)
    shell = unguarded - named_layers if unguarded else 0.0
    return {
        "engine.parse_ms": ms("engine.parse"),
        "engine.execute_base_ms": ms("engine.execute_base"),
        "engine.base_rows_per_s": _rows_per_s(recorder, "engine.execute_base"),
        "plan.canonicalize_ms": ms("plan.canonicalize"),
        "rewrite.plan_ms": ms("rewrite.plan"),
        "plan.optimize_ms": ms("plan.optimize"),
        "plan.execute_sample_ms": ms("plan.execute_sample"),
        "plan.sample_rows_per_s": _rows_per_s(recorder, "plan.execute_sample"),
        "estimators.estimate_ms": ms("estimators.estimate"),
        "aqua.validate_ms": ms("aqua.validate"),
        # guarded minus unguarded; includes aqua.validate_ms, which only a
        # guarded answer runs
        "aqua.guard_ms": (
            median(guarded_miss_ms) - unguarded
            if unguarded and guarded_miss_ms else 0.0
        ),
        "aqua.shell_ms": shell,
        "aqua.shell_share": shell / unguarded if unguarded else 0.0,
        "aqua.synopsis_rows": synopsis.sample_size,
        "aqua.synopsis_bytes": sum(
            column.nbytes for column in sample_table.columns().values()
        ),
        "core.allocate_ms": ms("core.allocate"),
        "sampling.build_ms": ms("sampling.build"),
        "maintenance.insert_us_per_row": _us_per_row(
            _rows_per_s(recorder, "maintenance.insert_many")
        ),
        "maintenance.snapshot_ms": ms("maintenance.snapshot"),
    }


def _split_ms(latencies: List[float], hits: List[bool]) -> Dict[str, float]:
    return {
        "aqua.cache.hit_ms_p50": median(
            [ms for ms, hit in zip(latencies, hits) if hit]
        ),
        "aqua.cache.miss_ms_p50": median(
            [ms for ms, hit in zip(latencies, hits) if not hit]
        ),
    }


def _synopsis_group_share(provenance) -> float:
    total = sum(provenance.values())
    return provenance.get("synopsis", 0) / total if total else 0.0


def _finish(values: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    return {
        name: (float(values.get(name, 0.0)), unit)
        for name, unit in PER_LAYER.items()
    }


# -- the traced runs -------------------------------------------------------


def _traced_direct(stream: streams.Stream, recorder: Recorder):
    ops = streams.first_quarter(stream)
    maintenance = stream.workload == "ingest_mix"

    side, side_log = workloads.set_up(maintenance), OpLog()
    main, tally, log = workloads.set_up(maintenance), Tally(), OpLog()
    tele, tele_log = workloads.set_up(maintenance, telemetry=True), OpLog()
    lanes = [
        (side, Tally(), side_log, None),
        (main, tally, log, recorder),
        (tele, Tally(), tele_log, None),
    ]
    kernel_ms = clock.kernel_samples()
    for i, op in enumerate(ops):
        # whoever runs an op first warms the processor's caches for the
        # others, so the turn order rotates
        for system, lane_tally, lane_log, lane_recorder in lanes[i % 3 :] + lanes[: i % 3]:
            workloads.run_ops(system, [op], lane_tally, lane_log, lane_recorder, first=i)
    kernel_ms += clock.kernel_samples()
    values = workloads.cache_counts(main)
    accuracy = Accuracy()
    workloads.check_against_exact(main, log, tally, accuracy)
    replay_layers(recorder, main, log.answered)
    replay_base(recorder, main, [sql for __, sql, __, __ in log.checked])

    misses = [ms for ms, hit in zip(log.answer_ms, log.cache_hit) if not hit]
    probe_unguarded(recorder, side, stream.siblings[: len(misses)])
    probe_set_up(recorder, main)
    if maintenance:
        probe_maintenance(recorder, main)

    values.update(layer_metrics(recorder, main, misses))
    values.update(_split_ms(log.answer_ms, log.cache_hit))
    values.update(
        {
            "aqua.guard.synopsis_group_share": _synopsis_group_share(log.provenance),
            "aqua.speedup_vs_exact": accuracy.speedup_vs_exact,
            "aqua.insert_us_per_row": _us_per_row(median(log.insert_rates)),
            "obs.telemetry_overhead_pct": _overhead_pct(
                tele_log.answer_ms, side_log.answer_ms
            ),
            "bench.trace_overhead_pct": _overhead_pct(
                log.answer_ms, side_log.answer_ms
            ),
            "bench.host_slowdown": clock.slowdown(kernel_ms),
        }
    )
    return tally, values


def _traced_http(stream: streams.Stream, recorder: Recorder):
    client_ops = streams.first_quarter(stream)

    server = workloads.Server(1)
    try:
        untraced, __ = workloads.drive_http(server.port, client_ops, Tally())
    finally:
        server.stop()

    tally = Tally()
    kernel_ms = clock.kernel_samples()
    server = workloads.Server(1)
    try:
        http, __ = workloads.drive_http(server.port, client_ops, tally, recorder)
        stats = workloads.server_stats(server.port)
        values = server.call(cmd="cache_counts")
    finally:
        server.stop()
    kernel_ms += clock.kernel_samples()

    # The served system lives in the child; its layers are replayed on the
    # harness's twin (same table, same synopsis).
    twin = workloads.set_up()
    accuracy = Accuracy()
    workloads.check_http(twin, http, tally, accuracy)
    replay_layers(recorder, twin, http.answered)
    replay_base(recorder, twin, list(http.first))
    misses = [ms for ms, hit in zip(http.served_ms, http.cache_hit) if not hit]
    probes = min(len(misses), len(stream.siblings) - 2 * SERVICE_PAIRS)
    probe_unguarded(recorder, twin, stream.siblings[:probes])
    service_overhead = probe_service(twin, stream.siblings[probes:])
    probe_set_up(recorder, twin)

    # Telemetry is on in the served system; its cost is measured in-process,
    # default against telemetry=True, on the first client's SQL.
    plain_log, tele_log = OpLog(), OpLog()
    pair = [(workloads.set_up(), plain_log), (workloads.set_up(telemetry=True), tele_log)]
    for i, op in enumerate(client_ops[0]):
        for system, lane_log in pair if i % 2 == 0 else pair[::-1]:
            workloads.run_ops(system, [op], Tally(), lane_log)

    values.update(layer_metrics(recorder, twin, misses))
    values.update(_split_ms(http.latency_ms, http.cache_hit))
    values.update(workloads.serve_metrics(http, stats))
    values.update(
        {
            "aqua.guard.synopsis_group_share": _synopsis_group_share(http.provenance),
            "aqua.speedup_vs_exact": accuracy.speedup_vs_exact,
            "serve.service_overhead_ms": service_overhead,
            "obs.telemetry_overhead_pct": _overhead_pct(
                tele_log.answer_ms, plain_log.answer_ms
            ),
            "bench.trace_overhead_pct": _overhead_pct(
                http.latency_ms, untraced.latency_ms
            ),
            "bench.host_slowdown": clock.slowdown(kernel_ms),
        }
    )
    return tally, values


def run_traced(stream: streams.Stream, spans_path):
    """Returns the tally, the per-layer metrics by name, and notes."""
    recorder = Recorder()
    traced = _traced_http if stream.workload == "http_serving" else _traced_direct
    tally, values = traced(stream, recorder)
    written = recorder.write(spans_path)
    notes = {
        "spans": written,
        "span_counts": recorder.counts(),
    }
    return tally, _finish(values), notes
