"""Set-up, the timed loops and the correctness checks of the five workloads.

All direct workloads are closed-loop, one client, one thread, against one
``AquaSystem`` built as a user builds it: every constructor argument other
than the budget and the rng is left at its default.  ``http_serving`` drives
a server child process (``server.py``) with raw-socket clients.
"""

from __future__ import annotations

import json
import resource
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.aqua import AquaSystem
from repro.engine.aggregates import Aggregate
from repro.engine.sql import parse_query
from repro.synthetic import GROUPING_COLUMNS, LineitemConfig, generate_lineitem

import streams
from streams import DATA_SEED, SPACE_BUDGET, TABLE, TABLE_SIZE

HERE = Path(__file__).resolve().parent
COUNT_SQL = f"SELECT COUNT(*) AS n FROM {TABLE}"


# -- set-up ----------------------------------------------------------------


def set_up(maintenance: bool = False, telemetry: bool = False):
    """The common set-up: table, system, registration, first synopsis.

    Table and sample come from ``DATA_SEED``, whatever ``--seed`` is.
    """
    table = generate_lineitem(
        LineitemConfig(
            table_size=TABLE_SIZE, num_groups=streams.NUM_GROUPS, seed=DATA_SEED
        )
    )
    system = AquaSystem(
        space_budget=SPACE_BUDGET,
        rng=np.random.default_rng(DATA_SEED + 1),
        telemetry=telemetry or None,  # None is the constructor's default
    )
    system.register_table(TABLE, table, grouping_columns=GROUPING_COLUMNS)
    system.synopsis(TABLE)
    if maintenance:
        system.enable_maintenance(TABLE)
    return system


def timed_set_ups(repeats: int, build) -> Tuple[object, List[float]]:
    """Set up ``repeats`` times; keep the last, report every duration."""
    seconds, built = [], None
    for __ in range(repeats):
        built = None  # release the previous system before building again
        start = time.perf_counter()
        built = build()
        seconds.append(time.perf_counter() - start)
    return built, seconds


# -- bookkeeping -----------------------------------------------------------


class OpFailed(Exception):
    """An op that completed but is wrong; the message names the kind."""


@dataclass
class Tally:
    """Ops attempted and failed; failures listed by exception class."""

    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)

    def fail(self, kind: str) -> None:
        self.failed += 1
        self.failures[kind] += 1


@dataclass
class OpLog:
    """What one pass over a stream observed."""

    answer_ms: List[float] = field(default_factory=list)
    cache_hit: List[bool] = field(default_factory=list)
    insert_rows: int = 0
    insert_rates: List[float] = field(default_factory=list)  # rows/s per batch
    refresh_ms: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    provenance: Counter = field(default_factory=Counter)
    # (op index, sql, result, answer_ms) of ops flagged ``check``
    checked: List[tuple] = field(default_factory=list)
    # (sql, result) of every cache-served answer
    cache_served: List[tuple] = field(default_factory=list)
    # (op index, sql, miss) per answered op, for the traced run's replays
    answered: List[tuple] = field(default_factory=list)


def percentile(samples: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples), q)) if samples else 0.0


def median(samples: List[float]) -> float:
    return statistics.median(samples) if samples else 0.0


# -- the direct loop -------------------------------------------------------


def _root_span(recorder, op_id: str, kind: str):
    """The op's root span in a traced run; nothing in an untraced one."""
    if recorder is None:
        return nullcontext()
    return recorder.span("op", op_id=op_id, kind=kind)


def run_ops(
    system,
    ops: List[dict],
    tally: Tally,
    log: OpLog,
    recorder=None,
    first: int = 0,
) -> None:
    """One closed-loop pass; an op that raises is counted, not fatal.

    ``first`` is the stream index of ``ops[0]``, for callers that feed the
    stream in pieces.
    """

    def do(i: int, op: dict) -> None:
        kind = op["op"]
        if kind == "answer":
            sql = op["sql"]
            start = time.perf_counter()
            answer = system.answer(sql)
            ms = (time.perf_counter() - start) * 1e3
            log.answer_ms.append(ms)
            served = answer.cache_hit or answer.cache_tier is not None
            log.cache_hit.append(served)
            log.provenance.update(answer.provenance_counts)
            log.answered.append((i, sql, not served))
            if served:
                log.cache_served.append((sql, answer.result))
            if op["check"]:
                log.checked.append((i, sql, answer.result, ms))
        elif kind == "insert":
            rows = op["rows"]
            start = time.perf_counter()
            for row in rows:
                system.insert(TABLE, row)
            log.insert_rates.append(len(rows) / (time.perf_counter() - start))
            log.insert_rows += len(rows)
        elif kind == "refresh":
            start = time.perf_counter()
            system.refresh_synopsis(TABLE)
            log.refresh_ms.append((time.perf_counter() - start) * 1e3)
        else:
            raise ValueError(f"unknown op {kind!r}")

    for i, op in enumerate(ops, first):
        tally.attempted += 1
        start = time.perf_counter()
        try:
            with _root_span(recorder, str(i), op["op"]):
                do(i, op)
        except Exception as exc:  # the harness must outlive a failing op
            tally.fail(type(exc).__name__)
        log.wall_s += time.perf_counter() - start


# -- correctness and accuracy ----------------------------------------------


@dataclass
class Accuracy:
    """Pooled (group, aggregate) cells of the checked queries."""

    rel_errors: List[float] = field(default_factory=list)
    covered: int = 0
    cells: int = 0
    exact_ms: List[float] = field(default_factory=list)
    answer_ms: List[float] = field(default_factory=list)

    @property
    def rel_error_mean_pct(self) -> float:
        return 100.0 * float(np.mean(self.rel_errors)) if self.rel_errors else 0.0

    @property
    def bound_coverage(self) -> float:
        return self.covered / self.cells if self.cells else 0.0

    @property
    def speedup_vs_exact(self) -> float:
        total = sum(self.answer_ms)
        return sum(self.exact_ms) / total if total else 0.0


def _cells(columns: List[str], rows, group_by, aliases) -> Dict[tuple, dict]:
    index = {name: i for i, name in enumerate(columns)}
    out = {}
    for row in rows:
        key = tuple(row[index[name]] for name in group_by)
        out[key] = {
            alias: (
                float(row[index[alias]]),
                float(row[index[f"{alias}_error"]]),
            )
            for alias in aliases
        }
    return out


def score(sql: str, columns: List[str], rows, exact, accuracy: Accuracy) -> bool:
    """Pool one answer's cells against ``exact``; False on a group-set gap."""
    query = parse_query(sql)
    aliases = [s.alias for s in query.select if isinstance(s, Aggregate)]
    approx = _cells(columns, rows, query.group_by, aliases)
    truth = {
        tuple(row[exact.schema.names.index(name)] for name in query.group_by): row
        for row in exact.iter_rows()
    }
    if set(approx) != set(truth):
        return False
    names = exact.schema.names
    for key, row in truth.items():
        for alias in aliases:
            value, halfwidth = approx[key][alias]
            true = float(row[names.index(alias)])
            gap = abs(value - true)
            accuracy.cells += 1
            # 1e-9 relative slack: exact-provenance cells promise 0 and may
            # differ from exact() in the last bits of a float sum.
            accuracy.covered += gap <= halfwidth + 1e-9 * abs(true)
            if true != 0.0:
                accuracy.rel_errors.append(gap / abs(true))
    return True


def check_against_exact(
    system, log: OpLog, tally: Tally, accuracy: Accuracy
) -> None:
    """(a): every checked answer has exact()'s group set; pools accuracy."""
    for i, sql, result, ms in log.checked:
        tally.attempted += 1
        try:
            start = time.perf_counter()
            exact = system.exact(sql)
            accuracy.exact_ms.append((time.perf_counter() - start) * 1e3)
            accuracy.answer_ms.append(ms)
            rows = list(result.iter_rows())
            if not score(sql, result.schema.names, rows, exact, accuracy):
                tally.fail("GroupSetMismatch")
        except Exception as exc:
            tally.fail(type(exc).__name__)


def _numeric_columns_match(got, want, group_by) -> bool:
    if got.num_rows != want.num_rows:
        return False
    if group_by:
        got, want = got.sort_by(group_by), want.sort_by(group_by)
    for name in want.schema.names:
        expected = want.column(name)
        if expected.dtype.kind not in "fiu":
            continue  # provenance tags differ by tier; values must not
        if name not in got.schema or not np.allclose(
            got.column(name).astype(float), expected.astype(float),
            rtol=1e-9, atol=0.0, equal_nan=True,
        ):
            return False
    return True


def check_cache_served(log: OpLog, tally: Tally) -> None:
    """(b): a cache-served answer equals a fresh computation.

    The reference is an identically built, default-configured system with
    its answer cache and roll-up index emptied before every query -- not a
    ``cache=False`` system, which takes a different bounds path.
    """
    reference = set_up()
    fresh: Dict[str, object] = {}
    verdicts: Dict[tuple, bool] = {}
    for sql, result in log.cache_served:
        tally.attempted += 1
        try:
            if sql not in fresh:
                reference.answer_cache.invalidate()
                reference.rollup_index.clear()
                fresh[sql] = reference.answer(sql).result
            key = (sql, id(result))  # a tier hands out one object many times
            if key not in verdicts:
                verdicts[key] = _numeric_columns_match(
                    result, fresh[sql], parse_query(sql).group_by
                )
            if not verdicts[key]:
                tally.fail("CacheServedMismatch")
        except Exception as exc:
            tally.fail(type(exc).__name__)


def check_row_count(count: float, inserted: int, tally: Tally) -> None:
    """(c): after the last write, COUNT(*) is initial + inserted rows."""
    tally.attempted += 1
    if int(count) != TABLE_SIZE + inserted:
        tally.fail("RowCountMismatch")


def exact_count(system) -> float:
    return float(system.exact(COUNT_SQL).column("n")[0])


# -- direct workloads ------------------------------------------------------


@dataclass
class Outcome:
    """Everything one run measured, before it is named as metrics."""

    workload: str
    tally: Tally
    log: OpLog
    accuracy: Accuracy
    setup_s: List[float]
    peak_rss_mb: float
    cache: Dict[str, float] = field(default_factory=dict)
    serve: Dict[str, float] = field(default_factory=dict)
    global_checks: Dict[str, bool] = field(default_factory=dict)


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cache_counts(system) -> Dict[str, float]:
    stats = system.answer_cache.stats
    plan = system.plan_cache.stats
    lookups = stats.hits + stats.misses
    return {
        "aqua.cache.exact_hits": stats.exact_hits,
        "aqua.cache.canonical_hits": stats.canonical_hits,
        "aqua.cache.rollup_hits": stats.rollup_hits,
        "aqua.cache.misses": stats.misses,
        "aqua.cache.evictions": stats.evictions,
        "aqua.cache.reuse_share": (
            (stats.hits + stats.rollup_hits) / lookups if lookups else 0.0
        ),
        "plan.cache.hit_rate": plan.hit_rate,
    }


def run_direct(stream: streams.Stream, setup_repeats: int) -> Outcome:
    """cold_groupby, cold_point, warm_session, ingest_mix."""
    maintenance = stream.workload == "ingest_mix"
    system, setup_s = timed_set_ups(
        setup_repeats, lambda: set_up(maintenance=maintenance)
    )
    tally, log, accuracy = Tally(), OpLog(), Accuracy()
    run_ops(system, stream.ops, tally, log)
    # before the checks add lookups, base-table scans and a second system
    cache, peak_rss_mb = cache_counts(system), self_rss_mb()
    check_against_exact(system, log, tally, accuracy)
    checks = {}
    if stream.workload == "warm_session":
        check_cache_served(log, tally)
        for tier in ("exact", "canonical", "rollup"):
            checks[f"{tier}_tier_hit"] = cache[f"aqua.cache.{tier}_hits"] >= 1
    if maintenance:
        check_row_count(exact_count(system), log.insert_rows, tally)
    return Outcome(
        stream.workload, tally, log, accuracy, setup_s, peak_rss_mb, cache, {}, checks,
    )


# -- http_serving ----------------------------------------------------------


class HttpClient:
    """One persistent connection; one ``sendall`` per request.

    ``TCP_NODELAY`` and the single write keep the generator from stalling
    itself: whatever delay is left is the server's.
    """

    def __init__(self, port: int):
        self._sock = socket.create_connection(("127.0.0.1", port))
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def close(self) -> None:
        self._sock.close()

    def request(self, method: str, path: str, payload: Optional[dict] = None):
        body = json.dumps(payload).encode() if payload is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self._sock.sendall(head + body)
        while b"\r\n\r\n" not in self._buffer:
            self._fill()
        head, __, self._buffer = self._buffer.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, __, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        while len(self._buffer) < length:
            self._fill()
        body, self._buffer = self._buffer[:length], self._buffer[length:]
        return status, body

    def _fill(self) -> None:
        chunk = self._sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buffer += chunk


class Server:
    """The ``server.py`` child: one JSON line in, one JSON line out."""

    def __init__(self, setup_repeats: int):
        self._child = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"),
             "--setup-repeats", str(setup_repeats)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            ready = self._read()
        except Exception:
            self._child.kill()
            self._child.wait()
            raise
        self.port: int = ready["port"]
        self.setup_s: List[float] = ready["setup_s"]

    def _read(self) -> dict:
        line = self._child.stdout.readline()
        if not line:
            raise RuntimeError("server child exited without a reply")
        return json.loads(line)

    def call(self, **request) -> dict:
        self._child.stdin.write(json.dumps(request) + "\n")
        self._child.stdin.flush()
        return self._read()

    def stop(self) -> dict:
        """Shut the child down and wait for it; returns its last report."""
        try:
            report = self.call(cmd="stop")
        finally:
            self._child.stdin.close()
            try:
                self._child.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._child.kill()
                self._child.wait()
        return report


@dataclass
class HttpLog:
    """Per-request observations of one client."""

    latency_ms: List[float] = field(default_factory=list)
    queue_ms: List[float] = field(default_factory=list)
    served_ms: List[float] = field(default_factory=list)
    response_bytes: List[int] = field(default_factory=list)
    cache_hit: List[bool] = field(default_factory=list)
    provenance: Counter = field(default_factory=Counter)
    # sql -> (columns, rows, latency_ms) of its first 200 response
    first: Dict[str, tuple] = field(default_factory=dict)
    row_counts: List[tuple] = field(default_factory=list)  # (sql, rows)
    answered: List[tuple] = field(default_factory=list)  # (op id, sql, miss)


def _drive_client(
    k: int, port: int, ops: List[dict], tally: Tally, lock, log: HttpLog, recorder
) -> None:
    client = HttpClient(port)
    try:
        for i, op in enumerate(ops):
            sql, op_id = op["sql"], f"{k}.{i}"
            try:
                start = time.perf_counter()
                with _root_span(recorder, op_id, "http"):
                    status, body = client.request("POST", "/query", {"sql": sql})
                ms = (time.perf_counter() - start) * 1e3
                if status != 200:
                    raise OpFailed(f"Http{status}")
                reply = json.loads(body)
                served = bool(reply["cache_hit"] or reply["cache_tier"])
                log.latency_ms.append(ms)
                log.queue_ms.append(reply["queued_seconds"] * 1e3)
                log.served_ms.append(reply["served_seconds"] * 1e3)
                log.response_bytes.append(len(body))
                log.cache_hit.append(served)
                log.provenance.update(reply["provenance_counts"])
                log.row_counts.append((sql, len(reply["rows"])))
                log.answered.append((op_id, sql, not served))
                log.first.setdefault(sql, (reply["columns"], reply["rows"], ms))
                failure = None
            except OpFailed as exc:
                failure = str(exc)
            except Exception as exc:
                failure = type(exc).__name__
            with lock:
                tally.attempted += 1
                if failure:
                    tally.fail(failure)
    finally:
        client.close()


def drive_http(
    port: int, client_ops: List[List[dict]], tally: Tally, recorder=None
) -> Tuple[HttpLog, float]:
    """Closed loop: one thread and one connection per client stream."""
    lock = threading.Lock()
    logs = [HttpLog() for __ in client_ops]
    threads = [
        threading.Thread(
            target=_drive_client,
            args=(k, port, ops, tally, lock, logs[k], recorder),
        )
        for k, ops in enumerate(client_ops)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    merged = HttpLog()
    for log in logs:
        merged.latency_ms += log.latency_ms
        merged.queue_ms += log.queue_ms
        merged.served_ms += log.served_ms
        merged.response_bytes += log.response_bytes
        merged.cache_hit += log.cache_hit
        merged.provenance.update(log.provenance)
        merged.row_counts += log.row_counts
        merged.answered += log.answered
        for sql, first in log.first.items():
            merged.first.setdefault(sql, first)
    return merged, wall


def check_http(twin, http: HttpLog, tally: Tally, accuracy: Accuracy) -> None:
    """(d): each response's row count is exact()'s; pools accuracy.

    ``exact()`` runs on the harness's twin of the served system (same table,
    same sample): ``repro.serve`` has no exact endpoint.
    """
    expected_rows: Dict[str, int] = {}
    for sql, (columns, rows, ms) in http.first.items():
        tally.attempted += 1
        try:
            start = time.perf_counter()
            exact = twin.exact(sql)
            accuracy.exact_ms.append((time.perf_counter() - start) * 1e3)
            accuracy.answer_ms.append(ms)
            expected_rows[sql] = exact.num_rows
            if not score(sql, columns, rows, exact, accuracy):
                tally.fail("GroupSetMismatch")
        except Exception as exc:
            tally.fail(type(exc).__name__)
    for sql, count in http.row_counts:
        if expected_rows.get(sql, count) != count:
            tally.fail("RowCountMismatch")


def server_stats(port: int) -> dict:
    client = HttpClient(port)
    try:
        return json.loads(client.request("GET", "/stats")[1])
    finally:
        client.close()


def run_http(stream: streams.Stream, setup_repeats: int) -> Outcome:
    tally, accuracy, log = Tally(), Accuracy(), OpLog()
    server = Server(setup_repeats)
    try:
        http, wall = drive_http(server.port, stream.ops, tally)
        stats = server_stats(server.port)
        cache = server.call(cmd="cache_counts")
    finally:
        report = server.stop()
    check_http(set_up(), http, tally, accuracy)
    log.answer_ms, log.cache_hit = http.latency_ms, http.cache_hit
    log.provenance, log.wall_s = http.provenance, wall
    serve = serve_metrics(http, stats)
    return Outcome(
        stream.workload, tally, log, accuracy, server.setup_s,
        report["ru_maxrss_kb"] / 1024.0, cache, serve, {},
    )


def serve_metrics(http: HttpLog, stats: dict) -> Dict[str, float]:
    overhead = [
        total - queued - served
        for total, queued, served in zip(
            http.latency_ms, http.queue_ms, http.served_ms
        )
    ]
    return {
        "serve.queue_ms_p50": median(http.queue_ms),
        "serve.served_ms_p50": median(http.served_ms),
        "serve.http_overhead_ms_p50": median(overhead),
        "serve.response_bytes_p50": median(http.response_bytes),
        "serve.rejected": stats["rejected_overload"] + stats["rejected_rate_limit"],
        "serve.degraded": stats["outcomes"].get("degraded", 0),
    }


def run(stream: streams.Stream, setup_repeats: int) -> Outcome:
    if stream.workload == "http_serving":
        return run_http(stream, setup_repeats)
    return run_direct(stream, setup_repeats)


def end_to_end(outcome: Outcome) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics this run defines, as measured, with units.

    Eight on every workload (BENCHMARK.json lists all of them but the tail
    percentile); ``exact_ms_p50`` on the cold workloads and the two write
    metrics on ``ingest_mix``, as ISSUE 11 scopes them (``compare.SCOPED``).
    """
    log, tally = outcome.log, outcome.tally
    named = {
        "setup_s": (median(outcome.setup_s), "s"),
        "answer_ms_p50": (percentile(log.answer_ms, 50), "ms"),
        "answer_ms_p90": (percentile(log.answer_ms, 90), "ms"),
        "answers_per_s": (
            len(log.answer_ms) / log.wall_s if log.wall_s else 0.0, "1/s",
        ),
        "rel_error_mean_pct": (outcome.accuracy.rel_error_mean_pct, "%"),
        "bound_coverage": (outcome.accuracy.bound_coverage, "share"),
        "ok_ops_share": (
            1.0 - tally.failed / tally.attempted if tally.attempted else 0.0,
            "share",
        ),
        "peak_rss_mb": (outcome.peak_rss_mb, "MiB"),
    }
    if outcome.workload in ("cold_groupby", "cold_point"):
        named["exact_ms_p50"] = (median(outcome.accuracy.exact_ms), "ms")
    if outcome.workload == "ingest_mix":
        named["insert_rows_per_s"] = (median(log.insert_rates), "rows/s")
        named["refresh_ms_p50"] = (median(log.refresh_ms), "ms")
    return named
