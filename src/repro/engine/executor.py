"""Query executor: runs a logical :class:`Query` against a :class:`Catalog`.

Execution pipeline (matching how a DBMS would execute the rewritten queries
of Section 5):

1. resolve FROM (base table lookup, or recursive execution of a subquery);
2. apply the WHERE predicate as a vectorized filter;
3. if the query aggregates, hash group-by on the GROUP BY columns;
   otherwise project the select expressions;
4. order the output if ORDER BY was given.

Aggregate queries can additionally run *partition-parallel*: a
:class:`ParallelExecutor` splits the input into K partitions
(:mod:`repro.engine.partition`), runs filter + partial group-by per
partition on a worker pool, and merges the partitions' mergeable aggregate
states (:mod:`repro.engine.aggregates`) before finalizing -- the classic
BlinkDB/VerdictDB scan shape.  The serial path is the degenerate K=1 case
of the same partial/merge/finalize arithmetic, so both paths agree exactly.
Small inputs and non-aggregate plans fall back to the serial path.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..obs import Telemetry
from ..serve.deadline import current_deadline
from .catalog import Catalog
from .expressions import Col
from .groupby import (
    GroupByPartial,
    finalize_group_by,
    group_by,
    merge_group_partials,
    partial_group_by,
)
from .partition import Partition, Partitioner
from .query import Projection, Query, QueryError
from .schema import Column, ColumnType, Schema
from .table import Table

__all__ = [
    "execute",
    "execute_on_table",
    "infer_expression_type",
    "ParallelConfig",
    "ParallelExecutor",
]


def execute(
    query: Query,
    catalog: Catalog,
    parallel: Optional["ParallelExecutor"] = None,
) -> Table:
    """Execute ``query``, resolving table names against ``catalog``.

    When ``parallel`` is given, eligible aggregate scans (including those of
    nested subqueries) run partitioned on its worker pool.
    """
    source = query.from_item
    if isinstance(source, Query):
        input_table = execute(source, catalog, parallel=parallel)
    else:
        input_table = catalog.get(source)
    return _run(query, input_table, parallel=parallel)


def execute_on_table(
    query: Query,
    table: Table,
    parallel: Optional["ParallelExecutor"] = None,
) -> Table:
    """Execute ``query`` directly against ``table``, ignoring the FROM name.

    The FROM item must be a plain name (not a subquery); this entry point is
    for callers that already hold the rows, such as the guard's repair.
    """
    if isinstance(query.from_item, Query):
        raise QueryError("execute_on_table does not support nested subqueries")
    return _run(query, table, parallel=parallel)


@dataclass(frozen=True)
class ParallelConfig:
    """Tuning knobs for partition-parallel aggregate execution.

    Attributes:
        max_workers: worker threads (0 = one per CPU core).
        backend: ``"threads"`` (default -- the hot loops are numpy, which
            releases the GIL) or ``"serial"`` (run partitions in-loop on the
            calling thread; useful for debugging and deterministic tests of
            the partition/merge machinery).
        min_partition_rows: serial fallback threshold.  The input is split
            into at most ``rows // min_partition_rows`` partitions, so any
            input smaller than ``2 * min_partition_rows`` runs serially.
            ``0`` forces partitioning regardless of size (what the
            ``REPRO_PARALLEL_WORKERS`` CI leg uses so small test tables
            still exercise the parallel path).
        partition_mode: ``"range"`` (contiguous zero-copy row ranges) or
            ``"hash"`` (route rows by group-by columns so each group lands
            in one partition; falls back to range for no-group-by queries).
    """

    max_workers: int = 0
    backend: str = "threads"
    min_partition_rows: int = 50_000
    partition_mode: str = "range"

    def __post_init__(self) -> None:
        if self.backend not in ("threads", "serial"):
            raise ValueError(
                f"backend must be threads or serial, got {self.backend!r}"
            )
        if self.partition_mode not in ("range", "hash"):
            raise ValueError(
                f"partition_mode must be range or hash, "
                f"got {self.partition_mode!r}"
            )
        if self.max_workers < 0:
            raise ValueError(
                f"max_workers must be >= 0, got {self.max_workers}"
            )
        if self.min_partition_rows < 0:
            raise ValueError(
                f"min_partition_rows must be >= 0, "
                f"got {self.min_partition_rows}"
            )

    @property
    def workers(self) -> int:
        """The resolved worker count (``max_workers`` or the CPU count)."""
        if self.max_workers > 0:
            return self.max_workers
        return os.cpu_count() or 1

    @classmethod
    def from_env(
        cls, env: Optional[Mapping[str, str]] = None
    ) -> Optional["ParallelConfig"]:
        """Build a config from ``REPRO_PARALLEL_*`` environment variables.

        Returns None unless ``REPRO_PARALLEL_WORKERS`` is set to a positive
        integer.  ``REPRO_PARALLEL_MIN_ROWS`` (default 0: always partition)
        and ``REPRO_PARALLEL_BACKEND`` refine the config.  Setting the env
        var is an explicit opt-in, so the fallback threshold defaults to 0
        to force every eligible scan through the parallel path -- this is
        how CI runs the whole test suite against the parallel executor.
        """
        env = os.environ if env is None else env
        raw = str(env.get("REPRO_PARALLEL_WORKERS", "")).strip()
        if not raw:
            return None
        try:
            workers = int(raw)
        except ValueError:
            return None
        if workers <= 0:
            return None
        min_rows = int(env.get("REPRO_PARALLEL_MIN_ROWS", "0"))
        backend = str(env.get("REPRO_PARALLEL_BACKEND", "threads"))
        return cls(
            max_workers=workers,
            backend=backend,
            min_partition_rows=min_rows,
        )


class ParallelExecutor:
    """Partition-parallel scan executor for aggregate queries.

    Splits the input table, runs WHERE + partial group-by per partition on a
    thread pool, merges the partitions' aggregate states, and finalizes.
    The result is group-for-group identical to the serial executor: AVG and
    VAR come from merged ``(n, sum, sum_sq)`` moments, MIN/MAX from merged
    extrema, and the merged group order matches the serial sorted order.

    Also provides :meth:`map_partitions`, the generic fan-out used for
    parallel synopsis construction and exact-fallback scans in
    :mod:`repro.aqua.system`.
    """

    def __init__(
        self,
        config: Optional[ParallelConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.config = config if config is not None else ParallelConfig()
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry.disabled()
        )

    def partition_count(self, rows: int) -> int:
        """How many partitions an input of ``rows`` rows would be split into."""
        workers = self.config.workers
        if workers <= 1 or rows == 0:
            return 1
        if self.config.min_partition_rows > 0:
            workers = min(workers, rows // self.config.min_partition_rows)
        return max(workers, 1)

    def _map(self, fn: Callable, parts: Sequence[Partition]) -> List:
        if self.config.backend == "serial" or len(parts) == 1:
            return [fn(part) for part in parts]
        workers = min(self.config.workers, len(parts))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, parts))

    def map_partitions(
        self, table: Table, fn: Callable[[Partition], object]
    ) -> List:
        """Apply ``fn`` to each range partition of ``table`` concurrently.

        Returns the per-partition results in partition (row) order.  With
        one partition (small input, or one worker) ``fn`` runs inline.
        """
        k = self.partition_count(table.num_rows)
        parts = Partitioner("range").split(table, k)
        # Pool threads do not inherit the submitting thread's context, so
        # the ambient deadline is captured here and closed over explicitly.
        deadline = current_deadline()
        if deadline is not None:
            inner = fn

            def fn(part):
                deadline.check("partition_scan")
                return inner(part)

        return self._map(fn, parts)

    # -- the partitioned aggregate scan --------------------------------------

    def aggregate_table(
        self,
        table: Table,
        key_columns: Sequence[str],
        aggregates: Sequence,
        where=None,
    ) -> Table:
        """The Query-free partitioned aggregation core.

        Splits ``table``, optionally filters each partition by ``where``
        (fused into the per-partition scan), runs a partial group-by per
        partition, merges, and finalizes.  This is the entry point the plan
        executor's GroupBy operator binds to -- predicates there have
        already been pushed into the Scan, so it passes ``where=None``.
        """
        key_columns = list(key_columns)
        aggregates = list(aggregates)
        k = self.partition_count(table.num_rows)
        if self.config.partition_mode == "hash" and key_columns:
            partitioner = Partitioner("hash", hash_columns=key_columns)
        else:
            partitioner = Partitioner("range")
        parts = partitioner.split(table, k)
        # Captured on the coordinator thread: the scan closure runs on pool
        # threads, which do not inherit contextvars, so the ambient deadline
        # must travel into the closure explicitly.
        deadline = current_deadline()

        def scan(part: Partition) -> Tuple[GroupByPartial, float, int, int]:
            if deadline is not None:
                deadline.check("partition_scan")
            start = perf_counter()
            rows = part.table
            if where is not None:
                rows = rows.filter(where.evaluate(rows))
            partial = partial_group_by(rows, key_columns, aggregates)
            return partial, perf_counter() - start, part.num_rows, rows.num_rows

        tracer = self.telemetry.tracer
        with tracer.span(
            "parallel_scan",
            partitions=len(parts),
            workers=min(self.config.workers, len(parts)),
            backend=self.config.backend,
        ) as span:
            scans = self._map(scan, parts)
            merged = merge_group_partials([partial for partial, *_ in scans])
            result = finalize_group_by(merged, table.schema, aggregates)
            span.set(groups=merged.num_groups)
            for part, (_, seconds, rows_in, rows_kept) in zip(parts, scans):
                span.add_child_timing(
                    "partition_scan",
                    seconds,
                    partition=part.index,
                    rows=rows_in,
                    kept=rows_kept,
                )
        self._observe_scan(parts, scans)
        return result

    # -- metrics -------------------------------------------------------------

    def _observe_scan(self, parts, scans) -> None:
        metrics = self.telemetry.metrics
        if not metrics.enabled:
            return
        metrics.counter(
            "engine_parallel_scans_total",
            "Aggregate scans executed partition-parallel, by backend.",
            ("backend",),
        ).inc(backend=self.config.backend)
        metrics.counter(
            "engine_partitions_scanned_total",
            "Partitions scanned by the parallel executor.",
        ).inc(len(parts))
        partition_seconds = metrics.histogram(
            "engine_partition_scan_seconds",
            "Per-partition filter + partial-aggregate wall time.",
        )
        for _, seconds, *_ in scans:
            partition_seconds.observe(seconds)

    def note_serial_fallback(self, reason: str = "small_input") -> None:
        """Record that an aggregate scan ran serially despite this executor:
        its input was too small to split, or (``"unsupported_plan"``) the
        plan had nothing to merge."""
        metrics = self.telemetry.metrics
        if not metrics.enabled:
            return
        metrics.counter(
            "engine_parallel_fallbacks_total",
            "Aggregate scans that fell back to the serial executor.",
            ("reason",),
        ).inc(reason=reason)


def _run(
    query: Query,
    input_table: Table,
    parallel: Optional[ParallelExecutor] = None,
) -> Table:
    aggregating = query.has_aggregates() or bool(query.group_by)

    if aggregating:
        if parallel is not None and parallel.partition_count(input_table.num_rows) >= 2:
            result = parallel.aggregate_table(
                input_table,
                list(query.group_by),
                query.aggregates(),
                where=query.where,
            )
        else:
            if parallel is not None:
                parallel.note_serial_fallback()
            filtered = _apply_where(query, input_table)
            result = group_by(
                filtered, list(query.group_by), query.aggregates()
            )
        # group_by() emits keys-then-aggregates; restore select-list order and
        # apply aliases for the key columns.
        out_names = []
        renames = {}
        for item in query.select:
            if isinstance(item, Projection):
                assert isinstance(item.expr, Col)  # enforced by Query
                out_names.append(item.expr.name)
                if item.alias != item.expr.name:
                    renames[item.expr.name] = item.alias
            else:
                out_names.append(item.alias)
        result = result.project(out_names)
        if renames:
            result = result.rename(renames)
        if query.having is not None:
            result = result.filter(query.having.evaluate(result))
    else:
        if parallel is not None:  # a projection: nothing to merge
            parallel.note_serial_fallback("unsupported_plan")
        filtered = _apply_where(query, input_table)
        columns = {}
        schema_cols = []
        for item in query.select:
            values = item.expr.evaluate(filtered)
            ctype = _infer_type(values, item.expr, filtered)
            schema_cols.append(Column(item.alias, ctype))
            columns[item.alias] = ctype.coerce(values)
        result = Table(Schema(schema_cols), columns)

    if query.order_by:
        result = result.sort_by(list(query.order_by))
    if query.limit is not None:
        result = result.head(query.limit)
    return result


def _apply_where(query: Query, input_table: Table) -> Table:
    if query.where is None:
        return input_table
    return input_table.filter(query.where.evaluate(input_table))


def infer_expression_type(values: np.ndarray, expr, table: Table) -> ColumnType:
    """Infer the output type of a projected expression.

    Shared by the serial executor and the plan executor's compute-mode
    Project so both type projected columns identically.
    """
    if isinstance(expr, Col):
        return table.schema.column(expr.name).ctype
    kind = np.asarray(values).dtype.kind
    if kind in ("i", "u"):
        return ColumnType.INT
    return ColumnType.FLOAT if kind == "f" else ColumnType.STR


_infer_type = infer_expression_type
