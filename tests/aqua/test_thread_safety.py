"""Concurrency hammers for the shared serving-path state.

The caches, the metrics registry, and the tracer are all shared by the
query service's worker pool; these tests drive them from many threads and
assert the bookkeeping stays exact (no lost updates, no torn reads, no
exceptions out of internal data structures).
"""

import threading

import numpy as np

from repro.aqua import AnswerCache, AquaSystem
from repro.aqua.cache import CacheStats
from repro.engine import Column, ColumnType, Schema, Table
from repro.obs import MetricsRegistry
from repro.obs.trace import Tracer

THREADS = 8
OPS = 200


def _run_threads(worker):
    threads = [
        threading.Thread(target=worker, args=(k,)) for k in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestAnswerCacheConcurrency:
    def test_counters_stay_exact_under_contention(self):
        cache = AnswerCache(capacity=16)

        def worker(k):
            for i in range(OPS):
                key = ("t", i % 8, "sql")
                if cache.get(key) is None:
                    cache.put(key, f"answer-{k}-{i}")

        _run_threads(worker)
        stats = cache.stats
        assert isinstance(stats, CacheStats)
        assert stats.hits + stats.misses == THREADS * OPS
        assert stats.size <= 16

    def test_eviction_under_contention_keeps_capacity(self):
        cache = AnswerCache(capacity=4)

        def worker(k):
            for i in range(OPS):
                cache.put((k, i), i)
                cache.get((k, i % 7))

        _run_threads(worker)
        assert len(cache) <= 4
        assert cache.stats.evictions >= THREADS * OPS - 4


class TestMetricsRegistryConcurrency:
    def test_counter_increments_are_not_lost(self):
        registry = MetricsRegistry(enabled=True)

        def worker(k):
            for _ in range(OPS):
                registry.counter("hammer_total", "hammer").inc()
                registry.counter(
                    "hammer_labeled_total", "hammer", ("who",)
                ).inc(who=f"t{k % 2}")

        _run_threads(worker)
        assert registry.counter("hammer_total", "hammer").value() == (
            THREADS * OPS
        )
        labeled = registry.counter("hammer_labeled_total", "hammer", ("who",))
        assert labeled.value(who="t0") + labeled.value(who="t1") == (
            THREADS * OPS
        )

    def test_histogram_observations_are_not_lost(self):
        registry = MetricsRegistry(enabled=True)

        def worker(k):
            for i in range(OPS):
                registry.histogram("hammer_seconds", "hammer").observe(
                    (i % 10) / 10.0
                )

        _run_threads(worker)
        histogram = registry.histogram("hammer_seconds", "hammer")
        assert histogram.count() == THREADS * OPS

    def test_exposition_is_safe_during_writes(self):
        registry = MetricsRegistry(enabled=True)
        stop = threading.Event()
        errors = []

        def writer(k):
            i = 0
            while not stop.is_set():
                registry.counter("spin_total", "spin").inc()
                registry.histogram("spin_seconds", "spin").observe(i % 5)
                i += 1
                if i >= OPS:
                    break

        def reader(_k):
            try:
                for _ in range(50):
                    registry.to_prometheus()
                    registry.snapshot()
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(k,)) for k in range(4)
        ] + [threading.Thread(target=reader, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        assert errors == []


class TestTracerConcurrency:
    def test_span_stacks_are_per_thread(self):
        tracer = Tracer(enabled=True)
        roots = {}
        barrier = threading.Barrier(THREADS)

        def worker(k):
            with tracer.span(f"root-{k}") as root:
                barrier.wait(timeout=10)  # all threads hold an open span
                with tracer.span(f"child-{k}"):
                    pass
            roots[k] = root

        _run_threads(worker)
        for k, root in roots.items():
            # Each thread's child nested under its own root -- never under
            # another thread's concurrently-open span.
            assert [span.name for span in root.children] == [f"child-{k}"]


class TestConcurrentAnswers:
    def test_parallel_answers_agree_and_nothing_corrupts(self):
        rng = np.random.default_rng(3)
        schema = Schema(
            [
                Column("g", ColumnType.STR, "grouping"),
                Column("v", ColumnType.FLOAT, "aggregate"),
            ]
        )
        system = AquaSystem(
            space_budget=300, rng=np.random.default_rng(9), telemetry=True
        )
        system.register_table(
            "t",
            Table(
                schema,
                {
                    "g": rng.choice(["a", "b", "c"], size=4000),
                    "v": rng.normal(100.0, 10.0, size=4000),
                },
            ),
        )
        queries = [
            "SELECT g, SUM(v) AS s FROM t GROUP BY g",
            "SELECT g, AVG(v) AS a FROM t GROUP BY g",
            "SELECT g, COUNT(*) AS c FROM t GROUP BY g",
        ]
        reference = {
            sql: system.answer(sql).result.column(
                system.answer(sql).result.schema.names[1]
            )
            for sql in queries
        }
        errors = []

        def worker(k):
            try:
                for i in range(20):
                    sql = queries[(k + i) % len(queries)]
                    answer = system.answer(sql)
                    value_col = answer.result.schema.names[1]
                    np.testing.assert_allclose(
                        answer.result.column(value_col), reference[sql]
                    )
            except Exception as exc:
                errors.append(exc)

        _run_threads(worker)
        assert errors == []
        stats = system.answer_cache.stats
        assert stats.hits + stats.misses >= THREADS * 20
