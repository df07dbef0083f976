"""Compare two benchmark outputs against the bounds in BENCHMARK.json.

    python3 benchmarks/e2e/compare.py A.json B.json

A and B are files written by ``run.py --out``.  For every (end-to-end
metric, workload) pair that the workload defines this prints both values
(the median, when a file holds several runs of the workload), the relative
difference of B against A, and the metric's bound; it exits non-zero when B
is worse than A by more than the bound on any pair.  It also exits non-zero
when a run of B is not correct or B's runs of a workload failed more ops
than A's -- whatever the share -- and, where A and B ran the same stream
with one client, when their exact counts differ.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
# End-to-end metrics that BENCHMARK.json cannot list; a run prints them where
# they are defined and their bounds are here.  The driver wants each of its
# metrics on every workload, never 0, and ISSUE 11 scopes exact() time to the
# cold workloads and the write metrics to ingest_mix, which alone writes.
# It also refuses a metric that spreads more than its bound (at most 25 %)
# over ten runs, and on cold_point the tail percentile spread 9-25 %.
SCOPED = [
    {"name": "answer_ms_p90", "better": "lower", "bound": 0.25},
    {"name": "exact_ms_p50", "better": "lower", "bound": 0.25},
    {"name": "insert_rows_per_s", "better": "higher", "bound": 0.25},
    {"name": "refresh_ms_p50", "better": "lower", "bound": 0.25},
]


def _untraced(path: str) -> Dict[str, List[dict]]:
    by_workload: Dict[str, List[dict]] = {}
    for record in json.loads(Path(path).read_text()):
        if not record["trace"]:
            by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def _median(records: List[dict], metric: str) -> float:
    return statistics.median(r["metrics"][metric]["value"] for r in records)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    spec = json.loads(BENCHMARK.read_text())
    a_runs, b_runs = _untraced(argv[0]), _untraced(argv[1])
    beyond = 0
    print(f"{'workload':14s} {'metric':20s} {'A':>12s} {'B':>12s} {'B vs A':>9s} {'bound':>9s}")
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in a_runs or workload not in b_runs:
            print(f"{workload:14s} missing from {'A' if workload not in a_runs else 'B'}")
            beyond += 1
            continue
        a_records, b_records = a_runs[workload], b_runs[workload]
        for metric in spec["end_to_end"] + SCOPED:
            name, bound = metric["name"], metric["bound"]
            if any(name not in r["metrics"] for r in a_records + b_records):
                continue  # the workload does not define it
            a, b = _median(a_records, name), _median(b_records, name)
            change = (b - a) / a if a else 0.0
            worse = change if metric["better"] == "lower" else -change
            flag = "  BEYOND BOUND" if worse > bound else ""
            beyond += bool(flag)
            print(
                f"{workload:14s} {name:20s} {a:12.5g} {b:12.5g} "
                f"{100 * change:+8.2f}% {100 * bound:8.4g}%{flag}"
            )
        a_failed = sum(r["failed"] for r in a_records)
        b_failed = sum(r["failed"] for r in b_records)
        if b_failed > a_failed or not all(r["correct"] for r in b_records):
            beyond += 1
            kinds: Dict[str, int] = {}
            for record in b_records:
                for kind, count in record["failures"].items():
                    kinds[kind] = kinds.get(kind, 0) + count
            print(
                f"{workload:14s} failed ops: A {a_failed}, B {b_failed} {kinds}; "
                f"B correct: {all(r['correct'] for r in b_records)}  FAILURES"
            )
        by_sha = {r["stream_sha"]: r for r in a_records}
        for record in b_records:
            twin = by_sha.get(record["stream_sha"])
            if twin is None:
                continue
            ours = twin["notes"].get("exact_counts")
            theirs = record["notes"].get("exact_counts")
            if ours != theirs:
                beyond += 1
                print(f"{workload:14s} exact counts differ on one stream: {ours} != {theirs}")
    print("beyond bound, failing or differing: %d" % beyond)
    return 1 if beyond else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
