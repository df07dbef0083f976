"""The repo benchmark: one command, five workloads, every metric by name.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--quick] [--out FILE]

With ``--workload`` it runs that workload in this process and prints, as the
last line of standard output, one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` -- the end-to-end metrics with tracing off, the
per-layer metrics with ``--trace 1``.  Without it, every workload runs in a
fresh child process (untraced, and traced too with ``--trace``), and
``--out`` collects the children's full output in one file.

See README.md beside this file for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

import clock  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import streams  # noqa: E402
import workloads  # noqa: E402

# --seconds S runs the ISSUE's op counts (sized for ~20 s) times S / 20.
FULL_SCALE_SECONDS = 20.0
QUICK_SCALE = 1 / 20
SETUP_REPEATS = 3  # setup_s is the median of this many set-ups


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # the driver's checkout is not a git repository


def environment() -> dict:
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_workload(args) -> dict:
    """Run one workload here; returns the full (not just contract) record."""
    scale = QUICK_SCALE if args.quick else args.seconds / FULL_SCALE_SECONDS
    repeats = 1 if args.quick else SETUP_REPEATS
    stream = streams.build(args.workload, args.seed, scale)
    if args.trace:
        HERE.joinpath("out").mkdir(exist_ok=True)
        spans_path = HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
        tally, named, notes = layers.run_traced(stream, spans_path)
        notes["spans_file"] = str(spans_path.relative_to(ROOT))
        checks = {}
    else:
        kernel_ms = clock.kernel_samples()
        outcome = workloads.run(stream, repeats)
        kernel_ms += clock.kernel_samples()
        tally, checks = outcome.tally, outcome.global_checks
        named = workloads.end_to_end(outcome)
        notes = {
            "samples": {
                "answers": len(outcome.log.answer_ms),
                "checked": len(outcome.accuracy.exact_ms),
                "refreshes": len(outcome.log.refresh_ms),
                "set_ups": len(outcome.setup_s),
            },
            "answer_ms_percentiles": {
                f"p{q}": workloads.percentile(outcome.log.answer_ms, q)
                for q in (50, 75, 90, 95, 99)
            },
            "failed_ops_share": tally.failed / tally.attempted,
            "host_slowdown": clock.slowdown(kernel_ms),
            "serve": outcome.serve,
            "aqua.speedup_vs_exact": outcome.accuracy.speedup_vs_exact,
            # one client: the counts repeat exactly for a seed; the two
            # clients of http_serving race, so there a request or two may
            # be served by another tier from run to run
            "racing_counts" if args.workload == "http_serving" else "exact_counts": {
                k: v for k, v in outcome.cache.items() if k != "plan.cache.hit_rate"
            },
        }
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": scale,
        "trace": int(args.trace),
        "stream_sha": stream.sha,
        "correct": tally.failed == 0 and all(checks.values()),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": dict(tally.failures),
        "global_checks": checks,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in named.items()
        },
        "notes": notes,
        **environment(),
    }


def print_record(record: dict) -> None:
    print(
        f"# {record['workload']} seed={record['seed']} scale={record['scale']:g} "
        f"trace={record['trace']} stream_sha={record['stream_sha'][:12]} "
        f"git={record['git_sha'][:12]} nproc={record['nproc']} "
        f"python={record['python']} numpy={record['numpy']}"
    )
    for name, metric in record["metrics"].items():
        print(f"{name:36s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"# notes: {json.dumps(record['notes'], sort_keys=True)}")
    print(
        f"# attempted={record['attempted']} failed={record['failed']} "
        f"failures={record['failures']} checks={record['global_checks']}"
    )


def contract_line(record: dict) -> str:
    """The driver's line: the metrics BENCHMARK.json lists, and no other."""
    line = {key: record[key] for key in ("correct", "attempted", "failed")}
    scoped = {metric["name"] for metric in compare.SCOPED}
    line["metrics"] = {
        name: metric
        for name, metric in record["metrics"].items()
        if name not in scoped
    }
    return json.dumps(line)


def run_children(args) -> int:
    """Every workload in a fresh child process; one combined record."""
    names = [args.workload] if args.workload else list(streams.WORKLOADS)
    jobs = [(n, t) for n in names for t in ((0, 1) if args.trace else (0,))]

    def run_child(job):
        name, trace = job
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace), "--full-record",
        ] + (["--quick"] if args.quick else [])
        return subprocess.run(command, capture_output=True, text=True)

    # One child at a time, so that none disturbs another's timings; --quick
    # checks the harness, not the program, and may use every core.
    lanes = (os.cpu_count() or 1) if args.quick else 1
    with ThreadPoolExecutor(max_workers=lanes) as pool:
        children = list(pool.map(run_child, jobs))
    records, ok = [], True
    for (name, trace), child in zip(jobs, children):
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            sys.stderr.write(child.stderr)
            print(f"# {name} trace={trace}: child exited {child.returncode}")
            ok = False
            continue
        print("\n".join(lines[:-1]))
        record = json.loads(lines[-1])
        records.append(record)
        ok = ok and record["correct"]
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"# {'all correct' if ok else 'NOT CORRECT'}: {len(records)} runs")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=streams.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=12.0,
        help="sizes the op counts: the ISSUE's counts times seconds / 20",
    )
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help="counts / 20, one set-up")
    parser.add_argument("--out", help="write every run's full record to this file")
    parser.add_argument("--full-record", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None or args.out:
        return run_children(args)
    record = run_workload(args)
    print_record(record)
    print(json.dumps(record) if args.full_record else contract_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
