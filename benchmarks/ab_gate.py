"""Run the repo benchmark on two commits, in alternating pairs, and redo the
benchmark gate's arithmetic on what comes out.

    python3 benchmarks/ab_gate.py PARENT CHANGE [--seeds 10] [--seconds 12]
                                  [--workload NAME ...] [--dir DIR]

Both commits are unpacked with ``git archive`` (so the benchmark each side
runs is the one that commit holds, and nothing is left in ``.git``), then for
every seed and workload ``benchmarks/e2e/run.py --workload W --seed i
--seconds S --out FILE`` runs once on each side, the side that goes first
alternating with the seed.  For every workload and gated end-to-end metric of
``BENCHMARK.json`` it prints both medians, both quartile distances, the pairs
the change won (ties count for neither), and the three things the gate holds
against a change:

* ``worse``   the change's median is worse than the parent's by more than
              the metric's bound;
* ``spread``  the change's quartile distance is more than ``bound x`` the
              *parent's* median -- an s-fold throughput gain therefore needs
              a run-to-run spread below ``bound / s`` of its own median;
* ``claim``   whether a gain could be claimed: nine pairs in ten won and the
              medians further apart than the parent's quartile distance.

``host_slowdown`` (how busy the host was, 1.0 = idle) is printed per side; a
pair measured on a busy host says nothing about the program.  To measure
uncommitted work, pass ``$(git stash create)`` as CHANGE.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def unpack(commit: str, target: Path) -> None:
    """The files of ``commit`` under ``target``."""
    target.mkdir(parents=True)
    archive = target.with_suffix(".tar")
    subprocess.run(
        ["git", "archive", "--format=tar", "-o", str(archive), commit],
        cwd=ROOT, check=True,
    )
    with tarfile.open(archive) as tar:
        tar.extractall(target)
    archive.unlink()


def run_once(checkout: Path, workload: str, seed: int, seconds: float, out: Path) -> dict:
    """One untraced run of one workload; its full record."""
    child = subprocess.run(
        [
            sys.executable, str(checkout / "benchmarks" / "e2e" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--out", str(out),
        ],
        capture_output=True, text=True,
    )
    if not out.exists():
        sys.exit(f"ab_gate: {checkout.name} {workload} seed {seed} wrote no record:\n{child.stderr}")
    (record,) = json.loads(out.read_text())
    return record


def quartile_distance(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    low, __, high = statistics.quantiles(values, n=4, method="inclusive")
    return high - low


def report(spec: dict, runs: Dict[str, Dict[str, List[dict]]]) -> int:
    """Print the table; returns how many rows the gate would refuse."""
    refused = 0
    print(
        f"{'workload':13s} {'metric':19s} {'parent':>10s} {'change':>10s} {'ratio':>6s} "
        f"{'qd parent':>10s} {'qd change':>10s} {'allowed':>10s} {'won':>6s}  verdict"
    )
    for workload, sides in runs.items():
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            parent, change = (
                [r["metrics"][name]["value"] for r in sides[side]] for side in SIDES
            )
            p_median, c_median = statistics.median(parent), statistics.median(change)
            p_spread, c_spread = quartile_distance(parent), quartile_distance(change)
            won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
            lost = sum((c > p) if lower else (c < p) for p, c in zip(parent, change))
            gain = (p_median - c_median) if lower else (c_median - p_median)
            allowed = bound * abs(p_median)
            verdict = []
            if -gain > allowed:
                verdict.append("WORSE")
            if c_spread > allowed:
                verdict.append("SPREAD")
            refused += bool(verdict)
            if won >= 0.9 * len(parent) and gain > p_spread:
                verdict.append("claim holds")
            print(
                f"{workload:13s} {name:19s} {p_median:10.4g} {c_median:10.4g} "
                f"{c_median / p_median if p_median else float('nan'):6.2f} "
                f"{p_spread:10.3g} {c_spread:10.3g} {allowed:10.3g} "
                f"{won:3d}/{won + lost:<2d}  {', '.join(verdict) or '-'}"
            )
        failed = {side: sum(r["failed"] for r in sides[side]) for side in SIDES}
        busy = {
            side: statistics.median(r["notes"]["host_slowdown"] for r in sides[side])
            for side in SIDES
        }
        correct = all(r["correct"] for r in sides["change"])
        if failed["change"] > failed["parent"] or not correct:
            refused += 1
        print(
            f"{workload:13s} failed ops {failed['parent']} -> {failed['change']}, change "
            f"correct: {correct}; host_slowdown {busy['parent']:.2f} / {busy['change']:.2f}"
        )
    print(f"rows the gate would refuse (WORSE, SPREAD or failing): {refused}")
    return refused


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--seeds", type=int, default=10, help="pairs per workload")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--dir", help="where checkouts and records go (kept); default: a temp dir")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="ab_gate-") as scratch:
        work = Path(args.dir or scratch)
        checkouts = {"parent": work / "parent", "change": work / "change"}
        for side in SIDES:
            unpack(getattr(args, side), checkouts[side])
        runs: Dict[str, Dict[str, List[dict]]] = {
            w: {side: [] for side in SIDES} for w in args.workload or names
        }
        for seed in range(args.seeds):
            order = SIDES if seed % 2 == 0 else SIDES[::-1]
            for workload in runs:
                for side in order:
                    out = work / f"{side}-{workload}-{seed}.json"
                    record = run_once(checkouts[side], workload, seed, args.seconds, out)
                    runs[workload][side].append(record)
                    print(
                        f"# seed {seed} {workload} {side}: "
                        f"answers_per_s {record['metrics']['answers_per_s']['value']:.4g} "
                        f"answer_ms_p50 {record['metrics']['answer_ms_p50']['value']:.4g} "
                        f"host_slowdown {record['notes']['host_slowdown']:.2f}",
                        flush=True,
                    )
        return 1 if report(spec, runs) else 0


if __name__ == "__main__":
    sys.exit(main())
