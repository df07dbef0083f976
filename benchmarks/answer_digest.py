"""Check that two commits answer every benchmark query byte-identically.

    python3 benchmarks/answer_digest.py PARENT CHANGE [--dir DIR]

Both commits are unpacked as ``ab_gate.py`` unpacks them (``git archive``).
In each, a child process builds the benchmark's system
(``benchmarks/e2e/workloads.set_up``) and answers, in stream order, every
distinct SQL of the five workload streams at 1/20 scale (seed 0), then
``session_templates()``: once with the default guard, once with
``guard=False``, each on a fresh system.  Every answer is hashed over its
schema, dtypes, values (``_error`` and provenance columns included), row
order, cache tier and ``reused_from``.

It also streams every session template through ``sql_stream`` on a
fresh system (``chunk_rows`` = 20,000, rng seed 0) and hashes each
emission's result bytes, ``rows_seen`` and ``provenance`` (``support`` is
not hashed).  A stream that differs is printed with the largest relative
difference of each float column that differs.

The script prints each SQL whose hash differs.  It exits non-zero if any
batch answer differs, or if a stream differs by more than 1e-12 relative
or in anything but float values.  Stdlib only; it reads
``benchmarks/e2e`` and changes nothing there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

from ab_gate import SIDES, unpack

SCALE = 1 / 20
SEED = 0
CHUNK_ROWS = 20_000
STREAM_TOLERANCE = 1e-12


def stream_sqls(streams) -> List[str]:
    """Distinct answer SQL of the five streams, then the session
    templates, in first-seen order."""
    sqls: Dict[str, None] = {}
    for workload in streams.WORKLOADS:
        stream = streams.build(workload, SEED, SCALE)
        clients = stream.ops if workload == "http_serving" else [stream.ops]
        for ops in clients:
            for op in ops:
                if op["op"] == "answer":
                    sqls.setdefault(op["sql"])
        for sql in stream.siblings:
            sqls.setdefault(sql)
    for sql in streams.session_templates():
        sqls.setdefault(sql)
    return list(sqls)


def digest(answer) -> str:
    """One answer's hash: table bytes in row order, tier, provenance."""
    h = hashlib.sha256()
    result = answer.result
    for column in result.schema:
        values = result.column(column.name)
        h.update(f"{column.name}:{column.ctype.value}:{values.dtype.str}".encode())
        h.update(values.tobytes())
    h.update(f"{answer.cache_tier}|{answer.reused_from}".encode())
    return h.hexdigest()


def emission_record(answer) -> dict:
    """One stream emission: its hash over result bytes, ``rows_seen`` and
    provenance, and its float columns (to size a difference)."""
    h = hashlib.sha256()
    result = answer.result
    floats = {}
    for column in result.schema:
        values = result.column(column.name)
        h.update(f"{column.name}:{column.ctype.value}:{values.dtype.str}".encode())
        h.update(values.tobytes())
        if values.dtype.kind == "f":
            floats[column.name] = values.tolist()
    h.update(f"{answer.rows_seen}|{answer.provenance}".encode())
    return {"digest": h.hexdigest(), "floats": floats}


def emit(checkout: Path) -> None:
    """Child mode: print ``{guard: {sql: hash}, "streams": {sql:
    [emission]}}`` for ``checkout``."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "benchmarks" / "e2e")]
    import numpy as np
    import streams
    import workloads

    sqls = stream_sqls(streams)
    out: Dict[str, dict] = {}
    for guard in (True, False):
        system = workloads.set_up()
        out[str(guard)] = {
            sql: digest(system.answer(sql, guard=None if guard else False))
            for sql in sqls
        }
    system = workloads.set_up()
    out["streams"] = {
        sql: [
            emission_record(answer)
            for answer in system.sql_stream(
                sql, chunk_rows=CHUNK_ROWS, rng=np.random.default_rng(SEED)
            )
        ]
        for sql in streams.session_templates()
    }
    json.dump(out, sys.stdout)


def stream_difference(parent: List[dict], change: List[dict]) -> Dict[str, float]:
    """Largest relative difference per differing float column of two
    streams, or ``{"structure": inf}`` when they differ in anything
    else (emission count, a non-float column, rows seen, provenance)."""
    if len(parent) != len(change):
        return {"structure": float("inf")}
    worst: Dict[str, float] = {}
    for before, after in zip(parent, change):
        if before["digest"] == after["digest"]:
            continue
        if before["floats"].keys() != after["floats"].keys():
            return {"structure": float("inf")}
        differs = False
        for name, old in before["floats"].items():
            new = after["floats"][name]
            if len(old) != len(new):
                return {"structure": float("inf")}
            relative = max(map(relative_difference, old, new), default=0.0)
            if relative:
                differs = True
                worst[name] = max(worst.get(name, 0.0), relative)
        if not differs:  # same floats, so something else changed
            return {"structure": float("inf")}
    return worst


def relative_difference(a: float, b: float) -> float:
    """``|a - b| / max(|a|, |b|)``; two NaNs are equal, one is infinitely
    far from any number."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return float("inf")
    return abs(a - b) / max(abs(a), abs(b))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--dir", help="where checkouts go (kept); default: a temp dir")
    parser.add_argument("--emit", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        emit(Path(args.emit))
        return 0
    if not (args.parent and args.change):
        parser.error("PARENT and CHANGE are required")

    with tempfile.TemporaryDirectory(prefix="answer_digest-") as scratch:
        work = Path(args.dir or scratch)
        digests = {}
        for side in SIDES:
            checkout = work / side
            unpack(getattr(args, side), checkout)
            child = subprocess.run(
                [sys.executable, __file__, "--emit", str(checkout)],
                capture_output=True, text=True,
            )
            if child.returncode:
                sys.exit(f"answer_digest: {side} failed:\n{child.stderr}")
            digests[side] = json.loads(child.stdout)

    differing = 0
    parent_streams = digests["parent"].pop("streams")
    change_streams = digests["change"].pop("streams")
    for guard, parent in digests["parent"].items():
        change = digests["change"][guard]
        for sql in sorted(set(parent) | set(change)):
            if parent.get(sql) != change.get(sql):
                differing += 1
                print(f"differs (guard={guard}): {sql}")
        print(f"guard={guard}: {len(parent)} answers compared")
    print(f"differing answers: {differing}")

    streams_differing = beyond = 0
    for sql in sorted(set(parent_streams) | set(change_streams)):
        worst = stream_difference(
            parent_streams.get(sql, []), change_streams.get(sql, [])
        )
        if not worst:
            continue
        streams_differing += 1
        beyond += any(value > STREAM_TOLERANCE for value in worst.values())
        detail = ", ".join(f"{name} {value:.3g}" for name, value in worst.items())
        print(f"stream differs ({detail}): {sql}")
    print(f"streams: {len(parent_streams)} compared")
    print(f"differing streams: {streams_differing} ({beyond} beyond {STREAM_TOLERANCE:g})")
    return 1 if differing or beyond else 0


if __name__ == "__main__":
    sys.exit(main())
