"""Check that two commits answer every benchmark query byte-identically.

    python3 benchmarks/answer_digest.py PARENT CHANGE [--dir DIR]

Both commits are unpacked as ``ab_gate.py`` unpacks them (``git archive``).
In each, a child process builds the benchmark's system
(``benchmarks/e2e/workloads.set_up``) and answers, in stream order, every
distinct SQL of the five workload streams at 1/20 scale (seed 0), then
``session_templates()``: once with the default guard, once with
``guard=False``, each on a fresh system.  Every answer is hashed over its
schema, dtypes, values (``_error`` and provenance columns included), row
order, cache tier and ``reused_from``.  The script prints each SQL whose
hash differs and exits non-zero if any does.  Stdlib only; it reads
``benchmarks/e2e`` and changes nothing there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

from ab_gate import SIDES, unpack

SCALE = 1 / 20
SEED = 0


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


def emit(checkout: Path) -> None:
    """Child mode: print ``{guard: {sql: hash}}`` for ``checkout``."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "benchmarks" / "e2e")]
    import streams
    import workloads

    sqls = stream_sqls(streams)
    out: Dict[str, Dict[str, str]] = {}
    for guard in (True, False):
        system = workloads.set_up()
        out[str(guard)] = {
            sql: digest(system.answer(sql, guard=None if guard else False))
            for sql in sqls
        }
    json.dump(out, sys.stdout)


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
    for guard, parent in digests["parent"].items():
        change = digests["change"][guard]
        for sql in sorted(set(parent) | set(change)):
            if parent.get(sql) != change.get(sql):
                differing += 1
                print(f"differs (guard={guard}): {sql}")
        print(f"guard={guard}: {len(parent)} answers compared")
    print(f"differing answers: {differing}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
