"""Smoke test of the benchmark harness (``--quick``: counts / 20).

Not collected by tier-1 (``testpaths = ["tests"]``); run it explicitly:

    python3 -m pytest benchmarks/e2e/test_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
# the end-to-end metrics a run prints beside BENCHMARK.json's (compare.SCOPED)
SCOPED = {
    "cold_groupby": {"exact_ms_p50": "ms"},
    "cold_point": {"exact_ms_p50": "ms"},
    "ingest_mix": {"insert_rows_per_s": "rows/s", "refresh_ms_p50": "ms"},
}


def _run(*args):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_quick_run_prints_every_metric(tmp_path):
    out = tmp_path / "quick.json"
    _run("--quick", "--trace", "--out", str(out))
    records = json.loads(out.read_text())
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert sorted((r["workload"], r["trace"]) for r in records) == sorted(
        (w, t) for w in workloads for t in (0, 1)
    )
    for record in records:
        assert record["correct"], (record["workload"], record["failures"])
        assert record["failed"] == 0
        section = "per_layer" if record["trace"] else "end_to_end"
        listed = {metric["name"]: metric["unit"] for metric in SPEC[section]}
        if not record["trace"]:
            listed.update(SCOPED.get(record["workload"], {}), answer_ms_p90="ms")
        assert {
            name: metric["unit"] for name, metric in record["metrics"].items()
        } == listed
        if record["trace"]:
            assert record["metrics"]["aqua.shell_ms"]["value"] >= 0
            assert (HERE.parents[1] / record["notes"]["spans_file"]).stat().st_size
        else:
            assert all(m["value"] != 0 for m in record["metrics"].values())


def test_contract_line_and_determinism():
    args = ("--workload", "warm_session", "--seed", "3", "--quick", "--full-record")
    first, second = (json.loads(_run(*args)[-1]) for __ in range(2))
    assert first["stream_sha"] == second["stream_sha"]
    assert first["notes"]["exact_counts"] == second["notes"]["exact_counts"]
    for name in ("rel_error_mean_pct", "bound_coverage"):
        assert first["metrics"][name] == second["metrics"][name]
    line = json.loads(_run(*args[:-1])[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]


def test_contract_line_holds_the_listed_metrics_only():
    line = json.loads(_run("--workload", "ingest_mix", "--quick")[-1])
    assert sorted(line["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])


def _record(failed):
    return {
        "workload": "cold_point", "trace": 0, "stream_sha": "s", "correct": not failed,
        "attempted": 1211, "failed": failed,
        "failures": {"RecursionError": failed} if failed else {},
        "metrics": {
            m["name"]: {"value": 1.0 - failed / 1211 if m["name"] == "ok_ops_share" else 1.0}
            for m in SPEC["end_to_end"]
        },
        "notes": {"exact_counts": {}},
    }


def test_compare_fails_on_one_failed_op(tmp_path):
    files = {}
    for name, failed in (("a", 0), ("b", 1)):
        records = [dict(_record(failed if w["name"] == "cold_point" else 0), workload=w["name"])
                   for w in SPEC["workloads"]]
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(records))
    compare = [sys.executable, str(HERE / "compare.py")]
    same = subprocess.run(compare + [str(files["a"])] * 2, capture_output=True, text=True)
    assert same.returncode == 0, same.stdout
    worse = subprocess.run(
        compare + [str(files["a"]), str(files["b"])], capture_output=True, text=True
    )
    assert worse.returncode == 1
    assert "RecursionError" in worse.stdout
