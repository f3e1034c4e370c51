"""Smoke test of the benchmark itself: ``PYTHONPATH=src pytest benchmarks/e2e``.

Runs the real command at reduced extents (``--smoke``: two rounds per
workload, same code path and checks) and holds ``BENCHMARK.json`` to the
names the code reports, so the two cannot drift apart.
"""

import json
import os
import subprocess
import sys

from common import BENCHMARK_JSON, E2E_UNITS, HERE, OUT_DIR, PER_LAYER, WORKLOADS


def run_benchmark(*argv):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *argv],
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


def test_benchmark_json_names_what_the_code_reports():
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_smoke_run_verifies_and_traces_every_workload():
    last, stdout = run_benchmark("--smoke", "--trace", "1")
    assert set(last) == set(WORKLOADS)
    for name, result in last.items():
        if "skipped" in result:  # e.g. no C compiler: recorded, never a pass
            assert f"skipped: {result['skipped']}" in stdout
            continue
        assert result["correct"] is True, name
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {n for n, _ in PER_LAYER}
        assert result["metrics"]["kernels.arena_allocs_steady"]["value"] == 0
    assert "deterministic: false" not in stdout
    with open(os.path.join(OUT_DIR, "trace.json"), encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    assert any(e.get("name") == "opmin.optimize" for e in events)


def test_single_workload_result_line_follows_the_contract():
    last, _ = run_benchmark("--smoke", "--workload", "ccsd_dense", "--seed", "7")
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == set(E2E_UNITS)
    for name, metric in last["metrics"].items():
        assert metric["unit"] == E2E_UNITS[name] and metric["value"] > 0
