"""Compare two sets of benchmark runs, or check the benchmark against itself.

    python3 benchmarks/e2e/compare.py A B
    python3 benchmarks/e2e/compare.py --self-check N

``A`` and ``B`` are labels in ``history.jsonl`` (``run.py --label``; by
default a run is labelled with its git commit).  One row per workload x
end-to-end metric: both sets' medians and quartiles, the ratio B / A,
the bound from ``BENCHMARK.json``, and a verdict:

* ``worse``      B's median is worse than A's by more than the bound;
* ``unresolved`` the spread of either set (quartile distance / median)
  is wider than the bound, or the two sets ran on a machine in different
  states (``harness.matmul_ms`` medians differ by more than 10 %) --
  unless every run of B reads better than every run of A;
* ``ok``         otherwise.

The exit code is non-zero when any row is ``worse``.  ``--self-check N``
runs two interleaved sets of N >= 5 runs of the working tree (A/A) and
requires every row to be ``ok``: it is the check the bounds in
``BENCHMARK.json`` were derived from.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

from common import BENCHMARK_JSON, E2E_UNITS, HERE, WORKLOADS, format_table
from record import load_history

MATMUL_DRIFT = 0.10


def bounds() -> Dict[str, float]:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def quartiles(values: Sequence[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def runs_of(history: Sequence[dict], label: str) -> List[dict]:
    runs = [
        r for r in history
        if r["label"] == label and not r["smoke"]
    ]
    if not runs:
        raise SystemExit(f"no full runs labelled {label!r} in history.jsonl")
    return runs


def column(runs: Sequence[dict], workload: str, group: str, metric: str) -> List[float]:
    return [
        r["workloads"][workload][group][metric]
        for r in runs
        if group in r["workloads"].get(workload, {})
    ]


def compare(a_runs: Sequence[dict], b_runs: Sequence[dict]) -> List[dict]:
    limit = bounds()
    rows: List[dict] = []
    for workload in WORKLOADS:
        mm_a = column(a_runs, workload, "diag", "harness.matmul_ms")
        mm_b = column(b_runs, workload, "diag", "harness.matmul_ms")
        if not mm_a or not mm_b:
            rows.append({"workload": workload, "metric": "-", "verdict": "skipped"})
            continue
        drift = statistics.median(mm_b) / statistics.median(mm_a) - 1.0
        for metric in E2E_UNITS:
            a = column(a_runs, workload, "e2e", metric)
            b = column(b_runs, workload, "e2e", metric)
            qa, qb = quartiles(a), quartiles(b)
            spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
            ratio = qb[1] / qa[1]
            bound = limit[metric]
            if ratio > 1.0 + bound:
                verdict = "worse"
            elif (spread > bound or abs(drift) > MATMUL_DRIFT) and not max(b) < min(a):
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": metric,
                "a": qa, "b": qb, "n": (len(a), len(b)), "ratio": ratio,
                "spread": spread,
                "range": max(
                    (max(a) - min(a)) / qa[1], (max(b) - min(b)) / qb[1]
                ),
                "matmul_drift": drift, "bound": bound, "verdict": verdict,
            })
    return rows


def render(rows: Sequence[dict], a: str, b: str) -> str:
    table = []
    for row in rows:
        if row["verdict"] == "skipped":
            table.append([row["workload"], "-", "-", "-", "-", "-", "-", "-", "skipped"])
            continue
        qa, qb = row["a"], row["b"]
        table.append([
            row["workload"], row["metric"],
            f"{qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}]",
            f"{qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}]",
            f"{row['ratio']:.3f} (of {qa[1]:.5g})",
            f"{row['spread']:.3f}", f"{row['range']:.3f}", f"{row['bound']:.2f}",
            row["verdict"],
        ])
    headers = [
        "workload", "metric", f"A={a} median [q1, q3]", f"B={b} median [q1, q3]",
        "B/A (base)", "iqr/med", "range/med", "bound", "verdict",
    ]
    return format_table(headers, table)


def self_check(n: int) -> int:
    """Two interleaved sets of ``n`` runs of the working tree."""
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    labels = (f"selfcheck-{stamp}-A", f"selfcheck-{stamp}-B")
    for k in range(n):
        for side, label in enumerate(labels):
            command = [
                sys.executable, os.path.join(HERE, "run.py"),
                "--seed", str(1 + k + side * n), "--label", label,
            ]
            done = subprocess.run(command, stdout=subprocess.DEVNULL, check=False)
            print(f"run {k + 1}/{n} of {label}: exit {done.returncode}", flush=True)
            if done.returncode != 0:
                return done.returncode
    history = load_history()
    rows = compare(runs_of(history, labels[0]), runs_of(history, labels[1]))
    print(render(rows, "A", "B"))
    return 0 if all(r["verdict"] in ("ok", "skipped") for r in rows) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("labels", nargs="*", metavar="LABEL", help="A B")
    parser.add_argument("--self-check", type=int, metavar="N")
    args = parser.parse_args(argv)
    if args.self_check is not None:
        if args.self_check < 5 or args.labels:
            parser.error("--self-check takes N >= 5 and no labels")
        return self_check(args.self_check)
    if len(args.labels) != 2:
        parser.error("give two labels, A and B")
    history = load_history()
    rows = compare(runs_of(history, args.labels[0]), runs_of(history, args.labels[1]))
    print(render(rows, *args.labels))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
