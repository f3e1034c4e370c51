"""The repo's end-to-end benchmark: one command, every metric.

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds N]
                                  [--trace [0|1]] [--smoke] [--label L]

Every workload runs in fresh worker processes (``worker.py``), every
result is verified against a reference the benchmark computes itself
(``specs.py``), and every metric is printed by name with its unit and
sample count.  The last line of standard output is one JSON object; with
``--workload`` it has exactly the keys ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  README.md explains the sampling
design and what each metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

import record
from common import (
    E2E_UNITS,
    HERE,
    MIN_ROUNDS,
    OUT_DIR,
    PER_LAYER,
    SRC,
    WORKLOADS,
    format_table,
    low_decile,
    pool_samples,
    stratified,
    thread_count,
)
from tracing import write_chrome_trace

TIMINGS = ("compile_cold_s", "compile_warm_ms", "first_result_s", "exec_ms")
#: import-time probes per workload, besides the passes' own imports
IMPORT_PROBES = 6
DEFAULT_SECONDS = 20


def worker_env(workdir: str) -> Dict[str, str]:
    env = dict(os.environ)
    threads = str(thread_count())
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = threads
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # bytecode is cached under out/, whatever the caller's settings: the
    # import time measured is a warm-cache import, as users mostly see
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT_DIR, "pycache")
    env["TMPDIR"] = workdir  # compiler and tempfile scratch stay in here
    return env


def run_worker(
    workload: str, mode: str, seed: int, seconds: float, smoke: bool,
    workdir: str, env: Dict[str, str],
) -> dict:
    """One pass in a fresh process; returns the JSON it wrote."""
    out = os.path.join(workdir, f"pass-{workload}-{mode}.json")
    if os.path.exists(out):
        os.remove(out)
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--mode", mode, "--seed", str(seed),
        "--seconds", str(seconds), "--smoke", str(int(smoke)),
        "--workdir", workdir, "--out", out,
    ]
    try:
        done = subprocess.run(command, env=env, timeout=seconds + 150)
    except subprocess.TimeoutExpired:
        return {"crashed": f"{workload} {mode} pass timed out"}
    if done.returncode != 0 or not os.path.exists(out):
        return {"crashed": f"{workload} {mode} pass exited with {done.returncode}"}
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def summarise(
    workload: str, passes: Sequence[dict], imports: Sequence[float],
    seconds: float, smoke: bool,
) -> dict:
    """Pool the timed passes of one workload into its end-to-end metrics."""
    pooled = pool_samples([p["samples"] for p in passes])
    rounds = sum(p["rounds"] for p in passes)
    needed = 1 if smoke else max(1, int(MIN_ROUNDS * min(1.0, seconds / DEFAULT_SECONDS)))
    summary: dict = {
        "workload": workload,
        "rounds": rounds,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "errors": [e for p in passes for e in p["errors"]],
        "machine": passes[0]["machine"],
    }
    missing = [s for s in TIMINGS + ("setup_s",) if s not in pooled]
    if rounds < needed or missing:
        summary["invalid"] = (
            f"{rounds} rounds (need {needed}), missing samples: {missing}"
        )
        return summary
    e2e = {"setup_s": low_decile(imports) + stratified(pooled["setup_s"], 0.10)}
    for series in TIMINGS:
        e2e[series] = stratified(pooled[series], 0.10)
    e2e["peak_rss_mb"] = max(p["rss_mb"] for p in passes)
    summary["e2e"] = e2e
    summary["samples_n"] = {
        "setup_s": len(imports),
        "peak_rss_mb": len(passes),
        **{s: sum(len(v) for v in pooled[s].values()) for s in TIMINGS},
    }
    diag = {
        "harness.import_ms": 1e3 * low_decile(imports),
        "harness.matmul_ms": stratified(pooled["matmul_ms"], 0.5),
        "harness.reference_s": max(p["reference_s"] for p in passes),
        "harness.rounds": float(rounds),
    }
    for series in TIMINGS:
        diag[f"spread.{series}_median"] = stratified(pooled[series], 0.5)
        diag[f"spread.{series}_p90"] = stratified(pooled[series], 0.9)
    summary["diag"] = diag
    return summary


def layer_metrics(summary: dict, timed: Sequence[dict], traced: dict) -> Dict[str, float]:
    """Every per-layer metric of one workload; 0 where a layer is bypassed."""
    layer = dict(traced["layer"])
    e2e = summary["e2e"]
    values = {name: float(layer.get(name, 0.0)) for name, _ in PER_LAYER}
    values.update(summary["diag"])
    values["kernels.arena_allocs_steady"] += sum(
        p["arena_allocs_steady"] for p in timed
    )
    lookups = values["store.hits"] + values["store.misses"]
    values["store.hit_ratio"] = values["store.hits"] / lookups if lookups else 0.0
    specs_replayed = layer.get("_stage_specs", 1)
    values["trace.coverage"] = (
        layer["_stage_self_ms"] / 1e3 / (e2e["compile_cold_s"] * specs_replayed)
    )
    against = layer["_overhead_against"]
    untraced_ms = e2e[against] * (1e3 if against.endswith("_s") else 1.0)
    values["trace.overhead_share"] = layer["_first_result_ms"] / untraced_ms - 1.0
    return values


def print_workload(summary: dict, layer: Optional[Dict[str, float]]) -> None:
    print(f"\n== {summary['workload']} ==")
    if "skipped" in summary:
        print(f"skipped: {summary['skipped']}")
        return
    if "invalid" in summary:
        print(f"invalid run, nothing reported: {summary['invalid']}")
        for error in summary.get("errors", [])[:5]:
            print(f"  error: {error}")
        return
    rows = [
        [name, summary["e2e"][name], unit, summary["samples_n"][name]]
        for name, unit in E2E_UNITS.items()
    ]
    print(format_table(["end-to-end metric", "value", "unit", "samples"], rows))
    print(
        f"ops_attempted: {summary['attempted']}  ops_failed: {summary['failed']}  "
        f"rounds: {summary['rounds']}  deterministic: "
        f"{'true' if summary['deterministic'] else 'false'}"
    )
    for error in summary["errors"][:5]:
        print(f"  error: {error}")
    shown = layer if layer is not None else summary["diag"]
    units = dict(PER_LAYER)
    rows = [[name, shown[name], units[name]] for name, _ in PER_LAYER if name in shown]
    print(format_table(["per-layer metric", "value", "unit"], rows))


def contract_line(summary: dict, layer: Optional[Dict[str, float]]) -> dict:
    """The result object the benchmark contract asks for."""
    if layer is not None:
        units = dict(PER_LAYER)
        metrics = {n: {"value": v, "unit": units[n]} for n, v in layer.items()}
    else:
        metrics = {
            n: {"value": summary["e2e"][n], "unit": u} for n, u in E2E_UNITS.items()
        }
    return {
        "correct": summary["failed"] == 0 and summary["deterministic"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def run(args: argparse.Namespace) -> int:
    if not os.path.isdir(SRC):
        print(f"error: no program to measure: {SRC} does not exist", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    env = worker_env(workdir)
    timed: Dict[str, List[dict]] = {w: [] for w in workloads}
    traced: Dict[str, dict] = {}
    imports: Dict[str, List[float]] = {w: [] for w in workloads}
    stopped: Dict[str, dict] = {}  # skipped or crashed workloads
    try:
        # the timed window of a workload is split in two passes, taken in
        # turn with the other workloads (A B C D E A B C D E), so that a
        # neighbour's busy phase cannot cover a whole workload; a traced
        # run gives the second half to the traced rounds instead
        first, second = ("timed", "traced") if args.trace else ("timed", "timed")
        schedule = [(w, first) for w in workloads] + [(w, second) for w in workloads]
        if args.smoke and not args.trace:
            schedule = schedule[: len(workloads)]
        for workload, mode in schedule:
            if workload in stopped:
                continue
            if mode == "timed" and not imports[workload] and not args.smoke:
                for _ in range(IMPORT_PROBES):
                    probe = run_worker(workload, "import", args.seed, 0, False, workdir, env)
                    if "import_s" in probe:
                        imports[workload].append(probe["import_s"])
            result = run_worker(
                workload, mode, args.seed, args.seconds / 2, args.smoke, workdir, env
            )
            if "skipped" in result or "crashed" in result:
                stopped[workload] = result
            elif mode == "timed":
                timed[workload].append(result)
                imports[workload].append(result["import_s"])
            else:
                traced[workload] = result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results: Dict[str, dict] = {}
    layers: Dict[str, Dict[str, float]] = {}
    for workload in workloads:
        if workload in stopped:
            reason = stopped[workload].get("skipped") or stopped[workload]["crashed"]
            key = "skipped" if "skipped" in stopped[workload] else "invalid"
            results[workload] = {"workload": workload, key: reason}
            continue
        passes = timed[workload] + ([traced[workload]] if workload in traced else [])
        summary = summarise(
            workload, timed[workload], imports[workload],
            args.seconds / 2 * len(timed[workload]), args.smoke,
        )
        if workload in traced:
            summary["attempted"] += traced[workload]["attempted"]
            summary["failed"] += traced[workload]["failed"]
            summary["errors"] += traced[workload]["errors"]
        # two fresh processes with one seed must agree on every exact count
        summary["deterministic"] = all(
            p["counts"] == passes[0]["counts"] and p["counts"] for p in passes
        )
        summary["counts"] = passes[0]["counts"]
        if "invalid" not in summary and workload in traced:
            layers[workload] = layer_metrics(summary, timed[workload], traced[workload])
        results[workload] = summary

    for workload in workloads:
        print_workload(results[workload], layers.get(workload))
    if traced:
        path = os.path.join(OUT_DIR, "trace.json")
        write_chrome_trace(path, {w: t["spans"] for w, t in traced.items()})
        print(f"\nspans written to {os.path.relpath(path)}")
    record.append_run(results, args, layers)

    failed = any(
        "invalid" in r or r.get("failed", 0) or not r.get("deterministic", True)
        for r in results.values()
    )
    if args.workload:
        summary = results[args.workload]
        if "skipped" in summary or "invalid" in summary:
            return 3  # never a pass: no result line
        print(json.dumps(contract_line(summary, layers.get(args.workload))))
    else:
        print(json.dumps({
            name: (
                contract_line(r, layers.get(name))
                if "e2e" in r
                else {k: r[k] for k in ("skipped", "invalid") if k in r}
            )
            for name, r in results.items()
        }))
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all five")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS,
        help="timed window per workload (default %(default)s)",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="also run traced rounds: per-layer metrics and out/trace.json",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="2 rounds at reduced extents: same code path and checks, < 30 s",
    )
    parser.add_argument(
        "--label", help="name of the set this run belongs to in history.jsonl "
        "(default: the git commit)",
    )
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
