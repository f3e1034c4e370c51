"""Stamp every run and append it to ``history.jsonl``.

A number without the commit, machine and core count that produced it is
a snapshot; with them it is a point on a trajectory.  Each run becomes
one JSON line carrying the schema version, git sha and dirty flag, the
machine signature (``repro.autotune.db.machine_signature()``: cpu
count, modelled capacities, numpy version, compiler identity, read in
the worker), ``nproc``, ``T``, the numpy/OpenBLAS versions, the seed and
the UTC time.  Lines are only ever appended.
"""

from __future__ import annotations

import datetime
import json
import os
import subprocess
from typing import Dict, List, Optional

from common import HISTORY, REPO_ROOT, SCHEMA_VERSION


def git_state() -> Dict[str, object]:
    """``{"sha", "dirty"}`` of the checkout (``sha`` None outside git)."""
    def git(*argv: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ["git", *argv], cwd=REPO_ROOT, capture_output=True, text=True,
                timeout=30, check=False,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    return {"sha": sha, "dirty": bool(status)}


def append_run(results: Dict[str, dict], args, layers: Dict[str, dict]) -> dict:
    """Append one record for this run; returns it."""
    git = git_state()
    label = args.label
    if label is None:
        label = (git["sha"] or "no-git")[:12] + ("+dirty" if git["dirty"] else "")
    machine = next(
        (r["machine"] for r in results.values() if "machine" in r), None
    )
    workloads: Dict[str, dict] = {}
    for name, result in results.items():
        if "e2e" not in result:
            # a workload that could not run is recorded as such, never as a pass
            workloads[name] = {
                k: result[k] for k in ("skipped", "invalid") if k in result
            }
            continue
        workloads[name] = {
            "e2e": result["e2e"],
            "diag": result["diag"],
            "samples_n": result["samples_n"],
            "rounds": result["rounds"],
            "ops_attempted": result["attempted"],
            "ops_failed": result["failed"],
            "deterministic": result["deterministic"],
            "counts": result["counts"],
        }
        if name in layers:
            workloads[name]["layer"] = layers[name]
    entry = {
        "schema": SCHEMA_VERSION,
        "label": label,
        "git": git,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": bool(args.smoke),
        "trace": bool(args.trace),
        "machine": machine,
        "workloads": workloads,
    }
    with open(HISTORY, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def load_history(path: str = HISTORY) -> List[dict]:
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]
