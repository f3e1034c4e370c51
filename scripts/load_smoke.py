#!/usr/bin/env python
"""Load smoke test of the compilation service.

Boots a :class:`~repro.server.app.ReproServer` in-process and drives a
mixed cold/warm request stream through real HTTP: a handful of
distinct specifications (the cold set, each synthesized once) repeated
across the remaining requests (the warm set, served from the plan
cache), with a slice of execute requests exercising the warm SPMD
pool.  Prints p50/p95/p99 latency and the warm hit rate, and exits
nonzero when the warm hit rate falls below the floor -- CI runs this
as the serving regression gate.

With ``--chaos`` the execute slice runs on the process backend with a
``kill_worker@0`` :class:`~repro.robustness.faults.ChaosSchedule`
attached -- a worker is killed out from under every execute -- and the
gate shifts to the fault-tolerance contract: zero wrong results (every
200 matches the clean-run checksum), every failure structured JSON,
and overall success above ``--min-success`` (default 99%).

Usage::

    PYTHONPATH=src python scripts/load_smoke.py --requests 200
    PYTHONPATH=src python scripts/load_smoke.py --requests 200 --chaos
"""

from __future__ import annotations

import argparse
import asyncio
import os
import statistics
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.server.app import ReproServer, ServerConfig  # noqa: E402
from repro.server.client import arequest  # noqa: E402

PROGRAM_TEMPLATE = """
range N = {n};
index i, j, k : N;
tensor A(i, k);
tensor B(k, j);
C{n}(i, j) = sum(k) A(i, k) * B(k, j);
"""

#: distinct cold specifications; every other request repeats one of
#: these and must be served warm
COLD_SET = [PROGRAM_TEMPLATE.format(n=n) for n in range(8, 24, 2)]

#: the execute slice sums over a long index: on the process grid the
#: plan splits the sum, so the ranks communicate and ``--chaos`` has a
#: ``go`` command to kill a worker on (a square matmul only places its
#: inputs and runs inside the ``load``)
EXECUTE_PROGRAM = """
range N = 16; range K = 256;
index i, j : N; index k : K;
tensor A(i, k);
tensor B(k, j);
C16(i, j) = sum(k) A(i, k) * B(k, j);
"""


def _percentile(samples, q):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def _execute_payload(chaos):
    payload = {
        "program": EXECUTE_PROGRAM,
        "options": {"grid": 2},
        "result": "checksum",
        "seed": 0,
    }
    if chaos:
        payload["backend"] = "process"
        payload["chaos"] = "kill_worker@0"
    return payload


async def drive(app, host, port, total, execute_every, chaos=False):
    latencies_ms = []
    outcomes = []
    faults = {"ok": 0, "failed": 0, "wrong": 0, "unstructured": 0}
    substrates = set()
    reference = None
    if chaos:
        # clean-run checksum: the correctness oracle for recovered runs
        clean = dict(_execute_payload(True))
        del clean["chaos"]
        status, body = await arequest(
            host, port, "POST", "/v1/execute", clean
        )
        if status != 200:
            raise SystemExit(f"reference execute failed: {status} {body}")
        reference = body["outputs"]["C16"]
    for i in range(total):
        if execute_every and i % execute_every == execute_every - 1:
            path, payload = "/v1/execute", _execute_payload(chaos)
        else:
            path, payload = "/v1/synthesize", {
                "program": COLD_SET[i % len(COLD_SET)],
            }
        t0 = time.perf_counter()
        try:
            status, body = await arequest(host, port, "POST", path, payload)
        except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
            if not chaos:
                raise
            faults["failed"] += 1
            faults["unstructured"] += 1
            print(f"  request {i} ({path}): transport error {exc!r}")
            continue
        latencies_ms.append((time.perf_counter() - t0) * 1e3)
        if status != 200:
            if not chaos:
                raise SystemExit(
                    f"request {i} ({path}) failed: {status} {body}"
                )
            faults["failed"] += 1
            if "error" not in body:
                faults["unstructured"] += 1
            continue
        if path == "/v1/execute":
            substrates.add(body["backend"])
            if chaos and body["outputs"]["C16"] != reference:
                faults["wrong"] += 1
                continue
        faults["ok"] += 1
        outcomes.append(body["cached"])
    return latencies_ms, outcomes, faults, sorted(substrates)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument(
        "--execute-every", type=int, default=10,
        help="every Nth request is an execute (0 disables)",
    )
    parser.add_argument(
        "--min-warm-rate", type=float, default=0.90,
        help="fail when the warm hit rate drops below this",
    )
    parser.add_argument(
        "--chaos", action="store_true",
        help="kill a worker under every execute; gate on the "
        "fault-tolerance contract instead of raising on failures",
    )
    parser.add_argument(
        "--min-success", type=float, default=0.99,
        help="with --chaos, fail when the success rate drops below this",
    )
    args = parser.parse_args(argv)
    if args.requests < len(COLD_SET) * 2:
        print(
            f"error: need at least {len(COLD_SET) * 2} requests",
            file=sys.stderr,
        )
        return 2
    if args.chaos and not args.execute_every:
        print(
            "error: --chaos needs an execute slice (--execute-every > 0)",
            file=sys.stderr,
        )
        return 2

    async def run():
        app = ReproServer(ServerConfig(port=0))
        await app.start()
        try:
            result = await drive(
                app, app.host, app.port, args.requests,
                args.execute_every, chaos=args.chaos,
            )
            _, stats = await arequest(
                app.host, app.port, "GET", "/healthz"
            )
            return result, stats
        finally:
            await app.stop()

    started = time.perf_counter()
    (latencies_ms, outcomes, faults, substrates), stats = asyncio.run(run())
    wall_s = time.perf_counter() - started

    warm = sum(1 for outcome in outcomes if outcome in ("memory", "disk"))
    warm_rate = warm / len(outcomes)
    p50 = statistics.median(latencies_ms)
    p95 = _percentile(latencies_ms, 0.95)
    p99 = _percentile(latencies_ms, 0.99)
    success_rate = faults["ok"] / args.requests
    rows = [
        ["requests", args.requests],
        ["distinct specs (cold)", len(COLD_SET)],
        ["warm hit rate", f"{warm_rate:.1%}"],
        ["p50 ms", f"{p50:.2f}"],
        ["p95 ms", f"{p95:.2f}"],
        ["p99 ms", f"{p99:.2f}"],
        ["wall s", f"{wall_s:.2f}"],
        ["pool reuse", stats["pools"]["reused"]],
    ]
    if not args.chaos:
        # which substrate the execute slice ran on, as the service
        # reports it ("process" on the warm pool for this gridded spec)
        rows.append(["execute substrate", ", ".join(substrates) or "none"])
    if args.chaos:
        rows += [
            ["success rate", f"{success_rate:.1%}"],
            ["wrong results", faults["wrong"]],
            ["unstructured failures", faults["unstructured"]],
            ["pool respawns", stats["pools"]["respawned"]],
        ]
    width = max(len(str(label)) for label, _ in rows)
    mode = "chaos (kill_worker under every execute)" if args.chaos else (
        "mixed cold/warm stream over HTTP"
    )
    print(f"load smoke: {mode}")
    for label, value in rows:
        print(f"  {label:<{width}}  {value}")
    failures = []
    if warm_rate < args.min_warm_rate:
        failures.append(
            f"warm hit rate {warm_rate:.1%} < {args.min_warm_rate:.0%}"
        )
    if args.chaos:
        if faults["wrong"]:
            failures.append(
                f"{faults['wrong']} recovered execute(s) returned "
                "WRONG results"
            )
        if faults["unstructured"]:
            failures.append(
                f"{faults['unstructured']} failure(s) were not "
                "structured JSON"
            )
        if success_rate < args.min_success:
            failures.append(
                f"success rate {success_rate:.1%} < "
                f"{args.min_success:.0%}"
            )
        if not stats["pools"]["respawned"]:
            failures.append("chaos never fired (no pool respawns)")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"OK: warm hit rate {warm_rate:.1%}"
        + (f", chaos success rate {success_rate:.1%}" if args.chaos else "")
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
