"""E22 -- availability and tail latency under process-level chaos.

The serving runtime's fault-tolerance claim (``docs/architecture.md``
section 13) is quantitative: with workers being killed out from under
it, the service must keep serving -- correct results, bounded tails,
structured degradation.  This experiment drives a mixed HTTP load
against a live :class:`~repro.server.app.ReproServer` while a
:class:`~repro.robustness.faults.ChaosSchedule` kills a worker every
~10th execution, and measures what a client actually sees.

Acceptance (the ISSUE 7 chaos criteria):

* **zero wrong results** -- every 200 carries the exact clean-run
  checksum (recovery is respawn + bit-identical statement retry,
  so a survivor's answer is never approximate);
* **availability >= 99%** over the mixed load (``E22_MIN_SUCCESS``
  overrides on noisy runners);
* every non-200 is a **structured** JSON error (an ``error`` field),
  never a raw traceback or a hung connection;
* a hung worker is bounded by the **recv watchdog**: hang-injected
  requests complete within watchdog x retries plus slack, not the
  300s a blocked ``recv`` would cost.

Environment knobs: ``E22_REQUESTS`` (default 200) scales the load for
smoke runs; ``E22_KILL_EVERY`` (default 10) sets the kill cadence.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import time

from repro.server.app import ReproServer, ServerConfig
from repro.server.client import arequest

#: a long summed index: the 2x2 plan splits the sum, so every execution
#: posts ``go`` commands for the chaos schedule to bite on (a square
#: matmul only places its inputs and runs inside the ``load``)
MATMUL = """
range N = 16; range K = 256;
index i, j : N; index k : K;
tensor A(i, k);
tensor B(k, j);
C(i, j) = sum(k) A(i, k) * B(k, j);
"""

#: a second program so the load is mixed, not one hot cache line
CHAIN = """
range N = 8;
index i, j, k, l : N;
tensor A(i, j);
tensor B(j, k);
tensor C(k, l);
D(i, l) = sum(j, k) A(i, j) * B(j, k) * C(k, l);
"""


def _serve(test, config=None):
    async def wrapper():
        app = ReproServer(config or ServerConfig(port=0))
        await app.start()
        try:
            return await test(app, app.host, app.port)
        finally:
            await app.stop()

    return asyncio.run(wrapper())


def _payload(program, seed, chaos=None):
    body = {
        "program": program,
        "options": {"grid": "2x2"},
        "backend": "process",
        "seed": seed,
        "result": "checksum",
    }
    if chaos:
        body["chaos"] = chaos
    return body


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    k = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[k]


def test_availability_under_worker_kills(record_rows):
    """200-request mixed load, kill_worker every ~10th execution: the
    availability floor, the zero-wrong-results bar, and the chaos tax
    on the tail."""
    n_requests = int(os.environ.get("E22_REQUESTS", "200"))
    kill_every = int(os.environ.get("E22_KILL_EVERY", "10"))
    programs = [(MATMUL, "C"), (CHAIN, "D")]

    async def run(app, host, port):
        # reference checksums from clean runs (the correctness oracle)
        reference = {}
        for program, out_name in programs:
            status, body = await arequest(
                host, port, "POST", "/v1/execute", _payload(program, 0)
            )
            assert status == 200
            reference[out_name] = body["outputs"][out_name]

        stats = {
            "ok": 0, "wrong": 0, "failed": 0, "unstructured": 0,
            "respawns": 0, "retried": 0,
        }
        lat_clean, lat_chaos = [], []
        for i in range(n_requests):
            program, out_name = programs[i % len(programs)]
            chaotic = i % kill_every == kill_every - 1
            chaos = "kill_worker@0" if chaotic else None
            t0 = time.perf_counter()
            try:
                status, body = await arequest(
                    host, port, "POST", "/v1/execute",
                    _payload(program, 0, chaos),
                )
            except (ConnectionError, OSError, asyncio.TimeoutError):
                stats["failed"] += 1
                stats["unstructured"] += 1
                continue
            elapsed = (time.perf_counter() - t0) * 1000.0
            (lat_chaos if chaotic else lat_clean).append(elapsed)
            if status == 200:
                if body["outputs"][out_name] == reference[out_name]:
                    stats["ok"] += 1
                else:
                    stats["wrong"] += 1
                stats["respawns"] += body["pool"].get("respawns", 0)
                stats["retried"] += body["pool"].get("retries", 0)
            else:
                stats["failed"] += 1
                if "error" not in body:
                    stats["unstructured"] += 1
        _, hz = await arequest(host, port, "GET", "/healthz")
        return stats, lat_clean, lat_chaos, hz

    stats, lat_clean, lat_chaos, hz = _serve(run)
    availability = stats["ok"] / n_requests
    record_rows(
        f"E22: availability under kill_worker every {kill_every}th "
        f"execution ({n_requests} requests)",
        ["series", "n", "p50 ms", "p99 ms"],
        [
            [
                "clean", len(lat_clean),
                f"{_percentile(lat_clean, 0.50):.1f}",
                f"{_percentile(lat_clean, 0.99):.1f}",
            ],
            [
                "chaos (kill_worker)", len(lat_chaos),
                f"{_percentile(lat_chaos, 0.50):.1f}",
                f"{_percentile(lat_chaos, 0.99):.1f}",
            ],
        ],
        metrics={
            "requests": n_requests,
            "availability": round(availability, 4),
            "wrong_results": stats["wrong"],
            "unstructured_failures": stats["unstructured"],
            "pool_respawns": stats["respawns"],
            "statements_retried": stats["retried"],
            "registry_respawned": hz["pools"]["respawned"],
            "clean_p99_ms": round(_percentile(lat_clean, 0.99), 1),
            "chaos_p99_ms": round(_percentile(lat_chaos, 0.99), 1),
        },
    )
    floor = float(os.environ.get("E22_MIN_SUCCESS", "0.99"))
    assert stats["wrong"] == 0, (
        f"{stats['wrong']} recovered requests returned WRONG results"
    )
    assert stats["unstructured"] == 0, (
        f"{stats['unstructured']} failures were not structured JSON"
    )
    assert availability >= floor, (
        f"availability {availability:.1%} under chaos < floor {floor:.0%}"
    )
    assert stats["respawns"] >= n_requests // kill_every, (
        "chaos did not actually fire (no respawns recorded)"
    )


def test_hung_worker_latency_bounded_by_watchdog(record_rows):
    """hang_worker requests are bounded by watchdog x (retries + 1),
    not by an unbounded blocking recv."""
    watchdog_s = 1.0
    n = 5
    config = ServerConfig(port=0, watchdog_timeout_s=watchdog_s)

    async def run(app, host, port):
        latencies = []
        for _ in range(n):
            t0 = time.perf_counter()
            status, body = await arequest(
                host, port, "POST", "/v1/execute",
                _payload(MATMUL, 1, chaos="hang_worker@0"),
            )
            latencies.append(time.perf_counter() - t0)
            assert status == 200
            assert body["pool"]["respawns"] >= 1
            assert any("watchdog" in note for note in body["notes"])
        return latencies

    latencies = _serve(run, config)
    worst = max(latencies)
    # one watchdog expiry + respawned rerun + generous fork slack
    bound = watchdog_s * 3 + 5.0
    record_rows(
        f"E22: hang_worker recovery latency (watchdog {watchdog_s}s)",
        ["metric", "seconds"],
        [
            ["p50", f"{statistics.median(latencies):.2f}"],
            ["max", f"{worst:.2f}"],
            ["bound", f"{bound:.2f}"],
        ],
        metrics={
            "watchdog_s": watchdog_s,
            "max_recovery_s": round(worst, 2),
            "bound_s": bound,
        },
    )
    assert worst < bound, (
        f"hung-worker recovery took {worst:.1f}s, past the watchdog "
        f"bound {bound:.1f}s -- is the recv watchdog actually armed?"
    )
