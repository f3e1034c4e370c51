#!/usr/bin/env python
"""Shared-memory arena vs pipe transport for SPMD ndarray payloads.

The evidence for ``repro.runtime.shm.DEFAULT_MIN_BYTES`` (EXPERIMENTS.md
E19).  The process backend's wire side-loads ndarray buffers into two
long-lived shared-memory arenas per worker instead of pickling them
into the worker pipes; the fixed cost per message is one aligned
``memcpy`` each way and a span in the descriptor.  Two tables:

* the **crossover**, as CPU cost: pack -> pipe -> unpack of one
  superstep-shaped message through a pipe whose two ends are in this
  process, so no scheduler wake-up (50-350 us on a shared box, far more
  than the difference looked for) is in the number;
* **round trips** through a child echo process at 64 KiB .. 8 MiB,
  where the avoided pickle bytes and pipe copies dominate.

Wall times on a shared box swing from run to run, so nothing is
asserted: read the tables next to ``DEFAULT_MIN_BYTES``.  Bit-for-bit
parity of the two transports is ``tests/test_runtime_shm.py``'s.

Usage::

    PYTHONPATH=src python scripts/shm_crossover.py
"""

from __future__ import annotations

import multiprocessing as mp
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

import numpy as np  # noqa: E402

from repro.report import format_table  # noqa: E402
from repro.runtime.shm import (  # noqa: E402
    DEFAULT_MIN_BYTES,
    SHM_AVAILABLE,
    Arena,
    pack_message,
    unpack_message,
)

#: payload sizes in float64 elements (8 B each)
CROSSOVER_SIZES = [64, 256, 512, 1024, 2048, 4096, 6144]  # 512 B .. 48 KiB
ROUND_TRIP_SIZES = [8_192, 131_072, 1_048_576]  # 64 KiB .. 8 MiB
ROUND_TRIPS = 200


def _message(n: int):
    """The shape of a superstep message: a tag, a box, a piece."""
    return ("go", [((1,), "s4", (((0, n),), np.arange(float(n))))], 7)


def _echo_main(conn, down_name, up_name):
    """Child: unpack each message and echo it back over the transport."""
    down = Arena(name=down_name) if down_name else None
    up = Arena(name=up_name) if up_name else None
    try:
        while True:
            spans, body = conn.recv()
            msg = unpack_message(spans, body, down)
            if isinstance(msg, str) and msg == "stop":
                break
            conn.send(pack_message(msg, up, 0)[:2])
    finally:
        for arena in (down, up):
            if arena is not None:
                arena.close()
        conn.close()


class _EchoWorker:
    """One child process echoing messages under a fixed transport."""

    def __init__(self, shm: bool, size: int = 0):
        self.down = Arena(size=size) if shm else None
        self.up = Arena(size=size) if shm else None
        ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else None
        )
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(
            target=_echo_main,
            args=(child, shm and self.down.name, shm and self.up.name),
            daemon=True,
        )
        self.proc.start()
        child.close()

    def round_trip(self, payload):
        self.conn.send(pack_message(payload, self.down, 0)[:2])
        spans, body = self.conn.recv()
        return unpack_message(spans, body, self.up)

    def close(self):
        try:
            self.conn.send((None, "stop"))
        except (OSError, ValueError):
            pass
        self.proc.join(timeout=5)
        self.conn.close()
        for arena in (self.down, self.up):
            if arena is not None:
                arena.unlink()


def crossover_rows():
    """Best-of-15 CPU cost of 1000 in-process messages per size."""
    near, far = mp.Pipe()
    arena = Arena(size=1 << 20)

    def cost(payload, side) -> float:
        best = float("inf")
        for _ in range(15):
            t0 = time.perf_counter()
            for _ in range(1000):
                near.send(pack_message(payload, side, 0)[:2])
                unpack_message(*far.recv(), side)
            best = min(best, (time.perf_counter() - t0) / 1000)
        return best

    rows = []
    try:
        for n in CROSSOVER_SIZES:
            t_pipe = cost(_message(n), None)
            t_shm = cost(_message(n), arena)
            rows.append(
                [f"{n * 8} B", f"{t_pipe * 1e6:.1f}", f"{t_shm * 1e6:.1f}",
                 f"{t_pipe / t_shm:.2f}x"]
            )
    finally:
        arena.unlink()
        near.close()
        far.close()
    return rows


def round_trip_rows():
    """Best-of-5 round trip through a child echo process per size."""
    pipe = _EchoWorker(shm=False)
    shm = _EchoWorker(shm=True, size=2 * 8 * ROUND_TRIP_SIZES[-1])

    def best(worker, payload, trips) -> float:
        worker.round_trip(payload)  # warm
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(trips):
                worker.round_trip(payload)
            times.append((time.perf_counter() - t0) / trips)
        return min(times)

    rows = []
    try:
        for n in ROUND_TRIP_SIZES:
            payload = _message(n)
            trips = max(10, min(ROUND_TRIPS, (1 << 24) // (n * 8)))
            t_pipe = best(pipe, payload, trips)
            t_shm = best(shm, payload, trips)
            rows.append(
                [f"{n * 8 // 1024} KiB", f"{t_pipe * 1e3:.3f}",
                 f"{t_shm * 1e3:.3f}", f"{t_pipe / t_shm:.2f}x"]
            )
    finally:
        pipe.close()
        shm.close()
    return rows


def main() -> int:
    if not SHM_AVAILABLE:
        print("skipped: no POSIX shared memory on this machine")
        return 0
    print(f"DEFAULT_MIN_BYTES = {DEFAULT_MIN_BYTES}")
    print("\none message packed, piped and unpacked in one process")
    print(format_table(
        ["payload", "pipe us", "arena us", "arena speedup"], crossover_rows()
    ))
    print("\npayload round trip through a child, pipe pickle vs arena")
    print(format_table(
        ["payload", "pipe ms", "arena ms", "arena speedup"], round_trip_rows()
    ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
