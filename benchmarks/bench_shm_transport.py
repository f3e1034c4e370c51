"""E19: shared-memory arena vs pipe transport for SPMD ndarray payloads.

The process backend's wire (:mod:`repro.runtime.shm`) side-loads ndarray
buffers into two long-lived shared-memory arenas per worker instead of
pickling them into the worker pipes.  With a resident arena the fixed
cost per message is one aligned ``memcpy`` each way and a span in the
descriptor -- no segment is created, attached or unlinked -- so the
crossover that sat at 1-2 MiB with a segment per message now sits at
8-16 KiB.  Two measurements:

* the **crossover**, as CPU cost: pack -> pipe -> unpack of one
  superstep-shaped message through a pipe whose two ends are in this
  process, so no scheduler wake-up (50-350 us on a shared box, far more
  than the difference looked for) is in the number.
  ``DEFAULT_MIN_BYTES`` is set from it and held to it here;
* **round trips** through a child echo process at 64 KiB .. 8 MiB,
  where the avoided pickle bytes and pipe copies dominate and the arena
  must win outright.
"""

from __future__ import annotations

import multiprocessing as mp
import time

import numpy as np
import pytest

from repro.runtime.shm import (
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


def _time_round_trips(worker, payload, trips) -> float:
    worker.round_trip(payload)  # warm
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(trips):
            worker.round_trip(payload)
        times.append((time.perf_counter() - t0) / trips)
    return min(times)


@pytest.mark.skipif(not SHM_AVAILABLE, reason="no POSIX shared memory")
class TestE19ShmTransport:
    def test_round_trip_integrity(self):
        shm = _EchoWorker(shm=True)
        try:
            payload = {"blk": np.arange(1000.0), "meta": ("tag", 3)}
            back = shm.round_trip(payload)
            np.testing.assert_array_equal(back["blk"], payload["blk"])
            assert back["meta"] == ("tag", 3)
        finally:
            shm.close()

    def test_crossover(self, record_rows):
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

        rows, metrics = [], {}
        try:
            for n in CROSSOVER_SIZES:
                t_pipe = cost(_message(n), None)
                t_shm = cost(_message(n), arena)
                metrics[f"{n * 8}B"] = {
                    "pipe_s": t_pipe, "shm_s": t_shm,
                    "speedup": t_pipe / t_shm,
                }
                rows.append(
                    [f"{n * 8} B", f"{t_pipe * 1e6:.1f}",
                     f"{t_shm * 1e6:.1f}", f"{t_pipe / t_shm:.2f}x"]
                )
        finally:
            arena.unlink()
            near.close()
            far.close()
        metrics["default_min_bytes"] = DEFAULT_MIN_BYTES
        record_rows(
            "E19: one message packed, piped and unpacked in one process",
            ["payload", "pipe us", "arena us", "arena speedup"],
            rows,
            metrics=metrics,
        )
        # at the threshold side-loading must cost (next to) nothing, and
        # from four times the threshold up it must pay
        at = metrics[f"{DEFAULT_MIN_BYTES}B"]["speedup"]
        assert at > 0.85, f"arena slower at DEFAULT_MIN_BYTES: {at:.2f}x"
        above = [
            metrics[f"{n * 8}B"]["speedup"]
            for n in CROSSOVER_SIZES
            if n * 8 >= 4 * DEFAULT_MIN_BYTES
        ]
        assert above and min(above) > 1.0, above

    def test_shm_vs_pipe(self, record_rows):
        pipe = _EchoWorker(shm=False)
        shm = _EchoWorker(shm=True, size=2 * 8 * ROUND_TRIP_SIZES[-1])
        rows = []
        metrics = {}
        try:
            for n in ROUND_TRIP_SIZES:
                payload = _message(n)
                nbytes = n * 8
                trips = max(10, min(ROUND_TRIPS, (1 << 24) // nbytes))
                t_pipe = _time_round_trips(pipe, payload, trips)
                t_shm = _time_round_trips(shm, payload, trips)
                rows.append(
                    [
                        f"{nbytes // 1024} KiB",
                        f"{t_pipe * 1e3:.3f}",
                        f"{t_shm * 1e3:.3f}",
                        f"{t_pipe / t_shm:.2f}x",
                    ]
                )
                metrics[f"{nbytes}B"] = {
                    "pipe_s": t_pipe,
                    "shm_s": t_shm,
                    "speedup": t_pipe / t_shm,
                }
        finally:
            pipe.close()
            shm.close()
        record_rows(
            "E19: payload round trip, pipe pickle vs shared-memory arena",
            ["payload", "pipe ms", "arena ms", "arena speedup"],
            rows,
            metrics=metrics,
        )
        # assert over the whole band rather than one size -- single-size
        # wall times on a shared box swing enough to flip a point
        # estimate (the 64 KiB row is mostly the scheduler's)
        big = [m["speedup"] for m in metrics.values()]
        assert max(big) > 2.0 and big[-1] > 1.0, (
            f"the arena did not win on >= 64 KiB payloads: {big}"
        )
