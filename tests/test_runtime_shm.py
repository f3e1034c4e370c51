"""Shared-memory transport: the arena wire, its lifetime, and
process-backend parity.

The shm wire (:mod:`repro.runtime.shm`) must be invisible to everything
above it: the process backend run on ``transport="shm"`` has to produce
**bit-for-bit** the same results and traffic counters as on
``transport="pipe"`` (and as the in-process backend), fault injection
included.  ``shm_min_bytes=0`` forces every ndarray buffer through the
arena so the parity tests exercise the shm path even at toy sizes.

An arena lives as long as the worker it serves and is the pool's to
unlink: after ``close()``, after ``mark_broken()``, after a supervisor
respawn, nothing of the pool's may be left in ``/dev/shm``, and a
steady-state run must not talk to the resource tracker at all.
"""

import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.chem.workloads import ccsd_doubles_program
from repro.engine.executor import random_inputs
from repro.parallel.grid import ProcessorGrid
from repro.parallel.spmd import run_spmd
from repro.pipeline import SynthesisConfig, synthesize
from repro.robustness.faults import FaultSchedule
from repro.runtime.process import SpmdProcessPool, run_spmd_process
from repro.runtime.shm import (
    ARENA_MIN_BYTES,
    DEFAULT_MIN_BYTES,
    SHM_AVAILABLE,
    Arena,
    pack_message,
    unpack_message,
)
from repro.runtime.supervisor import PoolSupervisor

MATMUL = """
range N = 6;
index i, j, k : N;
tensor A(i, k); tensor B(k, j);
C(i, j) = sum(k) A(i, k) * B(k, j);
"""

needs_shm = pytest.mark.skipif(
    not SHM_AVAILABLE, reason="no POSIX shared memory"
)


def matmul_plan(text=MATMUL):
    res = synthesize(text, SynthesisConfig(grid=ProcessorGrid((2, 2))))
    inputs = random_inputs(res.program, None, seed=0)
    return res.partition_plans["C"], inputs


#: a long summed index: the 2x2 plan splits the sum, so the ranks
#: communicate in three rounds (four messages), where the square
#: matmul only places its inputs
SUMMED = """
range N = 6; range K = 64;
index i, j : N; index k : K;
tensor A(i, k); tensor B(k, j);
C(i, j) = sum(k) A(i, k) * B(k, j);
"""


def ccsd(V=4, O=3):
    prog = ccsd_doubles_program(V=V, O=O)
    res = synthesize(prog, SynthesisConfig(grid=ProcessorGrid((2,))))
    return res, random_inputs(prog, seed=2)


def assert_comm_equal(a, b):
    assert a.sent_elements == b.sent_elements
    assert a.received_elements == b.received_elements
    assert a.messages == b.messages
    assert a.dropped == b.dropped
    assert a.retries == b.retries
    assert a.total_traffic == b.total_traffic


def segments(pool):
    """``/dev/shm`` paths of every arena the pool owns right now."""
    return [
        "/dev/shm/" + arena.name.lstrip("/")
        for port in pool._workers
        for arena in (port.down, port.up)
    ]


@pytest.fixture
def arena():
    if not SHM_AVAILABLE:
        pytest.skip("no POSIX shared memory")
    made = Arena()
    yield made
    made.unlink()


class TestWireProtocol:
    def test_small_payload_stays_raw(self, arena):
        msg = ("go", 3, np.arange(4.0))  # 32 B < DEFAULT_MIN_BYTES
        spans, body, need = pack_message(msg, arena)
        assert spans == [] and need == 0  # nothing went out of band
        got = unpack_message(spans, body, arena)
        assert got[0] == "go" and got[1] == 3
        np.testing.assert_array_equal(got[2], msg[2])

    def test_min_bytes_none_is_pipe_only(self):
        """Without an arena (the pipe transport) a message travels as
        itself, whatever it holds."""
        msg = ("load", np.zeros(2 * DEFAULT_MIN_BYTES))
        spans, body, need = pack_message(msg, None)
        assert spans is None and body is msg and need == 0
        assert unpack_message(spans, body, None) is msg

    def test_large_array_rides_a_segment(self, arena):
        big = np.arange(float(DEFAULT_MIN_BYTES))  # 8x the threshold
        spans, body, need = pack_message(("load", {"A": big, "n": 7}), arena)
        assert need == 0
        assert spans == [(0, big.nbytes)]
        assert len(body) < big.nbytes // 8  # the pickle carries no data
        got = unpack_message(spans, body, arena)
        assert got[0] == "load" and got[1]["n"] == 7
        np.testing.assert_array_equal(got[1]["A"], big)
        # copy-on-receive: the next message may overwrite the arena
        pack_message(("load", np.zeros_like(big)), arena)
        np.testing.assert_array_equal(got[1]["A"], big)
        got[1]["A"][0] = -1.0  # and the copy is the receiver's to write

    def test_round_trip_preserves_structure_dtype_and_order(self, arena):
        rng = np.random.default_rng(0)
        msg = {
            "f64": rng.standard_normal((16, 16)),
            "i32": np.arange(512, dtype=np.int32),
            "noncontig": rng.standard_normal((32, 32)).T[::2],
            "fortran": np.asfortranarray(rng.standard_normal((8, 4))),
            "empty": np.zeros((0, 5)),
            "nested": [("piece", np.ones((64, 8)))],
            "scalar": 2.5,
        }
        got = unpack_message(*pack_message(msg, arena, 0)[:2], arena)
        for key in ("f64", "i32", "noncontig", "fortran", "empty"):
            np.testing.assert_array_equal(got[key], msg[key])
            assert got[key].dtype == msg[key].dtype
            assert got[key].shape == msg[key].shape
        np.testing.assert_array_equal(got["nested"][0][1], np.ones((64, 8)))
        assert got["nested"][0][0] == "piece"
        assert got["scalar"] == 2.5

    def test_oversized_message_reports_its_need(self, arena):
        big = np.ones(2 * ARENA_MIN_BYTES // 8)
        msg = ("load", big)
        spans, body, need = pack_message(msg, arena)
        assert spans is None and body is msg  # rides the pipe whole
        assert need >= big.nbytes
        grown = arena.grown(need)
        try:
            assert grown.size >= need and grown.name != arena.name
            assert not os.path.exists("/dev/shm/" + arena.name.lstrip("/"))
            spans, body, need = pack_message(msg, grown)
            assert need == 0
            np.testing.assert_array_equal(
                unpack_message(spans, body, grown)[1], big
            )
        finally:
            grown.unlink()


@needs_shm
class TestArenaLifetime:
    """No ``/dev/shm`` entry outlives its pool."""

    def test_close_unlinks_every_segment(self):
        plan, inputs = matmul_plan()
        pool = SpmdProcessPool(2, shm_min_bytes=0)
        run_spmd_process(plan, inputs, pool=pool)
        paths = segments(pool)
        assert len(paths) == 4 and all(os.path.exists(p) for p in paths)
        pool.close()
        assert not any(os.path.exists(p) for p in paths)

    def test_mark_broken_unlinks_every_segment(self):
        plan, inputs = matmul_plan()
        pool = SpmdProcessPool(2, shm_min_bytes=0)
        run_spmd_process(plan, inputs, pool=pool)
        paths = segments(pool)
        procs = [port.proc for port in pool._workers]
        pool.mark_broken()
        assert pool.broken
        assert not any(os.path.exists(p) for p in paths)
        for proc in procs:
            proc.join(timeout=10)
            assert not proc.is_alive()
        pool.close()  # idempotent

    def test_sigkilled_worker_and_respawn_leave_nothing_behind(self):
        res, inputs = ccsd()
        clean = res.run_parallel(dict(inputs))
        with PoolSupervisor(2, recv_timeout_s=10.0) as sup:
            first = sup.ensure_pool()
            first.workers(2)
            paths = segments(first)
            os.kill(first._workers[1].proc.pid, signal.SIGKILL)
            first._workers[1].proc.join(timeout=10)
            out = res.run_parallel(
                dict(inputs), backend="process", procs=2, supervisor=sup
            )
            assert sup.respawns == 1 and sup.pool is not first
            assert not any(os.path.exists(p) for p in paths)
            replaced = segments(sup.pool)
            assert all(os.path.exists(p) for p in replaced)
        assert not any(os.path.exists(p) for p in replaced)
        np.testing.assert_array_equal(out["R"], clean["R"])

    def test_outgrown_arena_is_replaced_and_unlinked(self):
        """A message larger than the arena grows it: the old name goes,
        and the results do not change by a bit."""
        n = 96  # 96 x 96 float64 = 72 KiB > ARENA_MIN_BYTES
        res = synthesize(
            MATMUL.replace("N = 6", f"N = {n}"),
            SynthesisConfig(grid=ProcessorGrid((2,))),
        )
        inputs = random_inputs(res.program, None, seed=3)
        assert inputs["A"].nbytes > ARENA_MIN_BYTES
        plan = res.partition_plans["C"]
        local = run_spmd(plan, inputs)
        with SpmdProcessPool(1) as pool:
            pool.workers(1)
            before = segments(pool)
            first = run_spmd_process(plan, inputs, pool=pool)
            after = segments(pool)
            # both directions outgrew their 64 KiB: a load carrying A
            # and B down, the whole of C coming back up
            assert set(before).isdisjoint(after)
            assert not any(os.path.exists(p) for p in before)
            assert all(os.path.exists(p) for p in after)
            second = run_spmd_process(plan, inputs, pool=pool)
            assert segments(pool) == after  # sized by its largest message
        np.testing.assert_array_equal(first.result, local.result)
        np.testing.assert_array_equal(second.result, local.result)
        assert_comm_equal(first.comm, local.comm)

    def test_steady_state_run_never_touches_the_resource_tracker(
        self, monkeypatch
    ):
        from multiprocessing import resource_tracker

        res, inputs = ccsd()
        calls = []
        with SpmdProcessPool(2) as pool:
            want = res.run_parallel(
                dict(inputs), backend="process", pool=pool
            )
            monkeypatch.setattr(
                resource_tracker, "register",
                lambda *a: calls.append(("register",) + a),
            )
            monkeypatch.setattr(
                resource_tracker, "unregister",
                lambda *a: calls.append(("unregister",) + a),
            )
            for _ in range(3):
                got = res.run_parallel(
                    dict(inputs), backend="process", pool=pool
                )
            assert calls == []
            monkeypatch.undo()
        np.testing.assert_array_equal(got["R"], want["R"])

    def test_process_exit_leaves_no_tracker_warning(self, tmp_path):
        """A process that opens a pool, runs CCSD twice and exits: no
        ``resource_tracker`` complaint, nothing in ``/dev/shm``."""
        script = textwrap.dedent("""
            import os
            from repro.chem.workloads import ccsd_doubles_program
            from repro.engine.executor import random_inputs
            from repro.parallel.grid import ProcessorGrid
            from repro.pipeline import SynthesisConfig, synthesize
            from repro.runtime.process import SpmdProcessPool

            prog = ccsd_doubles_program(V=4, O=3)
            res = synthesize(prog, SynthesisConfig(grid=ProcessorGrid((2,))))
            inputs = random_inputs(prog, seed=2)
            with SpmdProcessPool(2, shm_min_bytes=0) as pool:
                for _ in range(2):
                    res.run_parallel(dict(inputs), backend="process", pool=pool)
                names = [a.name.lstrip("/") for p in pool._workers
                         for a in (p.down, p.up)]
            left = [n for n in names if os.path.exists("/dev/shm/" + n)]
            assert not left, left
            print("ran")
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-c", script],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "ran"
        assert "resource_tracker" not in done.stderr, done.stderr
        assert done.stderr.strip() == "", done.stderr


@needs_shm
class TestTransportParity:
    """shm vs pipe must agree bit-for-bit, counters included."""

    def _run(self, plan, inputs, transport, faults=None):
        pool = SpmdProcessPool(
            2,
            transport=transport,
            shm_min_bytes=0 if transport == "shm" else DEFAULT_MIN_BYTES,
        )
        with pool:
            return run_spmd_process(
                plan, inputs, pool=pool, faults=faults
            )

    def test_matmul_parity(self):
        plan, inputs = matmul_plan(SUMMED)
        local = run_spmd(plan, inputs)
        shm = self._run(plan, inputs, "shm")
        pipe = self._run(plan, inputs, "pipe")
        np.testing.assert_array_equal(shm.result, pipe.result)
        np.testing.assert_array_equal(shm.result, local.result)
        assert shm.supersteps == pipe.supersteps == local.supersteps
        assert_comm_equal(shm.comm, pipe.comm)
        assert_comm_equal(shm.comm, local.comm)

    def test_fault_schedule_parity(self):
        plan, inputs = matmul_plan(SUMMED)
        faults = FaultSchedule(
            drop_messages=(0, 3), drop_attempts=2, crash_supersteps={2}
        )
        shm = self._run(plan, inputs, "shm", faults=faults)
        pipe = self._run(plan, inputs, "pipe", faults=faults)
        assert shm.restarts == pipe.restarts == 1
        np.testing.assert_array_equal(shm.result, pipe.result)
        assert shm.comm.dropped == pipe.comm.dropped == 4
        assert shm.comm.retries == pipe.comm.retries == 4
        assert_comm_equal(shm.comm, pipe.comm)

    def test_run_parallel_shm_matches_pipe(self):
        res, inputs = ccsd()
        shm = res.run_parallel(
            dict(inputs), backend="process", procs=1, transport="shm"
        )
        pipe = res.run_parallel(
            dict(inputs), backend="process", procs=1, transport="pipe"
        )
        assert sorted(shm) == sorted(pipe)
        for name in shm:
            np.testing.assert_array_equal(shm[name], pipe[name], err_msg=name)

    def test_invalid_transport_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            SpmdProcessPool(1, transport="carrier-pigeon")


class TestProcsClamp:
    def test_oversubscribed_procs_clamped_with_note(self):
        res, inputs = ccsd()
        local = res.run_parallel(dict(inputs), backend="local")
        out = res.run_parallel(
            dict(inputs), backend="process", procs=999
        )
        notes = [n for n in out.notes if "procs clamped" in n]
        ncpu = os.cpu_count() or 1
        # the worker count is first capped at grid size (2 here), then
        # clamped to the CPU count -- the note appears iff that bites
        requested = min(999, 2)
        if requested > ncpu:
            assert notes, out.notes
            assert f"-> {ncpu}" in notes[0]
            assert "os.cpu_count" in notes[0]
        else:
            assert not notes
        for name in local:
            np.testing.assert_array_equal(out[name], local[name])
