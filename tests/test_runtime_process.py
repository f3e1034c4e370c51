"""Multi-process SPMD backend: cross-validation against the in-process
lock-step driver.

The acceptance bar is **bit-for-bit** equality -- same result arrays,
same traffic counters, same fault-recovery behaviour -- because the
process backend replays the exact message ordering of the in-process
driver (see :mod:`repro.runtime.process`).
"""

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.chem.workloads import ccsd_doubles_program, fig1_formula_sequence
from repro.engine.executor import random_inputs, run_statements
from repro.expr.parser import parse_program
from repro.parallel.grid import ProcessorGrid
from repro.parallel.program_plan import plan_sequence
from repro.parallel.session import plan_session, run_session
from repro.parallel.spmd import run_spmd
from repro.pipeline import SynthesisConfig, synthesize
from repro.robustness.errors import CommFailure
from repro.robustness.faults import FaultSchedule
from repro.runtime.process import SpmdProcessPool, run_spmd_sequence_process

#: a long summed index: the 2x2 plan splits the sum, so the ranks
#: communicate in three rounds -- a combine, a broadcast and a move
#: (four messages) -- where a square matmul would only place its inputs
MATMUL = """
range N = 6; range K = 64;
index i, j : N; index k : K;
tensor A(i, k); tensor B(k, j);
C(i, j) = sum(k) A(i, k) * B(k, j);
"""

#: a process that starts a two-worker pool, prints the worker pids and
#: kills itself before it can close the pool
ORPHANING_OWNER = """
import os, signal
from repro.runtime.process import SpmdProcessPool
pool = SpmdProcessPool(2)
print(*(port.proc.pid for port in pool.workers(2)), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def matmul_plan():
    res = synthesize(MATMUL, SynthesisConfig(grid=ProcessorGrid((2, 2))))
    inputs = random_inputs(res.program, None, seed=0)
    return res.partition_plans["C"], inputs, res


@pytest.fixture
def failing_rank(monkeypatch):
    """``arm(fname, rank)`` makes rank ``rank`` of the rank program
    ``fname`` raise, in whichever worker runs it, while the returned
    switch is set.  Workers are forked after the patch and the switch is
    shared memory, so the router's side can clear it between runs."""
    import multiprocessing as mp

    from repro.parallel import session

    if "fork" not in mp.get_all_start_methods():
        pytest.skip("needs forked workers")
    switch = mp.get_context("fork").Value("i", 0)
    target = {}
    real = session.load_rank_program

    def load(source, name):
        program = real(source, name)
        if name != target.get("fname"):
            return program

        def flaky(rank, comm, arrays, state):
            if switch.value and rank == target["rank"]:
                raise RuntimeError("injected rank-program failure")
            return program(rank, comm, arrays, state)

        return flaky

    monkeypatch.setattr(session, "load_rank_program", load)

    def arm(fname, rank):
        target.update(fname=fname, rank=rank)
        switch.value = 1
        return switch

    return arm


def assert_comm_equal(a, b):
    assert a.sent_elements == b.sent_elements
    assert a.received_elements == b.received_elements
    assert a.messages == b.messages
    assert a.dropped == b.dropped
    assert a.retries == b.retries
    assert a.total_traffic == b.total_traffic


class TestBitForBit:
    def test_matmul_matches_local_driver(self):
        plan, inputs, _ = matmul_plan()
        local = run_spmd(plan, inputs)
        proc = run_spmd(plan, inputs, backend="process")
        np.testing.assert_array_equal(local.result, proc.result)
        assert local.supersteps == proc.supersteps
        assert_comm_equal(local.comm, proc.comm)

    def test_fewer_workers_than_ranks(self):
        """Round-robin rank assignment must not change results or
        traffic (1 and 3 workers for a 4-rank grid)."""
        plan, inputs, _ = matmul_plan()
        local = run_spmd(plan, inputs)
        for procs in (1, 3):
            proc = run_spmd(plan, inputs, procs=procs, backend="process")
            np.testing.assert_array_equal(local.result, proc.result)
            assert_comm_equal(local.comm, proc.comm)

    def test_fig1_sequence_matches_local_driver(self):
        prog = fig1_formula_sequence(V=4, O=2)
        grid = ProcessorGrid((2,))
        seq = plan_sequence(prog.statements, grid)
        inputs = random_inputs(prog, seed=1)
        local = run_session(plan_session(prog.statements, seq.plans), inputs)
        proc = run_spmd_sequence_process(prog.statements, seq, inputs)
        for name in local.arrays:
            np.testing.assert_array_equal(
                local.arrays[name], proc.arrays[name], err_msg=name
            )
        assert local.total_traffic == proc.total_traffic
        assert local.total_supersteps == proc.total_supersteps

    def test_ccsd_doubles_run_parallel_matches_local(self):
        prog = ccsd_doubles_program(V=4, O=3)
        res = synthesize(prog, SynthesisConfig(grid=ProcessorGrid((2,))))
        inputs = random_inputs(prog, seed=2)
        local = res.run_parallel(dict(inputs), backend="local")
        proc = res.run_parallel(dict(inputs), backend="process", procs=2)
        for name in local:
            np.testing.assert_array_equal(
                local[name], proc[name], err_msg=name
            )
        want = run_statements(prog.statements, inputs)
        np.testing.assert_allclose(proc["R"], want["R"], rtol=1e-8)


class TestFaultParity:
    def test_message_drops_recovered_identically(self):
        plan, inputs, _ = matmul_plan()
        faults = FaultSchedule(drop_messages=(0, 3), drop_attempts=2)
        local = run_spmd(plan, inputs, faults=faults)
        proc = run_spmd(plan, inputs, faults=faults, backend="process")
        np.testing.assert_array_equal(local.result, proc.result)
        assert proc.comm.dropped == 4
        assert proc.comm.retries == 4
        assert_comm_equal(local.comm, proc.comm)

    def test_rank_crash_restarts_statement(self):
        plan, inputs, _ = matmul_plan()
        local = run_spmd(
            plan, inputs, faults=FaultSchedule(crash_supersteps={2})
        )
        proc = run_spmd(
            plan, inputs, faults=FaultSchedule(crash_supersteps={2}),
            backend="process",
        )
        assert local.restarts == proc.restarts == 1
        np.testing.assert_array_equal(local.result, proc.result)
        assert_comm_equal(local.comm, proc.comm)

    def test_drops_and_crash_together(self):
        plan, inputs, _ = matmul_plan()
        # the 2x2 plan has three rounds: supersteps 0, 1, 2, 3
        faults = FaultSchedule(drop_messages=(1,), crash_supersteps=(1, 2))
        local = run_spmd(plan, inputs, faults=faults)
        proc = run_spmd(plan, inputs, faults=faults, backend="process")
        assert local.restarts == proc.restarts == 2
        assert local.comm.dropped == 1
        np.testing.assert_array_equal(local.result, proc.result)
        assert_comm_equal(local.comm, proc.comm)

    def test_crash_at_superstep_zero_restarts_before_the_load(self):
        """Superstep 0 runs inside ``load``: a crash scheduled there
        fires before anything is posted, and the statement restarts
        exactly as under the in-process driver."""
        plan, inputs, _ = matmul_plan()
        clean = run_spmd(plan, inputs)
        faults = FaultSchedule(crash_supersteps={0})
        local = run_spmd(plan, inputs, faults=faults)
        with SpmdProcessPool(2) as pool:
            proc = run_spmd(
                plan, inputs, faults=faults, backend="process", pool=pool
            )
            again = run_spmd(
                plan, inputs, faults=faults, backend="process", pool=pool
            )
        assert local.restarts == proc.restarts == again.restarts == 1
        assert local.supersteps == proc.supersteps == clean.supersteps
        np.testing.assert_array_equal(clean.result, proc.result)
        np.testing.assert_array_equal(clean.result, again.result)
        assert_comm_equal(local.comm, proc.comm)

    def test_restart_budget_exhaustion_raises(self):
        """A crash at each of the plan's four supersteps is one restart
        more than :data:`MAX_RESTARTS` allows."""
        from repro.parallel.session import MAX_RESTARTS

        plan, inputs, _ = matmul_plan()
        assert MAX_RESTARTS == 3
        with pytest.raises(CommFailure, match="3 restarts"):
            run_spmd(
                plan,
                inputs,
                faults=FaultSchedule(crash_supersteps={0, 1, 2, 3}),
                backend="process",
            )


class TestSessionFaults:
    """Faults in a resident chain: table entries are never mutated, so
    the statement in flight restarts from the table, bit-identically."""

    @pytest.fixture(scope="class")
    def ccsd(self):
        prog = ccsd_doubles_program(V=4, O=3)
        res = synthesize(prog, SynthesisConfig(grid=ProcessorGrid((2,))))
        inputs = random_inputs(prog, seed=2)
        clean = run_session(res.spmd_session(), inputs)
        return res.spmd_session(), inputs, clean, run_session

    def _assert_same_but_for_restarts(self, clean, local, proc, restarted):
        np.testing.assert_array_equal(clean.arrays["R"], local.arrays["R"])
        np.testing.assert_array_equal(clean.arrays["R"], proc.arrays["R"])
        assert [n for n, _ in local.runs] == [n for n, _ in clean.runs]
        for (name, c), (_, a), (_, b) in zip(clean.runs, local.runs, proc.runs):
            assert a.restarts == b.restarts == restarted(name, c), name
            assert a.supersteps == b.supersteps == c.supersteps, name
            assert_comm_equal(a.comm, b.comm)
            assert_comm_equal(a.comm, c.comm)

    def test_crash_at_superstep_zero_restarts_every_statement(self, ccsd):
        """Superstep 0 of a chained statement runs unasked, in the step
        that retires its predecessor -- unless a crash is scheduled
        there: then the router starts each statement itself, fires the
        crash before any rank advances, and the statement begins again
        from the table."""
        session, inputs, clean, run_session = ccsd
        faults = FaultSchedule(crash_supersteps={0})
        local = run_session(session, inputs, faults=faults)
        with SpmdProcessPool(2) as pool:
            proc = run_session(
                session, inputs, faults=faults, backend="process", pool=pool
            )
            again = run_session(
                session, inputs, faults=faults, backend="process", pool=pool
            )
        self._assert_same_but_for_restarts(
            clean, local, proc, lambda name, run: 1
        )
        np.testing.assert_array_equal(clean.arrays["R"], again.arrays["R"])

    def test_crash_mid_chain_restarts_the_statement_in_flight(self, ccsd):
        """A crash at superstep 1 bites every statement that
        communicates: its ranks are mid-program, their half-built state
        is dropped, and the statement reruns from the blocks earlier
        statements left in the table."""
        session, inputs, clean, run_session = ccsd
        faults = FaultSchedule(drop_messages=(0,), crash_supersteps={1})
        local = run_session(session, inputs, faults=faults)
        with SpmdProcessPool(2) as pool:
            proc = run_session(
                session, inputs, faults=faults, backend="process", pool=pool
            )
        assert any(run.supersteps > 1 for _, run in clean.runs)
        np.testing.assert_array_equal(clean.arrays["R"], local.arrays["R"])
        np.testing.assert_array_equal(clean.arrays["R"], proc.arrays["R"])
        for (name, c), (_, a), (_, b) in zip(clean.runs, local.runs, proc.runs):
            assert a.restarts == b.restarts == (1 if c.supersteps > 1 else 0)
            assert a.supersteps == b.supersteps == c.supersteps, name
            assert_comm_equal(a.comm, b.comm)
            assert a.comm.received_elements == c.comm.received_elements

    def test_restart_budget_is_per_statement(self, ccsd, monkeypatch):
        from repro.parallel import session as session_module

        session, inputs, _, run_session = ccsd
        monkeypatch.setattr(session_module, "MAX_RESTARTS", 1)
        faults = FaultSchedule(crash_supersteps={0, 1, 2, 3, 4, 5})
        with pytest.raises(CommFailure, match="1 restarts"):
            run_session(session, inputs, faults=faults)

    def test_failure_mid_chain_leaves_no_stale_reply(self, ccsd, failing_rank):
        """A statement deep in the chain fails on one worker's side:
        every worker's reply to that step is read before the failure
        surfaces, and the next session on the same pool starts from a
        dropped table."""
        session, inputs, clean, run_session = ccsd
        deep = session.programs()[-2]
        failing = failing_rank(deep.fname, list(session.grid.ranks())[-1])
        with SpmdProcessPool(2) as pool:
            with pytest.raises(CommFailure, match="worker failed"):
                run_session(session, inputs, backend="process", pool=pool)
            assert not pool.broken
            failing.value = 0
            proc = run_session(session, inputs, backend="process", pool=pool)
        np.testing.assert_array_equal(clean.arrays["R"], proc.arrays["R"])
        for (_, c), (_, b) in zip(clean.runs, proc.runs):
            assert_comm_equal(b.comm, c.comm)


class TestPool:
    def test_pool_reused_across_statements(self):
        """One pool serves a whole sequence and repeated runs."""
        plan, inputs, _ = matmul_plan()
        local = run_spmd(plan, inputs)
        with SpmdProcessPool(2) as pool:
            first = run_spmd(plan, inputs, pool=pool, backend="process")
            second = run_spmd(plan, inputs, pool=pool, backend="process")
            np.testing.assert_array_equal(local.result, first.result)
            np.testing.assert_array_equal(local.result, second.result)

    def test_pool_requires_positive_worker_count(self):
        with pytest.raises(ValueError):
            SpmdProcessPool(0)

    def test_worker_failure_surfaces_as_comm_failure(self, failing_rank):
        """A worker-side exception must not hang the router; it becomes
        a CommFailure carrying the traceback."""
        plan, inputs, _ = matmul_plan()
        failing_rank("rank_program", (1, 1))
        with pytest.raises(CommFailure, match="worker failed") as info:
            run_spmd(plan, inputs, backend="process")
        assert "injected rank-program failure" in str(info.value)

    def test_missing_or_misshaped_input_never_reaches_a_worker(self):
        """The router checks what it is about to ship: a bad array is a
        structured error naming the tensor, on either backend."""
        from repro.robustness.errors import ShapeError, SpecError

        plan, inputs, _ = matmul_plan()
        missing = {k: v for k, v in inputs.items() if k != "B"}
        short = dict(inputs, B=inputs["B"][:4])
        for backend in ("local", "process"):
            with pytest.raises(SpecError, match="'B'") as info:
                run_spmd(plan, missing, backend=backend)
            assert info.value.tensor == "B"
            with pytest.raises(ShapeError, match="'B'") as info:
                run_spmd(plan, short, backend=backend)
            assert info.value.tensor == "B"

    def test_pool_survives_a_worker_side_failure(self, failing_rank):
        """Every worker's reply to the failed superstep is consumed
        before the failure surfaces, so the next statement on the same
        pool does not read a stale one."""
        plan, inputs, _ = matmul_plan()
        local = run_spmd(plan, inputs)
        failing = failing_rank("rank_program", (1, 1))
        with SpmdProcessPool(2) as pool:
            with pytest.raises(CommFailure, match="worker failed"):
                run_spmd(plan, inputs, pool=pool, backend="process")
            assert not pool.broken
            failing.value = 0
            proc = run_spmd(plan, inputs, pool=pool, backend="process")
        np.testing.assert_array_equal(local.result, proc.result)
        assert local.supersteps == proc.supersteps
        assert_comm_equal(local.comm, proc.comm)

    @pytest.mark.skipif(
        not os.path.isdir("/proc"), reason="reads process states from /proc"
    )
    def test_workers_do_not_outlive_a_killed_owner(self):
        """An owner killed outright runs no exit hook; its workers notice
        it is gone and leave, and the resource tracker unlinks their
        arenas."""
        owner = subprocess.Popen(
            [sys.executable, "-c", ORPHANING_OWNER],
            stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
        pids = [int(p) for p in owner.stdout.readline().split()]
        owner.stdout.close()
        assert owner.wait(timeout=30) == -signal.SIGKILL
        assert len(pids) == 2

        def running(pid):
            try:
                with open(f"/proc/{pid}/stat") as stat:
                    return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        deadline = time.monotonic() + 10
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.1)
        left = [pid for pid in pids if running(pid)]
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        assert not left, f"workers {left} outlived their owner"

    def test_unknown_backend_rejected(self):
        prog = parse_program(MATMUL)
        grid = ProcessorGrid((2, 2))
        seq = plan_sequence(prog.statements, grid)
        inputs = random_inputs(prog, seed=0)
        with pytest.raises(ValueError, match="backend"):
            run_session(
                plan_session(prog.statements, seq.plans), inputs,
                backend="mpi",
            )


class TestNoRepeatedWork:
    """Identical programs are generated once per result and compiled
    once per worker."""

    def test_run_parallel_generates_each_source_once(self, monkeypatch):
        import repro.parallel.session as session

        _, inputs, res = matmul_plan()
        calls = []
        real = session.emit_rank_program

        def counting(steps, grid, bindings, name, semiring="plus_times"):
            calls.append(name)
            return real(steps, grid, bindings, name, semiring)

        monkeypatch.setattr(session, "emit_rank_program", counting)
        first = res.run_parallel(dict(inputs))
        second = res.run_parallel(dict(inputs))
        assert calls == ["rank_program_C"]
        np.testing.assert_array_equal(first["C"], second["C"])
        assert res.spmd_sources()["C"] is res.spmd_sources()["C"]

    def test_swapped_plan_is_regenerated(self):
        """The autotuner swaps ``partition_plans`` under the same
        statement names; the memo must not serve the old grid's text."""
        _, _, res = matmul_plan()
        before = res.spmd_sources()["C"]
        other = synthesize(MATMUL, SynthesisConfig(grid=ProcessorGrid((2,))))
        res.partition_plans = other.partition_plans
        after = res.spmd_sources()["C"]
        assert "GRID = (2,)" in after and "GRID = (2, 2)" in before

    def test_worker_compiles_a_program_text_once(self, monkeypatch):
        import multiprocessing as mp

        from repro.parallel import session

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("the counter reaches the worker by fork")
        plan, inputs, _ = matmul_plan()
        compiles = mp.get_context("fork").Value("i", 0)
        real = session.load_rank_program

        def counting(source, name):
            with compiles.get_lock():
                compiles.value += 1
            return real(source, name)

        monkeypatch.setattr(session, "load_rank_program", counting)
        with SpmdProcessPool(1) as pool:
            runs = [
                run_spmd(plan, inputs, backend="process", pool=pool)
                for _ in range(3)
            ]
        assert compiles.value == 1
        np.testing.assert_array_equal(runs[0].result, runs[2].result)


class TestBlasPin:
    def test_unpinned_blas_is_one_structured_note(self, monkeypatch):
        """A worker that finds no BLAS thread setter says so once, in
        its first reply; ``run_parallel`` reports it once per run."""
        from repro.runtime import process

        monkeypatch.setattr(
            process, "_pin_blas_threads", lambda: "no setter (test)"
        )
        _, inputs, res = matmul_plan()
        with SpmdProcessPool(2) as pool:
            out = res.run_parallel(dict(inputs), backend="process", pool=pool)
            notes = [n for n in out.notes if "BLAS" in n]
            assert len(notes) == 1 and "no setter (test)" in notes[0]
            # said once per worker lifetime, not once per statement
            out = res.run_parallel(dict(inputs), backend="process", pool=pool)
            assert not [n for n in out.notes if "BLAS" in n]

    def test_pin_is_best_effort(self):
        """In a child (the parent's BLAS stays as configured) the helper
        either pins or says why not; it never raises."""
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("needs a forked child")
        ctx = mp.get_context("fork")
        parent, child = ctx.Pipe()
        proc = ctx.Process(target=_report_pin, args=(child,))
        proc.start()
        try:
            assert parent.poll(30), "the child never answered"
            reason = parent.recv()
        finally:
            proc.join(timeout=30)
        assert proc.exitcode == 0
        assert reason is None or (isinstance(reason, str) and reason)


def _report_pin(conn):
    from repro.runtime import process

    conn.send(process._pin_blas_threads())
    conn.close()
