"""Supervised pools, chaos schedules, and the recv watchdog.

The fault-tolerance contract (``docs/architecture.md`` section 13):
every process-level failure -- a worker killed, hung, or silently
swallowing its reply -- is detected (watchdog / broken pipe), the pool
is respawned, and the failed statement re-runs **bit-identically**
against the clean run, with every recovery step recorded in notes.
The property-based test drives random :class:`ChaosSchedule`\\ s
through the supervisor to check that contract holds regardless of
which ordinals fire which actions.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.executor import random_inputs
from repro.parallel.grid import ProcessorGrid
from repro.parallel.spmd import run_spmd
from repro.pipeline import SynthesisConfig, synthesize
from repro.robustness.errors import (
    CommFailure,
    DeadlineExceeded,
    SpecError,
)
from repro.robustness.faults import (
    ChaosSchedule,
    ChaosState,
    parse_chaos_spec,
)
from repro.runtime.process import SpmdProcessPool, run_spmd_process
from repro.runtime.supervisor import PoolSupervisor, deadline_clock

#: a long summed index: the 2x2 plan splits the sum, so every run
#: posts ``go`` commands (a combine, a broadcast and a move) for chaos
#: to bite on, where a square matmul only places its inputs
MATMUL = """
range N = 6; range K = 64;
index i, j : N; index k : K;
tensor A(i, k); tensor B(k, j);
C(i, j) = sum(k) A(i, k) * B(k, j);
"""


@pytest.fixture(scope="module")
def matmul():
    res = synthesize(MATMUL, SynthesisConfig(grid=ProcessorGrid((2, 2))))
    inputs = random_inputs(res.program, None, seed=0)
    expect = run_spmd(res.partition_plans["C"], inputs).result
    return res, inputs, expect


class TestChaosSchedule:
    def test_parse_all_clauses(self):
        sched = parse_chaos_spec("kill_worker@3;hang_worker@0,5;drop_reply@2")
        assert sched.kill_worker == (3,)
        assert sched.hang_worker == (0, 5)
        assert sched.drop_reply == (2,)
        assert sched.any_chaos
        assert sched.max_ordinal() == 5

    @pytest.mark.parametrize(
        "bad",
        ["kill@0", "kill_worker", "kill_worker@", "kill_worker@-1",
         "kill_worker@x", "drop_reply:2"],
    )
    def test_bad_specs_are_spec_errors(self, bad):
        with pytest.raises(SpecError) as exc:
            parse_chaos_spec(bad)
        assert exc.value.stage == "chaos-injection"

    def test_action_precedence_kill_beats_hang(self):
        sched = ChaosSchedule(kill_worker=(1,), hang_worker=(1,))
        assert sched.action_at(1) == "kill_worker"

    def test_state_fires_each_ordinal_once(self):
        state = ChaosState(parse_chaos_spec("kill_worker@1"))
        assert state.next_action() is None  # ordinal 0
        assert state.next_action() == "kill_worker"  # ordinal 1
        assert state.next_action() is None  # ordinal 2: already fired
        assert state.fired == [(1, "kill_worker")]
        assert state.exhausted


class TestWatchdog:
    def test_hung_worker_raises_within_timeout(self, matmul):
        """A hung worker must surface a structured CommFailure via
        ``conn.poll`` -- not block ``_recv`` forever (the satellite
        fix this PR exists for)."""
        res, inputs, _ = matmul
        state = ChaosState(parse_chaos_spec("hang_worker@0"))
        pool = SpmdProcessPool(1, recv_timeout_s=0.5, chaos=state)
        with pool:
            with pytest.raises(CommFailure) as exc:
                run_spmd_process(
                    res.partition_plans["C"], inputs, pool=pool
                )
        assert exc.value.stage == "spmd-process"
        assert "watchdog" in exc.value.message
        assert pool.broken

    def test_dropped_reply_caught_by_watchdog(self, matmul):
        """drop_reply executes the command but swallows the answer --
        only the watchdog can tell."""
        res, inputs, _ = matmul
        state = ChaosState(parse_chaos_spec("drop_reply@0"))
        pool = SpmdProcessPool(1, recv_timeout_s=0.5, chaos=state)
        with pool:
            with pytest.raises(CommFailure) as exc:
                run_spmd_process(
                    res.partition_plans["C"], inputs, pool=pool
                )
        assert exc.value.stage == "spmd-process"

    def test_no_timeout_means_no_watchdog_overhead(self, matmul):
        res, inputs, expect = matmul
        pool = SpmdProcessPool(1)  # recv_timeout_s=None: legacy blocking
        with pool:
            run = run_spmd_process(
                res.partition_plans["C"], inputs, pool=pool
            )
        np.testing.assert_array_equal(run.result, expect)


class TestCloseEscalation:
    def test_stubborn_worker_is_killed_not_leaked(self):
        """A worker that survives terminate() must be SIGKILLed and its
        connection closed (the shutdown-leak satellite fix)."""

        class StubbornProc:
            def __init__(self):
                self.alive = True
                self.terminated = False
                self.killed = False

            def join(self, timeout=None):
                pass

            def is_alive(self):
                return self.alive

            def terminate(self):
                self.terminated = True  # ignored: stays alive

            def kill(self):
                self.killed = True
                self.alive = False

        class DeadConn:
            def __init__(self):
                self.closed = False

            def send(self, msg):
                raise OSError("peer gone")

            def close(self):
                self.closed = True

        from repro.runtime.process import _Port

        pool = SpmdProcessPool(1)
        proc, conn = StubbornProc(), DeadConn()
        port = _Port(pool, proc, conn)
        arenas = [port.down.name, port.up.name]
        pool._workers = [port]
        pool.close()
        assert not any(
            os.path.exists(f"/dev/shm/{name.lstrip('/')}") for name in arenas
        )
        assert proc.terminated and proc.killed
        assert not proc.alive
        assert conn.closed
        assert pool._workers == []


class TestSupervisor:
    def test_kill_respawns_and_result_is_bit_identical(self, matmul):
        res, inputs, expect = matmul
        state = ChaosState(parse_chaos_spec("kill_worker@0"))
        events = []
        sup = PoolSupervisor(
            4, chaos=state, recv_timeout_s=5.0,
            on_respawn=lambda old, new: events.append((old, new)),
        )
        with sup:
            out = res.run_parallel(
                dict(inputs), backend="process", procs=4, supervisor=sup
            )
        np.testing.assert_array_equal(out["C"], expect)
        assert state.fired == [(0, "kill_worker")]
        assert sup.respawns == 1 and sup.retries == 1
        # first spawn + respawn both announce; respawn carries the old
        assert len(events) == 2
        assert events[0][0] is None and events[1][0] is not None
        assert any("retry" in n for n in out.notes)
        assert any("respawn" in n for n in out.notes)

    def test_retry_exhaustion_raises_comm_failure(self, matmul):
        res, inputs, _ = matmul
        # kill on every early ordinal: attempts 1 and 2 both die, and
        # the budget of 1 retry is spent
        state = ChaosState(
            ChaosSchedule(kill_worker=tuple(range(8)))
        )
        sup = PoolSupervisor(
            4, chaos=state, recv_timeout_s=5.0, max_statement_retries=1
        )
        with sup:
            with pytest.raises(CommFailure):
                res.run_parallel(
                    dict(inputs), backend="process", procs=4,
                    supervisor=sup,
                )
        assert sup.retries == 1
        assert any("giving up" in n for n in sup.notes)

    def test_logical_faults_are_not_retried(self, matmul):
        """CommFailure with stage='spmd' (deterministic logical fault,
        e.g. injected crashes beyond the restart limit) must propagate
        -- retrying a deterministic failure would loop pointlessly."""
        sup = PoolSupervisor(1, recv_timeout_s=5.0)

        def deterministic_failure(pool):
            raise CommFailure("beyond restart limit", stage="spmd")

        with sup:
            sup.ensure_pool()
            with pytest.raises(CommFailure):
                sup.run_statement(deterministic_failure)
        assert sup.retries == 0

    def test_expired_deadline_stops_retries(self, matmul):
        sup = PoolSupervisor(
            1, recv_timeout_s=5.0, time_left=lambda: 0.0,
            max_statement_retries=3,
        )

        def process_failure(pool):
            raise CommFailure("worker died", stage="spmd-process")

        with sup:
            sup.ensure_pool()
            with pytest.raises(DeadlineExceeded):
                sup.run_statement(process_failure)
        assert sup.retries == 0

    def test_detach_strips_chaos(self):
        state = ChaosState(parse_chaos_spec("kill_worker@0"))
        sup = PoolSupervisor(1, chaos=state, recv_timeout_s=5.0)
        pool = sup.ensure_pool()
        assert pool.chaos is state
        handed = sup.detach()
        assert handed is pool
        assert handed.chaos is None, "warm-parked pool must not carry chaos"
        handed.close()

    def test_adopted_pool_gets_watchdog_installed(self):
        pool = SpmdProcessPool(1)
        assert pool.recv_timeout_s is None
        sup = PoolSupervisor(pool=pool, recv_timeout_s=3.0)
        assert pool.recv_timeout_s == 3.0
        assert sup.procs == 1 and sup.transport == pool.transport
        sup.close()

    def test_deadline_clock(self):
        t = [100.0]
        left = deadline_clock(500, now=lambda: t[0])
        assert left() == pytest.approx(0.5)
        t[0] = 100.6
        assert left() < 0
        assert deadline_clock(None) is None


class TestSupervisedSession:
    """A worker lost mid-chain takes its resident blocks with it: the
    supervisor's transaction is the session, replayed from the inputs
    the router still holds.  The contractions run inside the ``load``,
    so a run's ``go`` commands (one per worker) are the fold's round,
    with every other block already resident: ordinals 0 and 1 of the
    first run, 2 and 3 of the first replay, and so on."""

    @pytest.fixture(scope="class")
    def ccsd(self):
        from repro.chem.workloads import ccsd_doubles_program

        prog = ccsd_doubles_program(V=4, O=3)
        res = synthesize(prog, SynthesisConfig(grid=ProcessorGrid((2,))))
        inputs = random_inputs(prog, seed=2)
        return res, inputs, res.run_parallel(dict(inputs))["R"]

    @pytest.mark.parametrize("spec", [
        "kill_worker@1", "hang_worker@0", "drop_reply@1",
        "kill_worker@1;hang_worker@2",
    ])
    def test_lost_worker_mid_chain_replays_the_session(self, ccsd, spec):
        res, inputs, expect = ccsd
        state = ChaosState(parse_chaos_spec(spec))
        events = spec.count("@")
        sup = PoolSupervisor(
            2, chaos=state, recv_timeout_s=1.0,
            max_statement_retries=events,
        )
        with sup:
            out = res.run_parallel(
                dict(inputs), backend="process", procs=2, supervisor=sup
            )
        np.testing.assert_array_equal(out["R"], expect)
        assert len(state.fired) == events  # every event bit mid-chain
        assert sup.retries == sup.respawns == events
        replays = [n for n in out.notes if "replayed" in n]
        assert len(replays) == events
        assert all("router-held inputs" in n for n in replays)

    def test_replay_is_bounded_by_the_retry_budget(self, ccsd):
        res, inputs, _ = ccsd
        # every run loses its second worker in the fold's round
        state = ChaosState(ChaosSchedule(kill_worker=tuple(range(1, 60, 2))))
        sup = PoolSupervisor(
            2, chaos=state, recv_timeout_s=5.0, max_statement_retries=2
        )
        with sup:
            with pytest.raises(CommFailure):
                res.run_parallel(
                    dict(inputs), backend="process", procs=2, supervisor=sup
                )
        assert sup.retries == 2
        assert any("giving up" in n for n in sup.notes)


class TestChaosProperty:
    @settings(max_examples=5, deadline=None)
    @given(
        kills=st.lists(
            st.integers(0, 3), max_size=2, unique=True
        ),
        hangs=st.lists(
            st.integers(0, 3), max_size=1, unique=True
        ),
        drops=st.lists(
            st.integers(0, 3), max_size=1, unique=True
        ),
    )
    def test_any_schedule_recovers_bit_identically(
        self, matmul, kills, hangs, drops
    ):
        """For ANY chaos schedule, a supervisor with enough retry
        budget produces the exact clean-run result -- recovery is
        invisible in the output, visible only in the notes."""
        res, inputs, expect = matmul
        sched = ChaosSchedule(
            kill_worker=tuple(kills),
            hang_worker=tuple(hangs),
            drop_reply=tuple(drops),
        )
        state = ChaosState(sched)
        events = len(kills) + len(hangs) + len(drops)
        sup = PoolSupervisor(
            4, chaos=state, recv_timeout_s=0.5,
            max_statement_retries=events + 1,
        )
        with sup:
            out = res.run_parallel(
                dict(inputs), backend="process", procs=4, supervisor=sup
            )
        np.testing.assert_array_equal(out["C"], expect)
        # every retry answers >= 1 fired event (several events can fire
        # within one superstep when the grid spans several workers);
        # and chaos that fired always forced at least one retry
        assert sup.retries <= len(state.fired)
        assert (sup.retries >= 1) == bool(state.fired)
        assert sup.respawns == sup.retries
