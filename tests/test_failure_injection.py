"""Failure-injection tests: corrupted inputs, broken plans, dropped
messages, and crashed ranks must fail loudly (with typed, named-tensor
errors) or recover exactly -- never silently corrupt results."""

import numpy as np
import pytest

from repro.expr.parser import parse_program
from repro.engine.executor import evaluate_expression, random_inputs
from repro.codegen.builder import build_unfused
from repro.codegen.interp import execute
from repro.parallel.grid import ProcessorGrid
from repro.parallel.partition import optimize_distribution
from repro.parallel.ptree import expression_to_ptree
from repro.parallel.spmd import MAX_RETRIES, LocalComm, run_spmd
from repro.robustness import (
    CommFailure,
    FaultSchedule,
    PlanError,
    ReproError,
    ShapeError,
    SpecError,
)


def matmul(n=4):
    prog = parse_program(f"""
    range N = {n};
    index i, j, k : N;
    tensor A(i, k); tensor B(k, j);
    C(i, j) = sum(k) A(i, k) * B(k, j);
    """)
    return prog


class TestBadInputs:
    def test_wrong_shape_array_fails(self):
        prog = matmul()
        block = build_unfused(prog.statements)
        bad = {
            "A": np.zeros((4, 4)),
            "B": np.zeros((2, 2)),  # wrong shape
        }
        with pytest.raises(ShapeError, match="tensor 'B'") as info:
            execute(block, bad)
        assert info.value.tensor == "B"
        # ShapeError is a ValueError: pre-taxonomy callers still catch it
        assert isinstance(info.value, ValueError)

    def test_wrong_shape_in_dense_oracle(self):
        prog = matmul()
        arrays = random_inputs(prog, seed=0)
        arrays["A"] = np.zeros((3, 5))
        with pytest.raises(ShapeError, match="tensor 'A'"):
            evaluate_expression(prog.statements[0].expr, arrays)

    def test_missing_input_named(self):
        prog = matmul()
        expr = prog.statements[0].expr
        with pytest.raises(SpecError, match="no array provided for tensor 'B'"):
            evaluate_expression(expr, {"A": np.zeros((4, 4))})

    def test_missing_input_in_simulator(self):
        prog = matmul()
        tree = expression_to_ptree(prog.statements[0].expr)
        grid = ProcessorGrid((2,))
        plan = optimize_distribution(tree, grid)
        with pytest.raises(SpecError, match="tensor 'B'") as info:
            run_spmd(plan, {"A": np.zeros((4, 4))})
        # SpecError is a KeyError: pre-taxonomy callers still catch it
        assert isinstance(info.value, KeyError)

    def test_non_numeric_dtype_rejected(self):
        prog = matmul()
        block = build_unfused(prog.statements)
        bad = {
            "A": np.zeros((4, 4)),
            "B": np.array([["x"] * 4] * 4, dtype=object),
        }
        with pytest.raises(ShapeError, match="tensor 'B'"):
            execute(block, bad)

    def test_nan_propagates_not_hidden(self):
        """NaNs in inputs surface in outputs (no silent masking) --
        finite-checking is opt-in, not a default."""
        prog = matmul()
        block = build_unfused(prog.statements)
        arrays = random_inputs(prog, seed=0)
        arrays["A"] = arrays["A"].copy()
        arrays["A"][0, 0] = np.nan
        env = execute(block, arrays)
        assert np.isnan(env["C"][0]).any()

    def test_nan_rejected_when_check_finite(self):
        prog = matmul()
        block = build_unfused(prog.statements)
        arrays = random_inputs(prog, seed=0)
        arrays["A"] = arrays["A"].copy()
        arrays["A"][0, 0] = np.nan
        with pytest.raises(ShapeError, match="non-finite"):
            execute(block, arrays, check_finite=True)


class TestBrokenPlans:
    def test_mismatched_plan_and_tree(self):
        """A plan from one tree applied to a different tree fails on the
        SPMD path with a PlanError (no cross-wired silent success)."""
        prog = matmul()
        tree1 = expression_to_ptree(prog.statements[0].expr)
        tree2 = expression_to_ptree(prog.statements[0].expr)
        grid = ProcessorGrid((2,))
        plan = optimize_distribution(tree1, grid)
        # tree2 has different node ids -> lookups must fail
        plan.root = tree2
        with pytest.raises(PlanError) as info:
            run_spmd(plan, random_inputs(prog, seed=0))
        # PlanError is a KeyError: the original contract still holds
        assert isinstance(info.value, KeyError)
        assert isinstance(info.value, ReproError)


class TestCommFailures:
    def test_recv_without_send_in_generated_pattern(self):
        """LocalComm.recv_all on an empty mailbox returns nothing; the
        generated program tolerates ranks with no incoming pieces (it
        zero-fills only regions it owns), so results stay exact even on
        grids where some ranks receive nothing."""
        prog = matmul()
        tree = expression_to_ptree(prog.statements[0].expr)
        grid = ProcessorGrid((4,))
        plan = optimize_distribution(tree, grid)
        arrays = random_inputs(prog, seed=1)
        run = run_spmd(plan, arrays)
        want = evaluate_expression(prog.statements[0].expr, arrays)
        np.testing.assert_allclose(run.result, want, rtol=1e-10)

    def test_dropped_message_detected(self):
        """Dropping one message corrupts the gathered result -- the
        validation harness (not silence) is what catches it."""
        prog = matmul()
        tree = expression_to_ptree(prog.statements[0].expr)
        grid = ProcessorGrid((2,))
        from repro.parallel.dist import Distribution, SINGLE

        pinned = Distribution((SINGLE,))
        plan = optimize_distribution(tree, grid, result_dist=pinned)
        arrays = random_inputs(prog, seed=2)
        want = evaluate_expression(prog.statements[0].expr, arrays)

        # sabotage: a comm that drops every second cross-rank message
        class LossyComm(LocalComm):
            def __init__(self, grid):
                super().__init__(grid)
                self._count = 0

            def send(self, source, dest, tag, payload):
                self._count += 1
                if source != dest and self._count % 2 == 0:
                    return  # dropped on the floor
                super().send(source, dest, tag, payload)

        from repro.parallel.spmd import generate_spmd_source

        source_code = generate_spmd_source(plan)
        namespace = {}
        exec(compile(source_code, "<spmd>", "exec"), namespace)
        program = namespace["rank_program"]
        comm = LossyComm(grid)
        states = {r: {} for r in grid.ranks()}
        gens = {r: program(r, comm, arrays, states[r]) for r in grid.ranks()}
        live = dict(gens)
        while live:
            done = []
            for rank, gen in live.items():
                try:
                    next(gen)
                except StopIteration:
                    done.append(rank)
            for rank in done:
                del live[rank]
        # assemble and verify the corruption is visible
        from repro.parallel.spmd_runtime import paste

        out = np.zeros((4, 4))
        touched = False
        for rank, state in states.items():
            box, blk = state.get("__result__", (None, None))
            if box is not None:
                paste(out, ((0, 4), (0, 4)), box, blk)
                touched = True
        if comm._count >= 2 and touched:
            assert not np.allclose(out, want)


class TestFaultTolerantSpmd:
    """Injected faults recovered by the runtime: results stay exact."""

    def _plan_and_inputs(self, seed=3):
        from repro.parallel.dist import Distribution, REPLICATED
        from repro.parallel.partition import canonical_plan

        prog = parse_program("""
        range N = 4;
        index a, i, j : N;
        tensor A(i, a); tensor B(a, j);
        C(i, j) = sum(a) A(i, a) * B(a, j);
        """)
        tree = expression_to_ptree(prog.statements[0].expr)
        grid = ProcessorGrid((4,))
        # canonical (unsearched) plan: every node block-distributed on
        # the first sorted index, here the summed one, so the program
        # genuinely communicates -- partials combine to a root, whose
        # sum is then moved out to every rank: two rounds, six messages
        # (the searched optimum on this tiny workload is
        # communication-free, and an input is never moved)
        plan = canonical_plan(
            tree, grid, result_dist=Distribution((REPLICATED,))
        )
        arrays = random_inputs(prog, seed=seed)
        want = evaluate_expression(prog.statements[0].expr, arrays)
        return plan, arrays, want

    def test_dropped_messages_recovered_by_retry(self):
        """Messages dropped within the retry limit are retransmitted;
        the run is bit-identical to a fault-free run."""
        plan, arrays, want = self._plan_and_inputs()
        clean = run_spmd(plan, arrays)
        faults = FaultSchedule(drop_messages=(0, 2), drop_attempts=1)
        run = run_spmd(plan, arrays, faults=faults)
        assert run.comm.dropped == 2
        assert run.comm.retries == 2
        assert np.array_equal(run.result, clean.result)
        np.testing.assert_allclose(run.result, want, rtol=1e-10)
        # retransmissions are charged: the lossy run sends strictly more
        assert run.comm.total_traffic > clean.comm.total_traffic

    def test_drop_beyond_retry_limit_raises(self):
        """A message dropped on MAX_RETRIES attempts is still delivered;
        one attempt more exhausts the retries."""
        plan, arrays, _ = self._plan_and_inputs()
        at_limit = FaultSchedule(drop_messages=(0,), drop_attempts=MAX_RETRIES)
        assert run_spmd(plan, arrays, faults=at_limit).comm.retries == 3
        faults = FaultSchedule(
            drop_messages=(0,), drop_attempts=MAX_RETRIES + 1
        )
        with pytest.raises(CommFailure, match=f"{MAX_RETRIES} retries"):
            run_spmd(plan, arrays, faults=faults)

    def test_rank_crash_restart_bit_identical(self):
        """A crashed superstep triggers a statement restart; the final
        result is bit-identical to a fault-free run."""
        plan, arrays, want = self._plan_and_inputs(seed=4)
        clean = run_spmd(plan, arrays)
        faults = FaultSchedule(crash_supersteps=(1,))
        run = run_spmd(plan, arrays, faults=faults)
        assert run.restarts == 1
        assert np.array_equal(run.result, clean.result)
        np.testing.assert_allclose(run.result, want, rtol=1e-10)

    def test_crash_beyond_restart_limit_raises(self, monkeypatch):
        from repro.parallel import session

        plan, arrays, _ = self._plan_and_inputs()
        monkeypatch.setattr(session, "MAX_RESTARTS", 2)
        faults = FaultSchedule(crash_supersteps=(0, 1, 2, 3, 4, 5))
        with pytest.raises(CommFailure, match="2 restarts"):
            run_spmd(plan, arrays, faults=faults)
