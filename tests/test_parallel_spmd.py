"""Tests for SPMD code generation and the lock-step driver."""

import numpy as np
import pytest

from repro.expr.parser import parse_program
from repro.engine.executor import evaluate_expression, random_inputs
from repro.parallel.commcost import CommModel
from repro.parallel.dist import enumerate_distributions
from repro.parallel.grid import ProcessorGrid
from repro.parallel.partition import optimize_distribution
from repro.parallel.ptree import expression_to_ptree
from repro.parallel.simulate import GridSimulator
from repro.parallel.spmd import (
    LocalComm,
    compile_schedule,
    generate_spmd_source,
    run_spmd,
)
from repro.parallel import spmd_runtime as rt


def matmul(n=8):
    prog = parse_program(f"""
    range N = {n};
    index i, j, k : N;
    tensor A(i, k); tensor B(k, j);
    C(i, j) = sum(k) A(i, k) * B(k, j);
    """)
    stmt = prog.statements[0]
    return expression_to_ptree(stmt.expr), stmt, prog


class TestRuntimeHelpers:
    def test_box_difference_disjoint(self):
        a = ((0, 4), (0, 4))
        b = ((10, 12), (0, 4))
        assert rt.box_difference(a, b) == [a]

    def test_box_difference_contained(self):
        a = ((0, 4), (0, 4))
        assert rt.box_difference(a, a) == []

    def test_box_difference_partial(self):
        a = ((0, 4), (0, 4))
        b = ((2, 6), (1, 3))
        pieces = rt.box_difference(a, b)
        total = sum(rt.box_volume(p) for p in pieces)
        assert total == 16 - rt.box_volume(rt.box_intersect(a, b))
        # pieces are disjoint
        for i in range(len(pieces)):
            for j in range(i + 1, len(pieces)):
                assert rt.box_empty(rt.box_intersect(pieces[i], pieces[j]))

    def test_paste_extract_roundtrip(self):
        block = np.arange(12.0).reshape(3, 4)
        box = ((2, 5), (1, 5))
        piece_box = ((3, 5), (2, 4))
        piece = rt.extract(block, box, piece_box)
        target = np.zeros((3, 4))
        rt.paste(target, box, piece_box, piece)
        np.testing.assert_array_equal(
            target[1:3, 1:3], block[1:3, 1:3]
        )


class TestSchedule:
    def test_schedule_ends_with_result(self):
        tree, _, _ = matmul()
        plan = optimize_distribution(tree, ProcessorGrid((2,)))
        steps = compile_schedule(plan)
        assert steps[-1].kind == "result"
        kinds = [s.kind for s in steps]
        # the product and the partial sum above it are one local step
        assert "slice" in kinds and kinds.count("contract") == 1
        assert "mul" not in kinds and "partial" not in kinds
        (contract,) = [s for s in steps if s.kind == "contract"]
        assert [i.name for i in contract.args[4]] == ["k"]

    def test_replicate_option_adds_bcast(self):
        tree, _, _ = matmul()
        grid = ProcessorGrid((2,))
        # pin a replicated result to force the replicate option's path
        from repro.parallel.dist import Distribution, REPLICATED

        alpha = Distribution((REPLICATED,))
        plan = optimize_distribution(tree, grid, result_dist=alpha)
        steps = compile_schedule(plan)
        if plan.sum_option[id(tree)] == "replicate":
            assert any(s.kind == "bcast" for s in steps)


class TestGeneratedProgram:
    @pytest.mark.parametrize("dims", [(1,), (2,), (4,), (2, 2)])
    def test_numerics(self, dims):
        tree, stmt, prog = matmul()
        grid = ProcessorGrid(dims)
        plan = optimize_distribution(tree, grid)
        arrays = random_inputs(prog, seed=1)
        want = evaluate_expression(stmt.expr, arrays)
        run = run_spmd(plan, arrays)
        np.testing.assert_allclose(run.result, want, rtol=1e-10)

    def test_source_is_readable_python(self):
        tree, _, _ = matmul()
        plan = optimize_distribution(tree, ProcessorGrid((2, 2)))
        src = generate_spmd_source(plan)
        compile(src, "<test>", "exec")
        assert "def rank_program(rank, comm, arrays, state):" in src
        assert "yield" in src
        assert "comm.send" in src or "redistribute" not in src

    def test_single_rank_no_traffic(self):
        tree, stmt, prog = matmul()
        plan = optimize_distribution(tree, ProcessorGrid((1,)))
        run = run_spmd(plan, random_inputs(prog, seed=2))
        assert run.comm.total_traffic == 0

    def test_traffic_matches_simulator(self):
        """The generated program's transferred volume equals the
        simulator's received-element count (same model, two
        implementations)."""
        tree, stmt, prog = matmul()
        grid = ProcessorGrid((2, 2))
        arrays = random_inputs(prog, seed=3)
        for alpha in enumerate_distributions(tree.indices, grid)[:6]:
            plan = optimize_distribution(
                tree, grid, CommModel(), result_dist=alpha
            )
            run = run_spmd(plan, arrays)
            _, report = GridSimulator(grid).run(plan, arrays)
            assert run.comm.total_traffic == report.total_received, str(alpha)

    def test_supersteps_bounded(self):
        tree, _, prog = matmul()
        plan = optimize_distribution(tree, ProcessorGrid((2,)))
        run = run_spmd(plan, random_inputs(prog, seed=4))
        comms = sum(
            s.kind in ("move", "combine", "bcast")
            for s in compile_schedule(plan)
        )
        # only communication ends a superstep: at most two per
        # communicating step, plus the final StopIteration round
        assert comms >= 1
        assert run.supersteps <= 2 * comms + 1

    def test_three_factor_chain(self):
        prog = parse_program("""
        range N = 6;
        index i, j, k, l : N;
        tensor A(i, k); tensor B(k, l); tensor C(l, j);
        D(i, j) = sum(k, l) A(i, k) * B(k, l) * C(l, j);
        """)
        stmt = prog.statements[0]
        tree = expression_to_ptree(stmt.expr)
        grid = ProcessorGrid((2, 2))
        plan = optimize_distribution(tree, grid)
        arrays = random_inputs(prog, seed=5)
        want = evaluate_expression(stmt.expr, arrays)
        run = run_spmd(plan, arrays)
        np.testing.assert_allclose(run.result, want, rtol=1e-10)

    def test_uneven_extents(self):
        """Extents not divisible by the grid exercise unbalanced blocks
        and boundary boxes."""
        prog = parse_program("""
        range P = 7; range Q = 5; range R = 9;
        index p : P; index q : Q; index r : R;
        tensor A(p, q); tensor B(q, r);
        C(p, r) = sum(q) A(p, q) * B(q, r);
        """)
        stmt = prog.statements[0]
        tree = expression_to_ptree(stmt.expr)
        for dims in [(2,), (3,), (2, 2)]:
            plan = optimize_distribution(tree, ProcessorGrid(dims))
            arrays = random_inputs(prog, seed=6)
            want = evaluate_expression(stmt.expr, arrays)
            run = run_spmd(plan, arrays)
            np.testing.assert_allclose(run.result, want, rtol=1e-10)


class TestLocalComm:
    def test_counters(self):
        grid = ProcessorGrid((2,))
        comm = LocalComm(grid)
        comm.send((0,), (1,), "t", (((0, 2),), np.ones(2)))
        assert comm.sent_elements[(0,)] == 2
        assert comm.received_elements[(1,)] == 2
        assert comm.messages == 1
        got = comm.recv_all((1,), "t")
        assert len(got) == 1

    def test_local_handoff_free(self):
        grid = ProcessorGrid((2,))
        comm = LocalComm(grid)
        comm.send((0,), (0,), "t", (((0, 2),), np.ones(2)))
        assert comm.total_traffic == 0
