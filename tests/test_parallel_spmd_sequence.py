"""Sequence-level SPMD execution tests."""

import numpy as np
import pytest

from repro.expr.parser import parse_program
from repro.engine.executor import evaluate_expression, random_inputs, run_statements
from repro.opmin.multi_term import optimize_program, optimize_statement
from repro.parallel.grid import ProcessorGrid
from repro.parallel.program_plan import plan_sequence
from repro.parallel.session import plan_session, run_session


class TestRunSpmdSequence:
    def test_chain_sequence(self):
        prog = parse_program("""
        range N = 6;
        index i, j, k, l : N;
        tensor A(i, k); tensor B(k, l); tensor C(l, j);
        D(i, j) = sum(k, l) A(i, k) * B(k, l) * C(l, j);
        """)
        stmt = prog.statements[0]
        seq = optimize_statement(stmt)
        grid = ProcessorGrid((2, 2))
        plan = plan_sequence(seq, grid)
        arrays = random_inputs(prog, seed=0)
        out = run_session(plan_session(seq, plan.plans), arrays)
        want = evaluate_expression(stmt.expr, arrays)
        # D declared (i,j) == sorted order here
        np.testing.assert_allclose(out.arrays["D"], want, rtol=1e-10)
        assert out.total_supersteps > 0

    def test_shared_temp_fallback_sequence(self):
        """Statement-wise plans (CSE-shared temp) execute correctly
        with declared-order handoff between programs."""
        prog = parse_program("""
        range N = 5;
        index a, b, c : N;
        tensor A(a, b); tensor B(b, c);
        X(b, a) = A(a, b);
        S(a, c) = sum(b) X(b, a) * B(b, c);
        Y(a) = sum(b) X(b, a) * A(a, b);
        """)
        grid = ProcessorGrid((2,))
        plan = plan_sequence(prog.statements, grid)
        assert len(plan.plans) >= 2  # X shared by two consumers
        arrays = random_inputs(prog, seed=1)
        out = run_session(plan_session(prog.statements, plan.plans), arrays)
        want = run_statements(prog.statements, arrays)
        for name in ("S", "Y"):
            np.testing.assert_allclose(
                out.arrays[name], want[name], rtol=1e-10, err_msg=name
            )

    def test_transposed_declared_order(self):
        """A result declared in non-sorted order must be stored with
        declared axes for downstream consumers."""
        prog = parse_program("""
        range P = 3; range Q = 4;
        index p : P; index q : Q;
        tensor A(p, q);
        T(q, p) = A(p, q);
        S(q, p) = T(q, p);
        """)
        grid = ProcessorGrid((2,))
        plan = plan_sequence(prog.statements, grid)
        arrays = random_inputs(prog, seed=2)
        out = run_session(plan_session(prog.statements, plan.plans), arrays)
        np.testing.assert_array_equal(out.arrays["S"], arrays["A"].T)

    def test_traffic_aggregated(self):
        prog = parse_program("""
        range N = 8;
        index i, j, k : N;
        tensor A(i, k); tensor B(k, j);
        C(i, j) = sum(k) A(i, k) * B(k, j);
        """)
        seq = optimize_program(prog)
        grid = ProcessorGrid((4,))
        plan = plan_sequence(seq, grid)
        arrays = random_inputs(prog, seed=3)
        out = run_session(plan_session(seq, plan.plans), arrays)
        assert out.total_traffic == sum(
            run.comm.total_traffic for _, run in out.runs
        )
