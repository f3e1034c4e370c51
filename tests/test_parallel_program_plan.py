"""Tests for whole-sequence distribution planning."""

import numpy as np
import pytest

from repro.expr.parser import parse_program
from repro.engine.executor import evaluate_expression, random_inputs, run_statements
from repro.opmin.multi_term import optimize_program, optimize_statement
from repro.parallel.commcost import CommModel
from repro.parallel.grid import ProcessorGrid
from repro.parallel.program_plan import (
    inline_sequence,
    plan_sequence,
    sequence_tree,
)
from repro.parallel.ptree import expression_to_ptree
from repro.parallel.spmd import run_spmd
from repro.expr.canonical import canonical_key

CHAIN_SRC = """
range N = 6;
index i, j, k, l : N;
tensor A(i, k); tensor B(k, l); tensor C(l, j);
D(i, j) = sum(k, l) A(i, k) * B(k, l) * C(l, j);
"""

# two results: C (through the temporary T) and D, which nothing reads
THREE_SRC = """
range N = 6;
index i, j, k : N;
tensor A(i, k); tensor B(k, j);
T(i, j) = sum(k) A(i, k) * B(k, j);
C(i, j) = sum(k) T(i, k) * B(k, j);
D(i, j) = sum(k) B(i, k) * A(k, j);
"""


@pytest.fixture
def chain_seq():
    prog = parse_program(CHAIN_SRC)
    return prog, optimize_statement(prog.statements[0])


class TestInlineSequence:
    def test_inlined_expression_equals_original(self, chain_seq):
        """Inlining the formula sequence recovers an expression
        canonically equal to the original statement."""
        prog, seq = chain_seq
        whole = inline_sequence(seq)
        assert canonical_key(whole) == canonical_key(prog.statements[0].expr)

    def test_inlined_numerics(self, chain_seq):
        prog, seq = chain_seq
        whole = inline_sequence(seq)
        arrays = random_inputs(prog, seed=3)
        want = evaluate_expression(prog.statements[0].expr, arrays)
        got = evaluate_expression(whole, arrays)
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_shared_temp_rejected(self):
        src = """
        range N = 4;
        index a, b, c : N;
        tensor A(a, b);
        X(a, b) = A(a, b);
        S(a) = sum(b, c) X(a, b) * X(b, c);
        """
        prog = parse_program(src)
        with pytest.raises(ValueError, match="several consumers"):
            inline_sequence(prog.statements)

    def test_accumulate_rejected(self):
        src = """
        range N = 4; index a : N; tensor A(a);
        S(a) += A(a);
        """
        prog = parse_program(src)
        with pytest.raises(ValueError, match="accumulating"):
            inline_sequence(prog.statements)

    def test_unread_result_rejected(self):
        """A second result is a second tree: inlining the last one would
        drop it, so the sequence is the statementwise planner's."""
        prog = parse_program(THREE_SRC)
        with pytest.raises(ValueError, match="no later statement reads"):
            inline_sequence(prog.statements)
        assert sequence_tree(prog.statements) is None
        # ... while the chain that feeds the last result still inlines
        assert sequence_tree(prog.statements[:2]) is not None

    def test_renamed_temp_reference(self):
        """A temp referenced with renamed indices inlines correctly."""
        src = """
        range N = 5;
        index a, b, c : N;
        tensor A(a, b);
        T(a, b) = A(a, b);
        S(a, c) = T(c, a);
        """
        prog = parse_program(src)
        whole = inline_sequence(prog.statements)
        arrays = random_inputs(prog, seed=4)
        env = run_statements(prog.statements, arrays)
        got = evaluate_expression(whole, arrays)
        # run_statements stores S with axes (a, c); evaluate returns
        # sorted-free order (a, c) as well
        np.testing.assert_allclose(got, env["S"], rtol=1e-12)


class TestPlanSequence:
    def test_tree_sequence_planned_in_one_dp(self, chain_seq):
        prog, seq = chain_seq
        grid = ProcessorGrid((2,))
        plan = plan_sequence(seq, grid)
        assert len(plan.plans) == 1
        assert plan.plans[0][0] == "D"

    def test_whole_tree_plan_at_most_statementwise(self, chain_seq):
        """Planning the full tree can exploit distribution reuse that
        statement-at-a-time planning pays for."""
        from repro.parallel.program_plan import _plan_statementwise

        prog, seq = chain_seq
        grid = ProcessorGrid((2, 2))
        model = CommModel()
        whole = plan_sequence(seq, grid, model)
        piecewise = _plan_statementwise(seq, grid, model, None)
        assert whole.total_cost <= piecewise.total_cost

    def test_shared_temp_falls_back(self):
        src = """
        range N = 4;
        index a, b, c : N;
        tensor A(a, b);
        X(a, b) = A(a, b);
        S(a) = sum(b, c) X(a, b) * X(b, c);
        """
        prog = parse_program(src)
        grid = ProcessorGrid((2,))
        plan = plan_sequence(prog.statements, grid)
        assert len(plan.plans) == 2

    def test_every_statement_of_a_two_result_program_is_planned(self):
        prog = parse_program(THREE_SRC)
        plan = plan_sequence(prog.statements, ProcessorGrid((2,)))
        assert [name for name, _ in plan.plans] == ["T", "C", "D"]

    def test_fallback_charges_pinned_leaf_moves(self):
        """In statement-wise planning the produced distribution of a
        temp is charged when the consumer wants it elsewhere."""
        src = """
        range N = 8;
        index a, b, c : N;
        tensor A(a, b); tensor B(b, c);
        X(a, b) = A(a, b);
        Y(a, b) = X(a, b);
        S(a) = sum(b, c) Y(a, b) * X(b, c) * B(b, c);
        """
        prog = parse_program(src)
        grid = ProcessorGrid((4,))
        plan = plan_sequence(prog.statements, grid, CommModel(comm_cost=100))
        assert plan.total_cost >= 0
        assert "X" in plan.produced_dist

    def test_describe(self, chain_seq):
        prog, seq = chain_seq
        plan = plan_sequence(seq, ProcessorGrid((2,)))
        text = plan.describe()
        assert "total modeled cost" in text
        assert "D" in text

    def test_sequence_plan_simulates_correctly(self, chain_seq):
        prog, seq = chain_seq
        grid = ProcessorGrid((2, 2))
        plan = plan_sequence(seq, grid)
        arrays = random_inputs(prog, seed=6)
        want = evaluate_expression(prog.statements[0].expr, arrays)
        name, pplan = plan.plans[0]
        run = run_spmd(pplan, arrays)
        np.testing.assert_allclose(run.result, want, rtol=1e-10)


class TestMultiTermFallback:
    def test_add_statement_handled(self):
        src = """
        range N = 5;
        index a, b : N;
        tensor A(a, b); tensor B(a, b);
        S(a) = sum(b) A(a, b) * A(a, b) + sum(b) B(a, b) * B(a, b);
        """
        prog = parse_program(src)
        seq = optimize_program(prog)
        grid = ProcessorGrid((2,))
        plan = plan_sequence(seq, grid)
        # the two term temporaries get plans; the Add combine does not
        planned = {name for name, _ in plan.plans}
        assert len(planned) >= 2
        assert "S" not in planned
