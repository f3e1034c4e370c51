"""Tests for the combine of partial sums: everyone sends its partial
block to the root of the summed processor dimension (model, walk and
session agree)."""

import numpy as np

from repro.expr.indices import Index, IndexRange
from repro.expr.parser import parse_program
from repro.engine.executor import evaluate_expression, random_inputs
from repro.parallel.commcost import plan_traffic, reduction_comm_elements
from repro.parallel.dist import Distribution
from repro.parallel.grid import ProcessorGrid
from repro.parallel.partition import canonical_plan, optimize_distribution
from repro.parallel.ptree import expression_to_ptree
from repro.parallel.spmd import run_spmd

N = IndexRange("N", 16)
J, K = Index("j", N), Index("k", N)


class TestModel:
    def test_root_receives_p_minus_one_blocks(self):
        dist = Distribution((K,))
        assert reduction_comm_elements((J,), dist, K, ProcessorGrid((8,))) == 7 * 16
        assert reduction_comm_elements((J,), dist, K, ProcessorGrid((2,))) == 16


def matmul(n=8):
    prog = parse_program(f"""
    range N = {n};
    index i, j, k : N;
    tensor A(i, k); tensor B(k, j);
    C(i, j) = sum(k) A(i, k) * B(k, j);
    """)
    stmt = prog.statements[0]
    return expression_to_ptree(stmt.expr), stmt, prog


class TestSession:
    def test_numerics_match_oracle(self):
        tree, stmt, prog = matmul()
        grid = ProcessorGrid((8,))
        plan = optimize_distribution(tree, grid)
        arrays = random_inputs(prog, seed=0)
        want = evaluate_expression(stmt.expr, arrays)
        np.testing.assert_allclose(run_spmd(plan, arrays).result, want, rtol=1e-10)

    def test_model_matches_walked_root_receive(self):
        """For a plan that combines over k on a 2x4 grid, the root's
        walked receive is the model's reduction charge, and the session
        sends exactly that."""
        prog = parse_program("""
        range N = 8;
        index j, k : N;
        tensor A(k, j);
        S(j) = sum(k) A(k, j);
        """)
        stmt = prog.statements[0]
        ptree = expression_to_ptree(stmt.expr)
        grid = ProcessorGrid((2, 4))
        plan = canonical_plan(ptree, grid)
        gamma = plan.gamma[id(ptree)]
        k = next(x for x in stmt.expr.indices if x.name == "k")
        assert gamma.position_of(k) == 1
        received, _ = plan_traffic(plan)
        predicted = reduction_comm_elements(tuple(ptree.indices), gamma, k, grid)
        assert predicted == 3 * 4
        assert max(received.values()) == predicted
        arrays = random_inputs(prog, seed=2)
        run = run_spmd(plan, arrays)
        assert run.comm.total_traffic == sum(received.values())
        want = evaluate_expression(stmt.expr, arrays)
        np.testing.assert_allclose(run.result, want, rtol=1e-10)
