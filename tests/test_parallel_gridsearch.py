"""Tests for logical grid-shape selection."""

import numpy as np
import pytest

from repro.expr.parser import parse_program
from repro.engine.executor import evaluate_expression, random_inputs
from repro.parallel.commcost import CommModel
from repro.parallel.gridsearch import choose_grid, grid_shapes
from repro.parallel.grid import ProcessorGrid
from repro.parallel.partition import optimize_distribution
from repro.parallel.ptree import expression_to_ptree
from repro.parallel.spmd import run_spmd


def matmul_tree(n=8):
    prog = parse_program(f"""
    range N = {n};
    index i, j, k : N;
    tensor A(i, k); tensor B(k, j);
    C(i, j) = sum(k) A(i, k) * B(k, j);
    """)
    stmt = prog.statements[0]
    return expression_to_ptree(stmt.expr), stmt, prog


class TestGridShapes:
    def test_sixteen(self):
        shapes = set(grid_shapes(16, max_dims=3))
        assert (16,) in shapes
        assert (4, 4) in shapes
        assert (2, 8) in shapes and (8, 2) in shapes
        assert (2, 2, 4) in shapes
        for shape in shapes:
            prod = 1
            for p in shape:
                prod *= p
            assert prod == 16

    def test_prime(self):
        assert grid_shapes(7) == [(7,)]

    def test_one(self):
        assert grid_shapes(1) == [(1,)]

    def test_max_dims_respected(self):
        shapes = grid_shapes(16, max_dims=2)
        assert all(len(s) <= 2 for s in shapes)


class TestChooseGrid:
    def test_beats_or_matches_every_shape(self):
        tree, stmt, prog = matmul_tree()
        choice = choose_grid(tree, 8)
        for shape, cost in choice.table:
            assert choice.plan.total_cost <= cost

    def test_matches_manual_best(self):
        tree, stmt, prog = matmul_tree()
        model = CommModel()
        choice = choose_grid(tree, 4, model)
        manual = min(
            optimize_distribution(
                tree, ProcessorGrid(shape), model
            ).total_cost
            for shape in [(4,), (2, 2)]
        )
        assert choice.plan.total_cost == pytest.approx(manual)

    def test_chosen_plan_executes_correctly(self):
        tree, stmt, prog = matmul_tree()
        choice = choose_grid(tree, 4)
        arrays = random_inputs(prog, seed=0)
        want = evaluate_expression(stmt.expr, arrays)
        run = run_spmd(choice.plan, arrays)
        np.testing.assert_allclose(run.result, want, rtol=1e-10)

    def test_invalid_count(self):
        tree, _, _ = matmul_tree()
        with pytest.raises(ValueError):
            choose_grid(tree, 0)

    def test_table_covers_all_shapes(self):
        tree, _, _ = matmul_tree()
        choice = choose_grid(tree, 8, max_dims=3)
        shapes = {s for s, _ in choice.table}
        assert shapes == set(grid_shapes(8, max_dims=3))
