"""E10 extension -- generated parallel programs.

The synthesized SPMD rank programs (the paper-title deliverable) are
executed in lock step on the virtual grid: per-grid speedup of the
maximum per-rank work, traffic equal to the cost model's prediction, and
exact numerics.
"""

import numpy as np
import pytest

from repro.expr.parser import parse_program
from repro.engine.executor import evaluate_expression, random_inputs
from repro.parallel.grid import ProcessorGrid
from repro.parallel.partition import optimize_distribution
from repro.parallel.ptree import expression_to_ptree
from repro.parallel.simulate import GridSimulator
from repro.parallel.spmd import generate_spmd_source, run_spmd


@pytest.fixture(scope="module")
def problem():
    prog = parse_program("""
    range N = 16;
    index i, j, k : N;
    tensor A(i, k); tensor B(k, j);
    C(i, j) = sum(k) A(i, k) * B(k, j);
    """)
    stmt = prog.statements[0]
    return expression_to_ptree(stmt.expr), stmt, prog


def test_spmd_grid_sweep(problem, record_rows):
    tree, stmt, prog = problem
    arrays = random_inputs(prog, seed=0)
    want = evaluate_expression(stmt.expr, arrays)
    rows = []
    for dims in [(1,), (2,), (4,), (2, 2), (8,), (2, 4)]:
        grid = ProcessorGrid(dims)
        plan = optimize_distribution(tree, grid)
        run = run_spmd(plan, arrays)
        np.testing.assert_allclose(run.result, want, rtol=1e-10)
        rows.append(
            [str(grid), f"{plan.total_cost:,.0f}", run.comm.total_traffic,
             run.supersteps, len(run.source.splitlines())]
        )
    record_rows(
        "generated SPMD programs (matmul 16^3)",
        ["grid", "modeled cost", "elements moved", "supersteps",
         "program lines"],
        rows,
    )


def test_spmd_traffic_equals_simulator(problem):
    tree, stmt, prog = problem
    arrays = random_inputs(prog, seed=1)
    for dims in [(2,), (2, 2), (4,)]:
        grid = ProcessorGrid(dims)
        plan = optimize_distribution(tree, grid)
        run = run_spmd(plan, arrays)
        _, report = GridSimulator(grid).run(plan, arrays)
        assert (
            run.comm.total_traffic + run.placed_elements
            == report.total_received
        )


def test_benchmark_spmd_execution(benchmark, problem):
    tree, stmt, prog = problem
    grid = ProcessorGrid((2, 2))
    plan = optimize_distribution(tree, grid)
    arrays = random_inputs(prog, seed=2)
    run = benchmark(run_spmd, plan, arrays)
    assert run.result.shape == (16, 16)


def test_benchmark_spmd_codegen(benchmark, problem):
    tree, stmt, prog = problem
    grid = ProcessorGrid((2, 2))
    plan = optimize_distribution(tree, grid)
    src = benchmark(generate_spmd_source, plan)
    assert "yield" in src
