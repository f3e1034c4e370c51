"""Data distribution and communication minimization (paper Section 7).

Runs the distribution DP for a contraction on several processor-grid
shapes, prints the chosen n-tuple distributions, reproduces the paper's
redistribution examples (<1,t,j> -> <j,t,1> moves data; <j,*,1> ->
<j,t,1> is free), and runs each plan as generated SPMD rank programs on
the in-process grid to show model-vs-measured communication.

Usage::

    python examples/parallel_partitioning.py
"""

import numpy as np

from repro.expr.indices import Index, IndexRange
from repro.expr.parser import parse_program
from repro.engine.executor import evaluate_expression, random_inputs
from repro.parallel.commcost import CommModel, move_cost_elements, plan_traffic
from repro.parallel.dist import Distribution, REPLICATED, SINGLE
from repro.parallel.grid import ProcessorGrid
from repro.parallel.partition import optimize_distribution
from repro.parallel.ptree import expression_to_ptree
from repro.parallel.spmd import generate_spmd_source, run_spmd
from repro.report import format_table


def main() -> None:
    # --- the paper's redistribution example --------------------------------
    print("Section-7 redistribution example (2x2x2 grid, arrays T[j,t]):")
    N = IndexRange("N", 16)
    j, t = Index("j", N), Index("t", N)
    grid3 = ProcessorGrid((2, 2, 2))
    cases = [
        ("T1: <1,t,j> -> <j,t,1>", Distribution((SINGLE, t, j)),
         Distribution((j, t, SINGLE))),
        ("T2: <j,*,1> -> <j,t,1>", Distribution((j, REPLICATED, SINGLE)),
         Distribution((j, t, SINGLE))),
    ]
    rows = []
    for label, src, dst in cases:
        cost = move_cost_elements((j, t), src, dst, grid3)
        rows.append([label, cost, "moves data" if cost else "free"])
    print(format_table(["redistribution", "max recv (elems)", "verdict"], rows))

    # --- distribution DP for a contraction ---------------------------------
    prog = parse_program("""
    range N = 16;
    index i, j, k : N;
    tensor A(i, k); tensor B(k, j);
    C(i, j) = sum(k) A(i, k) * B(k, j);
    """)
    stmt = prog.statements[0]
    tree = expression_to_ptree(stmt.expr)
    model = CommModel(flop_cost=1.0, comm_cost=10.0)
    arrays = random_inputs(prog, seed=0)
    want = evaluate_expression(stmt.expr, arrays)

    print("\nC[i,j] = sum_k A[i,k] B[k,j] on different grids:")
    rows = []
    for dims in [(1,), (2,), (4,), (2, 2), (8,)]:
        grid = ProcessorGrid(dims)
        plan = optimize_distribution(tree, grid, model)
        run = run_spmd(plan, arrays)
        np.testing.assert_allclose(run.result, want, rtol=1e-10)
        received, ops = plan_traffic(plan)
        # what the ranks sent, plus the moves of inputs the schedule
        # turned into placement, is what the model's walk receives
        moved = run.comm.total_traffic + run.placed_elements
        assert moved == sum(received.values())
        rows.append(
            [str(grid), f"{plan.total_cost:,.0f}",
             max(ops.values()), run.comm.total_traffic, run.placed_elements,
             str(plan.dist[id(tree)])]
        )
    print(format_table(
        ["grid", "modeled cost", "max local ops", "elements sent",
         "elements placed", "result distribution"],
        rows,
    ))

    print("\nchosen plan on the 2x2 grid:")
    plan = optimize_distribution(tree, ProcessorGrid((2, 2)), model)
    print(plan.describe())

    # --- generated parallel program -----------------------------------------
    src = generate_spmd_source(plan)
    print("\ngenerated SPMD rank program (first 25 lines):")
    print("\n".join(src.splitlines()[:25]))
    run = run_spmd(plan, arrays)
    np.testing.assert_allclose(run.result, want, rtol=1e-10)
    print(f"\nlock-step execution on 4 ranks: {run.supersteps} supersteps, "
          f"{run.comm.total_traffic} elements moved")
    print("all plans + the generated SPMD program verified against the "
          "einsum reference  [OK]")


if __name__ == "__main__":
    main()
