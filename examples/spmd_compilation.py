"""Compilation into parallel programs (the paper's title, end to end).

Takes a contraction, runs the Section-7 distribution DP, compiles the
plan to a per-rank SPMD Python program, prints the program, executes it
on the in-process lock-step driver (the mpiexec stand-in), and verifies
both the numerics and that the traffic equals the cost model's
prediction.

Usage::

    python examples/spmd_compilation.py
"""

import numpy as np

from repro.expr.parser import parse_program
from repro.engine.executor import evaluate_expression, random_inputs
from repro.parallel.commcost import CommModel, plan_traffic
from repro.parallel.gridsearch import choose_grid
from repro.parallel.ptree import expression_to_ptree
from repro.parallel.spmd import compile_schedule, generate_spmd_source, run_spmd
from repro.report import format_table


def main() -> None:
    prog = parse_program("""
    range M = 32; range N = 8; range K = 32;
    index i : M; index j : N; index k : K;
    tensor A(i, k); tensor B(k, j);
    C(i, j) = sum(k) A(i, k) * B(k, j);
    """)
    stmt = prog.statements[0]
    tree = expression_to_ptree(stmt.expr)

    # the compiler picks the logical grid shape for 8 processors
    choice = choose_grid(tree, 8, CommModel())
    plan = choice.plan
    print("grid-shape search for 8 processors:")
    print(format_table(
        ["shape", "modeled cost"],
        [["x".join(map(str, s)), f"{c:,.0f}"]
         for s, c in sorted(choice.table, key=lambda t: t[1])],
    ))
    print(f"\nchosen: {choice.grid}\n")
    print("plan:")
    print(plan.describe())

    schedule = compile_schedule(plan)
    print(f"\nlowered schedule ({len(schedule)} steps):")
    for k, step in enumerate(schedule):
        print(f"  {k}: {step.kind} -> {step.out}")

    source = generate_spmd_source(plan)
    print(f"\ngenerated SPMD rank program ({len(source.splitlines())} lines),"
          " first 40:")
    print("\n".join(source.splitlines()[:40]))

    arrays = random_inputs(prog, seed=0)
    run = run_spmd(plan, arrays)
    want = evaluate_expression(stmt.expr, arrays)
    np.testing.assert_allclose(run.result, want, rtol=1e-10)

    received, _ = plan_traffic(plan)
    print(format_table(
        ["check", "value"],
        [
            ["supersteps", run.supersteps],
            ["elements moved (generated program)", run.comm.total_traffic],
            ["elements placed instead of moved", run.placed_elements],
            ["elements received (cost-model walk)", sum(received.values())],
            ["max |result error| vs einsum",
             f"{float(np.max(np.abs(run.result - want))):.2e}"],
        ],
    ))
    # an input the plan redistributes is sliced where it is needed: the
    # model's charge for that move is counted as placed, not sent
    moved = run.comm.total_traffic + run.placed_elements
    assert moved == sum(received.values())
    print("\ngenerated parallel program verified: exact numerics, traffic "
          "equals the model  [OK]")


if __name__ == "__main__":
    main()
