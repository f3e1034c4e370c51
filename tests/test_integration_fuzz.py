"""End-to-end property tests: every transformation must preserve
semantics on randomized workloads.

These are the repository's strongest correctness guarantees: a random
contraction program is pushed through operation minimization, fusion,
tiling, the full pipeline, and the distribution planner, and every
variant's output is compared element-wise against the reference einsum
evaluation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SynthesisConfig, synthesize
from repro.chem.workloads import random_contraction_program
from repro.engine.executor import evaluate_expression, random_inputs, run_statements
from repro.codegen.builder import apply_tiling, build_fused, build_unfused
from repro.codegen.interp import execute
from repro.codegen.loops import Alloc, loop_op_count, walk
from repro.codegen.pygen import compile_loops
from repro.fusion.memopt import minimize_memory
from repro.fusion.tree import build_forest
from repro.opmin.multi_term import optimize_statement
from repro.parallel.grid import ProcessorGrid
from repro.parallel.partition import optimize_distribution
from repro.parallel.program_plan import plan_sequence
from repro.parallel.spmd import run_spmd


def reference(prog, arrays):
    stmt = prog.statements[0]
    return evaluate_expression(stmt.expr, arrays), stmt


def sorted_result(env, stmt):
    """Result array with axes in sorted-index order (the reference's)."""
    value = env[stmt.result.name]
    order = tuple(
        stmt.result.indices.index(i) for i in sorted(stmt.result.indices)
    )
    return np.transpose(value, order) if order else value


@pytest.mark.parametrize("seed", range(15))
def test_opmin_plus_fusion_preserves_semantics(seed):
    prog = random_contraction_program(seed, n_tensors=4, n_indices=6)
    arrays = random_inputs(prog, seed=seed)
    want, stmt = reference(prog, arrays)

    seq = optimize_statement(stmt)
    forest = build_forest(seq)
    blocks = []
    for root in forest:
        blocks.extend(build_fused(minimize_memory(root)))
    env = execute(tuple(blocks), arrays)
    np.testing.assert_allclose(sorted_result(env, stmt), want, rtol=1e-8)


@pytest.mark.parametrize("seed", range(10))
def test_random_tiling_preserves_semantics(seed):
    """Tile a random subset of indices of the unfused structure (all
    arrays kept global); results must be identical, including uneven
    block sizes."""
    import random

    prog = random_contraction_program(seed + 100, n_tensors=3, n_indices=5)
    arrays = random_inputs(prog, seed=seed)
    want, stmt = reference(prog, arrays)
    seq = optimize_statement(stmt)
    block = build_unfused(seq)
    keep = [a.array for a in walk(block) if isinstance(a, Alloc)]

    rng = random.Random(seed)
    all_indices = sorted(
        set(stmt.expr.free)
        | {i for t in [stmt] for s in seq for i in s.expr.free}
    )
    candidates = sorted({i for s in seq for i in s.expr.free})
    if not candidates:
        return
    chosen = rng.sample(candidates, min(2, len(candidates)))
    tiles = {i: rng.choice([2, 3]) for i in chosen}
    try:
        tiled = apply_tiling(block, tiles, keep_global=keep)
    except ValueError:
        return  # would double-count: correctly rejected
    # semantics preserved even when the hoisted tile loops redundantly
    # re-execute idempotent statements; and the static op count agrees
    # exactly with what the interpreter measures (guards included)
    from repro.engine.counters import Counters

    counters = Counters()
    env = execute(tiled, arrays, counters=counters)
    assert counters.total_ops == loop_op_count(tiled)
    np.testing.assert_allclose(sorted_result(env, stmt), want, rtol=1e-8)


@pytest.mark.parametrize("seed", range(8))
def test_full_pipeline_on_random_programs(seed):
    prog = random_contraction_program(seed + 200, n_tensors=4, n_indices=5)
    arrays = random_inputs(prog, seed=seed)
    want, stmt = reference(prog, arrays)
    result = synthesize(prog, SynthesisConfig(optimize_cache=(seed % 2 == 0)))
    env = result.execute(arrays)
    np.testing.assert_allclose(sorted_result(env, stmt), want, rtol=1e-8)
    # and through the generated-code path
    kernel = result.compile()
    env2 = kernel(arrays)
    np.testing.assert_allclose(
        sorted_result(env2, stmt), want, rtol=1e-8
    )


@pytest.mark.parametrize("seed", range(6))
def test_distribution_plans_on_random_programs(seed):
    prog = random_contraction_program(seed + 300, n_tensors=3, n_indices=4)
    arrays = random_inputs(prog, seed=seed)
    want, stmt = reference(prog, arrays)
    seq = optimize_statement(stmt)
    grid = ProcessorGrid((2, 2))
    plan = plan_sequence(seq, grid)
    env = dict(arrays)
    for name, pplan in plan.plans:
        got = run_spmd(pplan, env).result
        target = next(s for s in seq if s.result.name == name)
        order = tuple(
            sorted(target.result.indices).index(i)
            for i in target.result.indices
        )
        env[name] = np.transpose(got, order) if order else got
    final = sorted_result(env, seq[-1]) if seq[-1].result.name in env else None
    if final is not None:
        np.testing.assert_allclose(final, want, rtol=1e-8)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_interpreter_equals_generated_code(seed):
    """interp.execute and pygen.compile_loops are two independent
    consumers of the IR; they must agree exactly."""
    prog = random_contraction_program(seed, n_tensors=3, n_indices=5)
    arrays = random_inputs(prog, seed=seed)
    stmt = prog.statements[0]
    seq = optimize_statement(stmt)
    block = build_unfused(seq)
    interp_env = execute(block, arrays)
    kernel = compile_loops(block)
    compiled_env = kernel(arrays)
    for name in interp_env:
        np.testing.assert_allclose(
            compiled_env[name], interp_env[name], rtol=1e-12
        )
