"""Interpreter for the loop IR.

Executes a loop structure element by element against numpy arrays,
tallying measured counters (arithmetic ops, function evaluations,
allocated elements).  Slow by design -- it exists to *validate* that
transformed structures (fused, tiled) compute exactly what the reference
einsum executor computes, and that measured operation counts match the
analytic cost models.  Use small bindings.

Tile-boundary semantics: when an index ``a`` is split into
``(a_t, a_i)``, iterations whose reconstructed global value
``a_t*B + a_i`` falls outside the index extent are skipped (the
generated-code equivalent of an ``if a < N`` guard).

Robustness: inputs are validated against the structure's inferred
shapes before execution (``validate=False`` opts out), so failures name
the offending tensor instead of raising from numpy internals; and the
execution can checkpoint/restart at top-level *unit* granularity (a
top-level statement, or one iteration of a top-level loop) -- see
:mod:`repro.robustness.checkpoint`.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.engine.counters import Counters
from repro.engine.executor import FunctionImpl
from repro.expr.indices import Bindings
from repro.codegen.loops import (
    Access,
    Alloc,
    Assign,
    Block,
    FuncEval,
    Loop,
    LoopVar,
    ZeroArr,
    sub_extent,
)
from repro.robustness.checkpoint import (
    checkpoint_path,
    clear_checkpoint,
    counters_state,
    load_checkpoint,
    restore_counters,
    save_checkpoint,
)
from repro.robustness.errors import InjectedFault, ShapeError, SpecError
from repro.robustness.validation import validate_block_inputs


def execute(
    block: Block,
    inputs: Mapping[str, np.ndarray],
    bindings: Optional[Bindings] = None,
    functions: Optional[Mapping[str, FunctionImpl]] = None,
    counters: Optional[Counters] = None,
    trace=None,
    *,
    validate: bool = True,
    check_finite: bool = False,
    checkpoint: Optional[str] = None,
    interrupt_after: Optional[int] = None,
    extra_state=None,
    semiring: str = "plus_times",
) -> Dict[str, np.ndarray]:
    """Run the structure; returns the array environment (inputs +
    allocated arrays).

    ``trace`` is an optional callback ``trace(array_name, coords,
    is_write)`` invoked for every element access -- the hook the cache
    simulator (:mod:`repro.locality.cache_sim`) uses to measure misses.

    ``validate`` checks the inputs' shapes/dtypes against the structure
    before running (:func:`repro.robustness.validation.
    validate_block_inputs`); ``check_finite`` additionally rejects
    NaN/Inf inputs.

    ``checkpoint`` names a directory (or file) to snapshot progress
    into after every completed top-level unit; when a checkpoint from
    an interrupted run exists there, execution *resumes* after its last
    completed unit, bit-identical to an uninterrupted run.
    ``interrupt_after=n`` injects a fault
    (:class:`~repro.robustness.errors.InjectedFault`) after ``n`` units
    have completed in this call -- the fault-injection hook the
    checkpoint tests use.  ``extra_state`` is an optional
    ``(get_state, set_state)`` pair folded into the snapshot (used by
    the out-of-core buffer pool).

    ``semiring`` selects the scalar algebra (:mod:`repro.semiring`):
    allocations and re-zeroes fill the reduce-identity element,
    per-element products fold with the combine op, and accumulation is
    the reduce op.  Only coefficient-1 assignments are legal outside
    ``plus_times``; ``check_finite`` is skipped there because infinite
    identity elements are legitimate carrier values.
    """
    from repro.semiring import get_semiring, require_unit_coef

    sr = get_semiring(semiring)
    if not sr.is_default:
        check_finite = False
    combine = sr.py_combine
    reduce_ = sr.py_reduce
    functions = functions or {}
    counters = counters if counters is not None else Counters()
    if validate:
        validate_block_inputs(
            block, inputs, bindings, stage="execution",
            check_finite=check_finite,
        )
    arrays: Dict[str, np.ndarray] = {
        k: np.asarray(v, dtype=np.float64) for k, v in inputs.items()
    }
    allocated: set = set()
    env: Dict[LoopVar, int] = {}

    def sub_value(sub: Tuple[LoopVar, ...]) -> Optional[int]:
        """Value of a subscript; None when out of the index's range."""
        if len(sub) == 1:
            return env[sub[0]]
        # mixed-radix combination; the (tile, intra) pair is the only
        # shape produced by apply_tiling
        value = 0
        for var in sub:
            value = value * (
                var.block if var.role == "intra" else var.extent(bindings)
            )
            value += env[var]
        if len(sub) == 2 and sub[0].role == "tile":
            n = sub[0].index.extent(bindings)
            value = env[sub[0]] * sub[0].block + env[sub[1]]
            if value >= n:
                return None
        return value

    def guard_ok() -> bool:
        """All (tile, intra) pairs currently in scope reconstruct valid
        global coordinates."""
        tiles = {}
        intras = {}
        for var, val in env.items():
            if var.role == "tile":
                tiles[var.index] = (var, val)
            elif var.role == "intra":
                intras[var.index] = (var, val)
        for idx, (tvar, tval) in tiles.items():
            hit = intras.get(idx)
            if hit is None:
                continue
            if tval * tvar.block + hit[1] >= idx.extent(bindings):
                return False
        return True

    def term_value(term) -> float:
        if isinstance(term, FuncEval):
            coords = []
            for sub in term.subs:
                v = sub_value(sub)
                assert v is not None  # guarded before evaluation
                coords.append(v)
            counters.func_evals += 1
            counters.func_ops += term.func.compute_cost
            impl = functions.get(term.func.name)
            if impl is None:
                raise SpecError(
                    f"no implementation for function {term.func.name!r}",
                    stage="execution",
                    tensor=term.func.name,
                )
            return float(impl(*coords))
        coords = []
        for sub in term.subs:
            v = sub_value(sub)
            assert v is not None
            coords.append(v)
        try:
            arr = arrays[term.array]
        except KeyError:
            raise SpecError(
                f"array {term.array!r} neither input nor allocated",
                stage="execution",
                tensor=term.array,
            ) from None
        if trace is not None:
            trace(term.array, tuple(coords), False)
        try:
            return float(arr[tuple(coords)])
        except IndexError:
            raise ShapeError(
                f"array for tensor {term.array!r} has shape "
                f"{arr.shape}, too small for coordinate {tuple(coords)}",
                stage="execution",
                tensor=term.array,
            ) from None

    def run(blk: Block) -> None:
        for node in blk:
            if isinstance(node, Loop):
                var = node.var
                for value in range(var.extent(bindings)):
                    env[var] = value
                    run(node.body)
                del env[var]
            elif isinstance(node, Alloc):
                shape = tuple(
                    sub_extent(dim, bindings) for dim in node.dims
                )
                arrays[node.array] = (
                    np.zeros(shape)
                    if sr.is_default
                    else np.full(shape, sr.zero)
                )
                if node.array not in allocated:
                    allocated.add(node.array)
                    size = 1
                    for s in shape:
                        size *= s
                    counters.allocate(size)
            elif isinstance(node, ZeroArr):
                arrays[node.array][...] = sr.zero
            elif isinstance(node, Assign):
                if not guard_ok():
                    continue
                if sr.is_default:
                    value = node.coef
                    for term in node.terms:
                        value *= term_value(term)
                else:
                    require_unit_coef(node.coef, sr, stage="execution")
                    value = sr.one
                    for term in node.terms:
                        value = combine(value, term_value(term))
                coords = tuple(
                    sub_value(sub) for sub in node.target.subs
                )
                assert all(c is not None for c in coords)
                try:
                    target = arrays[node.target.array]
                except KeyError:
                    raise SpecError(
                        f"array {node.target.array!r} neither input nor "
                        "allocated",
                        stage="execution",
                        tensor=node.target.array,
                    ) from None
                if trace is not None:
                    trace(node.target.array, coords, True)
                muls = max(len(node.terms) - 1, 0)
                if node.coef not in (1.0, -1.0):
                    muls += 1
                try:
                    if node.accumulate:
                        if sr.is_default:
                            target[coords] += value
                        else:
                            target[coords] = reduce_(
                                float(target[coords]), value
                            )
                        counters.flops += muls + 1
                    else:
                        target[coords] = value
                        counters.flops += muls
                except IndexError:
                    raise ShapeError(
                        f"array for tensor {node.target.array!r} has shape "
                        f"{target.shape}, too small for coordinate {coords}",
                        stage="execution",
                        tensor=node.target.array,
                    ) from None
            else:  # pragma: no cover - exhaustive
                raise TypeError(f"unknown node {type(node).__name__}")

    if checkpoint is None and interrupt_after is None:
        run(block)
        return arrays

    _run_units(
        block,
        bindings,
        run,
        env,
        arrays,
        allocated,
        counters,
        checkpoint,
        interrupt_after,
        extra_state,
    )
    return arrays


def _run_units(
    block: Block,
    bindings: Optional[Bindings],
    run,
    env: Dict,
    arrays: Dict[str, np.ndarray],
    allocated: set,
    counters: Counters,
    checkpoint: Optional[str],
    interrupt_after: Optional[int],
    extra_state,
) -> None:
    """Drive the structure unit by unit with checkpoint/restart.

    A *unit* is one top-level non-loop node or one iteration of a
    top-level loop; the loop-variable environment is empty at every
    unit boundary, so (arrays, allocated set, counters, extra state)
    is the complete execution state.
    """
    ckpt_file = checkpoint_path(checkpoint) if checkpoint else None
    start_unit = -1
    if ckpt_file is not None:
        saved = load_checkpoint(ckpt_file)
        if saved is not None:
            arrays.clear()
            arrays.update(saved["arrays"])
            allocated.update(saved["allocated"])
            restore_counters(counters, saved["counters"])
            if extra_state is not None and saved.get("extra") is not None:
                extra_state[1](saved["extra"])
            start_unit = saved["unit"]

    unit = -1
    done_here = 0

    def finish_unit() -> None:
        nonlocal done_here
        done_here += 1
        if ckpt_file is not None:
            save_checkpoint(
                ckpt_file,
                {
                    "unit": unit,
                    "arrays": dict(arrays),
                    "allocated": set(allocated),
                    "counters": counters_state(counters),
                    "extra": (
                        extra_state[0]() if extra_state is not None else None
                    ),
                },
            )
        if interrupt_after is not None and done_here >= interrupt_after:
            raise InjectedFault(
                f"interrupted after {done_here} units (unit {unit})",
                stage="execution",
            )

    for node in block:
        if isinstance(node, Loop):
            var = node.var
            for value in range(var.extent(bindings)):
                unit += 1
                if unit <= start_unit:
                    continue
                env[var] = value
                run(node.body)
                del env[var]
                finish_unit()
        else:
            unit += 1
            if unit <= start_unit:
                continue
            run((node,))
            finish_unit()

    if ckpt_file is not None:
        clear_checkpoint(ckpt_file)
