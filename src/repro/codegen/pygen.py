"""Python source generation from the loop IR.

``generate_source`` renders a loop structure as a standalone Python
function; ``compile_loops`` execs it and hands back a callable.  The
generated code has the same shape as the paper's pseudocode figures
(explicit nested loops, tile-boundary guards) and is the repository's
"synthesized program": examples print it, tests compare its results
against the reference einsum executor.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

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
from repro.semiring import get_semiring, require_unit_coef


def _sub_expr(sub: Tuple[LoopVar, ...]) -> str:
    if len(sub) == 1:
        return sub[0].name
    if len(sub) == 2 and sub[0].role == "tile" and sub[1].role == "intra":
        return f"{sub[0].name} * {sub[0].block} + {sub[1].name}"
    parts = []
    expr = ""
    for var in sub:
        ext = var.block if var.role == "intra" else 0
        if not expr:
            expr = var.name
        else:
            expr = f"({expr}) * {ext} + {var.name}"
    return expr


def _term_expr(term) -> str:
    if isinstance(term, FuncEval):
        args = ", ".join(_sub_expr(s) for s in term.subs)
        return f"_funcs[{term.func.name!r}]({args})"
    if not term.subs:
        return f"_arrays[{term.array!r}][()]"
    idx = ", ".join(_sub_expr(s) for s in term.subs)
    return f"_arrays[{term.array!r}][{idx}]"


def generate_source(
    block: Block,
    bindings: Optional[Bindings] = None,
    name: str = "kernel",
    semiring: str = "plus_times",
) -> str:
    """Render the structure as the source of a Python function
    ``name(_arrays, _funcs)`` mutating/returning the array dict.

    ``semiring`` selects the scalar algebra (:mod:`repro.semiring`):
    allocations and re-zeroes fill its reduce identity, a product folds
    with its combine and an accumulation with its reduce, spelled
    through the same ``py_zero`` / ``py_expr_*`` templates as
    :mod:`repro.codegen.cgen`'s Python rendering.  ``plus_times`` keeps
    ``+=`` and the coefficient; under any other algebra only
    coefficient-1 assignments are legal, and an infinite identity makes
    the text start with ``import math``.
    """
    sr = get_semiring(semiring)
    zero = sr.py_zero()
    lines: List[str] = ["import math"] if "math." in zero else []
    lines.append(f"def {name}(_arrays, _funcs):")

    def emit(blk: Block, depth: int, guards: Dict[str, Tuple[str, int, int]]) -> None:
        pad = "    " * (depth + 1)
        if not blk:
            lines.append(f"{pad}pass")
            return
        for node in blk:
            if isinstance(node, Loop):
                var = node.var
                lines.append(
                    f"{pad}for {var.name} in range({var.extent(bindings)}):"
                )
                new_guards = dict(guards)
                if var.role == "tile":
                    new_guards[var.index.name] = (
                        var.name,
                        var.block,
                        var.index.extent(bindings),
                    )
                emit(node.body, depth + 1, new_guards)
            elif isinstance(node, Alloc):
                shape = tuple(
                    sub_extent(dim, bindings) for dim in node.dims
                )
                fill = (
                    f"_np.zeros({shape!r})"
                    if sr.zero == 0.0
                    else f"_np.full({shape!r}, {zero})"
                )
                lines.append(f"{pad}_arrays[{node.array!r}] = {fill}")
            elif isinstance(node, ZeroArr):
                lines.append(f"{pad}_arrays[{node.array!r}][...] = {zero}")
            elif isinstance(node, Assign):
                conds = _guard_conditions(node, guards)
                inner_pad = pad
                if conds:
                    lines.append(f"{pad}if {' and '.join(conds)}:")
                    inner_pad = pad + "    "
                require_unit_coef(node.coef, sr, stage="codegen")
                rhs = functools.reduce(
                    sr.py_expr_combine, map(_term_expr, node.terms)
                )
                if node.coef != 1.0:
                    rhs = f"{node.coef} * {rhs}"
                if node.target.subs:
                    idx = ", ".join(_sub_expr(s) for s in node.target.subs)
                    tgt = f"_arrays[{node.target.array!r}][{idx}]"
                else:
                    tgt = f"_arrays[{node.target.array!r}][()]"
                if not node.accumulate:
                    lines.append(f"{inner_pad}{tgt} = {rhs}")
                elif sr.is_default:
                    lines.append(f"{inner_pad}{tgt} += {rhs}")
                else:
                    lines.append(
                        f"{inner_pad}{tgt} = {sr.py_expr_reduce(tgt, rhs)}"
                    )
            else:  # pragma: no cover - exhaustive
                raise TypeError(f"unknown node {type(node).__name__}")

    emit(block, 0, {})
    lines.append("    return _arrays")
    return "\n".join(lines) + "\n"


def _guard_conditions(
    node: Assign, guards: Dict[str, Tuple[str, int, int]]
) -> List[str]:
    """Tile-boundary guards for every (tile, intra) pair in scope of the
    statement whose global coordinate may exceed the index extent."""
    conds = []
    intra_vars = {
        v.index.name: v
        for t in (node.target, *node.terms)
        for v in t.vars()
        if v.role == "intra"
    }
    # guards also apply to intra loops enclosing the statement even when
    # the statement does not reference them: conservative full check is
    # done by the interpreter; generated code only needs guards when the
    # reconstructed coordinate is used or the pair divides unevenly
    for idx_name, (tname, block_size, extent) in guards.items():
        if extent % block_size == 0:
            continue
        var = intra_vars.get(idx_name)
        if var is not None:
            conds.append(f"{tname} * {block_size} + {var.name} < {extent}")
    return conds


def compile_loops(
    block: Block,
    bindings: Optional[Bindings] = None,
    name: str = "kernel",
    semiring: str = "plus_times",
) -> Callable[[Dict[str, np.ndarray], Mapping[str, Callable]], Dict[str, np.ndarray]]:
    """Compile the generated source; returns ``kernel(arrays, funcs)``.

    The caller's ``arrays`` dict is copied, mutated with allocated
    results, and returned.
    """
    source = generate_source(block, bindings, name, semiring)
    namespace: Dict[str, object] = {"_np": np}
    exec(compile(source, f"<generated {name}>", "exec"), namespace)
    fn = namespace[name]

    def runner(arrays, funcs=None):
        return fn(dict(arrays), funcs or {})

    return runner
