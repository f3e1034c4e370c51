"""Python source generation from the loop IR.

``generate_source`` renders a loop structure as a standalone Python
function; ``compile_loops`` execs it and hands back a callable.  The
generated code has the same shape as the paper's pseudocode figures
(explicit nested loops, tile-boundary guards) and is the repository's
"synthesized program": examples print it, tests compare its results
against the reference einsum executor.
"""

from __future__ import annotations

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
) -> str:
    """Render the structure as the source of a Python function
    ``name(_arrays, _funcs)`` mutating/returning the array dict."""
    lines: List[str] = [
        f"def {name}(_arrays, _funcs):",
    ]

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
                lines.append(
                    f"{pad}_arrays[{node.array!r}] = _np.zeros({shape!r})"
                )
            elif isinstance(node, ZeroArr):
                lines.append(f"{pad}_arrays[{node.array!r}][...] = 0.0")
            elif isinstance(node, Assign):
                conds = _guard_conditions(node, guards)
                inner_pad = pad
                if conds:
                    lines.append(f"{pad}if {' and '.join(conds)}:")
                    inner_pad = pad + "    "
                rhs = " * ".join(_term_expr(t) for t in node.terms)
                if node.coef != 1.0:
                    rhs = f"{node.coef} * {rhs}"
                op = "+=" if node.accumulate else "="
                if node.target.subs:
                    idx = ", ".join(_sub_expr(s) for s in node.target.subs)
                    tgt = f"_arrays[{node.target.array!r}][{idx}]"
                else:
                    tgt = f"_arrays[{node.target.array!r}][()]"
                lines.append(f"{inner_pad}{tgt} {op} {rhs}")
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
) -> Callable[[Dict[str, np.ndarray], Mapping[str, Callable]], Dict[str, np.ndarray]]:
    """Compile the generated source; returns ``kernel(arrays, funcs)``.

    The caller's ``arrays`` dict is copied, mutated with allocated
    results, and returned.
    """
    source = generate_source(block, bindings, name)
    namespace: Dict[str, object] = {"_np": np}
    exec(compile(source, f"<generated {name}>", "exec"), namespace)
    fn = namespace[name]

    def runner(arrays, funcs=None):
        return fn(dict(arrays), funcs or {})

    return runner
