"""Input validation: arrays are checked against declarations *before*
execution, so every failure names the offending tensor.

Three entry points cover the three representations a computation
exists in:

* :func:`validate_env` -- statement/expression level: each
  :class:`~repro.expr.ast.TensorRef`'s backing array must exist, have
  the declared extents, and carry a numeric dtype (used by
  :mod:`repro.engine.executor`, :mod:`repro.sparse.executor`, and
  :mod:`repro.parallel.session`);
* :func:`validate_shapes` -- plan level: named arrays against the
  shapes a compiled :class:`~repro.kernels.plan.KernelPlan` recorded
  (used by :class:`~repro.kernels.plan.KernelRunner`; ``validate_env``
  is this check over a statement's declared extents);
* :func:`validate_block_inputs` -- loop-IR level: expected input shapes
  are inferred from the subscripts of the structure itself, including
  split ``(tile, intra)`` subscript pairs (used by
  :mod:`repro.codegen.interp`).

``check_finite=True`` additionally rejects NaN/Inf values.  It is *off*
by default: NaN propagation through an execution is legitimate (and
tested) behaviour -- finite-checking is an opt-in precondition.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.expr.ast import TensorRef
from repro.expr.indices import Bindings
from repro.robustness.errors import ShapeError, SpecError


def _value_shape(value: object) -> Tuple[int, ...]:
    shape = getattr(value, "shape", None)
    if shape is None or callable(shape):
        shape = np.asarray(value).shape
    return tuple(int(s) for s in shape)


def _value_dense(value: object) -> Optional[np.ndarray]:
    """The flat numeric view used for dtype/finiteness checks; ``None``
    for sparse containers (their ``values`` array is checked instead)."""
    values = getattr(value, "values", None)
    if values is not None and isinstance(values, np.ndarray):
        return values
    try:
        return np.asarray(value)
    except Exception:  # exotic containers: shape check only
        return None


def _check_value(
    name: str,
    value: object,
    want: Tuple[int, ...],
    stage: Optional[str],
    check_finite: bool,
) -> None:
    got = _value_shape(value)
    if got != want:
        raise ShapeError(
            f"array for tensor {name!r} has shape {got}, "
            f"declared shape is {want}",
            stage=stage,
            tensor=name,
        )
    flat = _value_dense(value)
    if flat is None:
        return
    if flat.dtype.kind not in "fiub":
        raise ShapeError(
            f"array for tensor {name!r} has non-numeric dtype "
            f"{flat.dtype}",
            stage=stage,
            tensor=name,
        )
    if check_finite and flat.dtype.kind == "f" and not np.isfinite(flat).all():
        raise ShapeError(
            f"array for tensor {name!r} contains non-finite values "
            "(NaN/Inf)",
            stage=stage,
            tensor=name,
        )


def validate_shapes(
    arrays: Mapping[str, object],
    shapes: Iterable[Tuple[str, Tuple[int, ...]]],
    stage: Optional[str] = None,
    check_finite: bool = False,
    require_present: bool = True,
) -> None:
    """Check every named array against the shape expected of it.

    ``shapes`` yields ``(name, shape)`` pairs (a name is checked once,
    against its first pair).  With ``require_present=False`` missing
    arrays are ignored (callers that allocate lazily); otherwise a
    missing array is a :class:`SpecError`.
    """
    seen: set = set()
    for name, want in shapes:
        if name in seen:
            continue
        seen.add(name)
        if name not in arrays:
            if require_present:
                raise SpecError(
                    f"no array provided for tensor {name!r}",
                    stage=stage,
                    tensor=name,
                )
            continue
        _check_value(name, arrays[name], want, stage, check_finite)


def validate_env(
    arrays: Mapping[str, object],
    refs: Iterable[TensorRef],
    bindings: Optional[Bindings] = None,
    stage: Optional[str] = None,
    check_finite: bool = False,
    require_present: bool = True,
) -> None:
    """Check every referenced tensor's backing array against its
    declaration (:func:`validate_shapes` over the declared extents).

    Function tensors are skipped (they materialize on demand).
    """
    validate_shapes(
        arrays,
        (
            (ref.tensor.name, tuple(i.extent(bindings) for i in ref.indices))
            for ref in refs
            if not ref.tensor.is_function
        ),
        stage,
        check_finite,
        require_present,
    )


def expected_input_shapes(
    block, bindings: Optional[Bindings] = None
) -> Dict[str, Tuple[int, ...]]:
    """Expected shape of every array *read or written without being
    allocated* by a loop structure, inferred from its subscripts.

    A split ``(tile, intra)`` subscript pair addresses the original
    index's full extent (the interpreter reconstructs the global
    coordinate), all other subscripts multiply out their variables'
    extents.
    """
    from repro.codegen.loops import Alloc, Assign, FuncEval, walk

    def sub_extent(sub) -> int:
        out = 1
        for var in sub:
            out *= var.extent(bindings)
        if (
            len(sub) == 2
            and sub[0].role == "tile"
            and sub[1].role == "intra"
            and sub[0].index == sub[1].index
        ):
            out = sub[0].index.extent(bindings)
        return out

    allocated = set()
    shapes: Dict[str, Tuple[int, ...]] = {}
    for node in walk(block):
        if isinstance(node, Alloc):
            allocated.add(node.array)
        elif isinstance(node, Assign):
            for term in (node.target, *node.terms):
                if isinstance(term, FuncEval):
                    continue
                if term.array in allocated or term.array in shapes:
                    continue
                shapes[term.array] = tuple(
                    sub_extent(sub) for sub in term.subs
                )
    return shapes


def validate_block_inputs(
    block,
    inputs: Mapping[str, object],
    bindings: Optional[Bindings] = None,
    stage: Optional[str] = None,
    check_finite: bool = False,
) -> None:
    """Check the inputs of a loop structure before interpretation.

    Every array the structure reads without allocating must be provided
    with the inferred shape; extra entries in ``inputs`` are ignored.
    """
    for name, want in expected_input_shapes(block, bindings).items():
        if name not in inputs:
            raise SpecError(
                f"array {name!r} neither input nor allocated",
                stage=stage,
                tensor=name,
            )
        _check_value(name, inputs[name], want, stage, check_finite)
