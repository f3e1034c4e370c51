"""Pluggable scalar algebras (semirings) for the contraction pipeline.

The paper's framework -- operation minimization, fusion, tiling,
distribution -- never relies on what ``+`` and ``*`` *mean*, only on
the semiring laws: the reduce op is associative and commutative with
identity ``zero``, the combine op is associative with identity ``one``,
combine distributes over reduce, and ``zero`` annihilates combine.
This module makes the algebra a first-class, registered object so the
same synthesized loop structures evaluate shortest paths
(``min_plus``), widest/most-probable paths (``max_plus`` /
``max_times``) and reachability (``or_and``) exactly like ordinary
multilinear contractions (``plus_times``).

Each :class:`Semiring` carries three lowering surfaces:

* **numpy** -- binary ufunc names for combine/reduce (used by the
  interpreter, the engine executor, the sparse hash-join executor and
  the SPMD rank programs);
* **C** -- expression templates and an identity literal (used by
  :mod:`repro.codegen.cgen` when emitting native loop nests; the
  semiring id is part of the nest IR, hence of the artifact key);
* **python-source** -- expression templates for the reference
  rendering of a nest (:func:`repro.codegen.cgen.py_source`).

Scalar coefficients are a ``plus_times`` notion (they come from the
weighted-sum normal form of the expression AST); every non-default
semiring therefore only accepts terms with coefficient ``1`` --
:func:`require_unit_coef` gives the structured error.

Only ``plus_times`` may lower to GEMM; the kernel planner never
classifies GEMM terms under any other algebra, and
:func:`repro.kernels.lowering.lower_binary_term` carries a hard guard.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.robustness.errors import ReproError, SpecError

__all__ = [
    "Semiring",
    "available_semirings",
    "get_semiring",
    "register_semiring",
    "require_unit_coef",
    "semiring_einsum",
    "DEFAULT_SEMIRING",
]

#: name of the classical algebra; the pipeline default everywhere
DEFAULT_SEMIRING = "plus_times"

# python-level scalar ops per ufunc name (interp inner loops run on
# python floats; going through numpy scalars there is ~20x slower)
_PY_OPS: Dict[str, Callable] = {
    "multiply": operator.mul,
    "add": operator.add,
    "minimum": min,
    "maximum": max,
}

# C expression template per ufunc name: (a, b) -> C expression text
_C_OPS: Dict[str, Callable[[str, str], str]] = {
    "multiply": lambda a, b: f"{a} * {b}",
    "add": lambda a, b: f"{a} + {b}",
    "minimum": lambda a, b: f"(({a}) < ({b}) ? ({a}) : ({b}))",
    "maximum": lambda a, b: f"(({a}) > ({b}) ? ({a}) : ({b}))",
}

# python-source expression template per ufunc name (builtins min/max
# and arithmetic only)
_PY_EXPR: Dict[str, Callable[[str, str], str]] = {
    "multiply": lambda a, b: f"{a} * {b}",
    "add": lambda a, b: f"{a} + {b}",
    "minimum": lambda a, b: f"min({a}, {b})",
    "maximum": lambda a, b: f"max({a}, {b})",
}


@dataclass(frozen=True)
class Semiring:
    """One scalar algebra: (carrier, reduce ``⊕``, combine ``⊗``, 0̄, 1̄).

    ``zero`` is the reduce identity *and* the combine annihilator (the
    value an "absent" entry takes: ``inf`` for ``min_plus`` distances,
    ``0`` for reachability).  ``one`` is the combine identity (the
    self-loop weight graph encodings place on the diagonal).

    ``idempotent`` records ``a ⊕ a = a``; idempotent algebras tolerate
    re-reduction of the same partial result, so recompute-style
    schedules need no zero-init subtleties.

    ``dtypes`` is the advisory carrier constraint -- dtype *kind*
    characters accepted for inputs (``"f"`` float, ``"i"`` int,
    ``"b"`` bool).  Algebras whose ``zero`` is infinite cannot live in
    integer carriers.
    """

    name: str
    zero: float
    one: float
    combine_ufunc: str
    reduce_ufunc: str
    idempotent: bool = False
    dtypes: Tuple[str, ...] = ("f",)
    doc: str = ""

    # -- numpy lowering ------------------------------------------------
    @property
    def np_combine(self) -> np.ufunc:
        """Binary ufunc for ``⊗`` (elementwise combine)."""
        return getattr(np, self.combine_ufunc)

    @property
    def np_reduce(self) -> np.ufunc:
        """Binary ufunc for ``⊕`` (use ``.reduce`` for axis folds)."""
        return getattr(np, self.reduce_ufunc)

    # -- python scalar lowering (interp / sparse inner loops) ----------
    @property
    def py_combine(self) -> Callable:
        return _PY_OPS[self.combine_ufunc]

    @property
    def py_reduce(self) -> Callable:
        return _PY_OPS[self.reduce_ufunc]

    # -- C lowering (native nests) -------------------------------------
    def c_combine(self, a: str, b: str) -> str:
        return _C_OPS[self.combine_ufunc](a, b)

    def c_reduce(self, a: str, b: str) -> str:
        return _C_OPS[self.reduce_ufunc](a, b)

    def c_zero(self, ctype: str) -> str:
        """Identity-element literal for ``ctype`` accumulators."""
        if self.zero == float("inf"):
            return "INFINITY"
        if self.zero == float("-inf"):
            return "-INFINITY"
        return f"({ctype}){self.zero:g}"

    @property
    def c_includes(self) -> Tuple[str, ...]:
        """Extra headers the emitted C needs (``INFINITY`` lives in
        ``math.h``)."""
        if np.isinf(self.zero):
            return ("math.h",)
        return ()

    # -- python-source lowering (reference nests) ----------------------
    def py_expr_combine(self, a: str, b: str) -> str:
        return _PY_EXPR[self.combine_ufunc](a, b)

    def py_expr_reduce(self, a: str, b: str) -> str:
        return _PY_EXPR[self.reduce_ufunc](a, b)

    def py_zero(self) -> str:
        """Identity-element literal for generated python source."""
        if self.zero == float("inf"):
            return "math.inf"
        if self.zero == float("-inf"):
            return "-math.inf"
        return repr(float(self.zero))

    # -- helpers -------------------------------------------------------
    @property
    def is_default(self) -> bool:
        return self.name == DEFAULT_SEMIRING

    def accepts_dtype(self, dtype) -> bool:
        """Advisory carrier check (kind characters in :attr:`dtypes`)."""
        return np.dtype(dtype).kind in self.dtypes

    def describe(self) -> str:
        return (
            f"{self.name}: reduce={self.reduce_ufunc} "
            f"combine={self.combine_ufunc} zero={self.zero:g} "
            f"one={self.one:g}"
            f"{' (idempotent)' if self.idempotent else ''}"
        )


_REGISTRY: Dict[str, Semiring] = {}


def register_semiring(semiring: Semiring) -> Semiring:
    """Add ``semiring`` to the registry (replacing any same-name entry)."""
    _REGISTRY[semiring.name] = semiring
    return semiring


def available_semirings() -> Tuple[str, ...]:
    """Registered semiring names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_semiring(name: str) -> Semiring:
    """Look up a registered semiring; unknown names raise a structured
    :class:`~repro.robustness.errors.SpecError` listing what exists."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SpecError(
            f"unknown semiring '{name}' (registered: "
            f"{', '.join(available_semirings())})",
            stage="spec",
        ) from None


def require_unit_coef(coef: float, semiring: Semiring, **context) -> None:
    """Reject scalar coefficients outside ``plus_times``.

    Weighted sums of terms only mean anything when reduce is ``+`` and
    combine is ``*``; under any other algebra a coefficient other than
    ``1`` is a spec error, not something to silently misevaluate.
    """
    if semiring.is_default or coef == 1.0:
        return
    raise ReproError(
        f"scalar coefficient {coef:g} is not expressible in the "
        f"'{semiring.name}' semiring (only coefficient 1 terms are "
        "valid outside plus_times)",
        semiring=semiring.name,
        **context,
    )


register_semiring(Semiring(
    name="plus_times", zero=0.0, one=1.0,
    combine_ufunc="multiply", reduce_ufunc="add",
    idempotent=False, dtypes=("f", "i", "b", "c"),
    doc="classical multilinear algebra (the paper's setting)",
))
register_semiring(Semiring(
    name="min_plus", zero=float("inf"), one=0.0,
    combine_ufunc="add", reduce_ufunc="minimum",
    idempotent=True, dtypes=("f",),
    doc="tropical shortest-path algebra (Bellman-Ford, APSP)",
))
register_semiring(Semiring(
    name="max_plus", zero=float("-inf"), one=0.0,
    combine_ufunc="add", reduce_ufunc="maximum",
    idempotent=True, dtypes=("f",),
    doc="tropical longest/critical-path algebra",
))
register_semiring(Semiring(
    name="max_times", zero=0.0, one=1.0,
    combine_ufunc="multiply", reduce_ufunc="maximum",
    idempotent=True, dtypes=("f", "i", "b"),
    doc="Viterbi algebra over non-negative weights (path reliability)",
))
register_semiring(Semiring(
    name="or_and", zero=0.0, one=1.0,
    combine_ufunc="multiply", reduce_ufunc="maximum",
    idempotent=True, dtypes=("f", "i", "b"),
    doc="boolean reachability algebra on 0/1 carriers",
))


def semiring_einsum(
    spec: str,
    *operands: np.ndarray,
    semiring: Semiring,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Evaluate one einsum-style contraction under ``semiring``.

    The generic dense path behind every executor when the algebra is
    not ``plus_times``: broadcast the operands into the joint index
    space, fold them together with the combine ufunc, then collapse
    the contracted axes with ``reduce.reduce``.  Repeated letters
    within one operand are diagonal *extractions* (no arithmetic), so
    they are peeled off with a plain einsum view first.

    Memory is the full joint space -- proportional to the loop-nest
    volume, which is exactly what the synthesized tiled structures are
    sized around; this path is meant for the per-term tile/kernel
    granularity, not whole unfused multi-index contractions.
    """
    ins, _, outsub = spec.partition("->")
    subs = [s for s in ins.split(",")]
    if len(subs) != len(operands):
        raise ValueError(f"spec {spec!r} does not match {len(operands)} operands")
    ops = []
    for sub, op in zip(subs, operands):
        uniq = ""
        for ch in sub:
            if ch not in uniq:
                uniq += ch
        if uniq != sub:
            op = np.einsum(f"{sub}->{uniq}", op)
        ops.append((uniq, np.asarray(op)))
    letters = list(outsub)
    for sub, _ in ops:
        for ch in sub:
            if ch not in letters:
                letters.append(ch)
    axis_of = {ch: k for k, ch in enumerate(letters)}
    extents = {ch: 1 for ch in letters}
    for sub, op in ops:
        for ch, n in zip(sub, op.shape):
            extents[ch] = n
    joint_shape = tuple(extents[ch] for ch in letters)
    out_shape = tuple(extents[ch] for ch in outsub)
    red_axes = tuple(range(len(outsub), len(letters)))
    if 0 in joint_shape:
        # empty contracted extent: pure identity fill (reduce of nothing)
        res = np.full(out_shape, semiring.zero)
    else:
        joint = None
        for sub, op in ops:
            order = sorted(range(len(sub)), key=lambda k: axis_of[sub[k]])
            view = op.transpose(order)
            shape = [1] * len(letters)
            for ch in sub:
                shape[axis_of[ch]] = extents[ch]
            view = view.reshape(shape)
            joint = view if joint is None else semiring.np_combine(joint, view)
        if joint.shape != joint_shape:
            joint = np.broadcast_to(joint, joint_shape)
        if red_axes:
            res = semiring.np_reduce.reduce(joint, axis=red_axes)
        else:
            res = np.array(joint)
    if out is not None:
        np.copyto(out, res)
        return out
    return res
