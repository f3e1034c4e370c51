"""GEMM lowering of binary tensor contractions.

A binary contraction ``C[out] = sum(k) A[ia] * B[ib]`` is an instance of
(batched) matrix multiplication once its indices are classified:

* **batch** -- in A, in B, and in the output (carried through);
* **m** -- in A and the output only;
* **n** -- in B and the output only;
* **k** -- in A and B, summed (the contraction);
* indices summed but present in only one operand are reduced away
  *before* the multiply (``lred`` / ``rred``).

The lowering is then: sum out the single-operand axes, permute each
operand to ``(batch..., m..., k...)`` / ``(batch..., k..., n...)``,
reshape the ``m``/``k``/``n`` groups flat, call ``np.matmul`` (which
hits the BLAS GEMM and broadcasts over the batch dims), reshape back,
and un-permute to the requested output order.

Everything shape-independent -- the axis classification, both
permutations, the group arity counts, the output un-permute -- is
computed **once** by :func:`lower_binary_term` and stored as a
:class:`GemmSpec` (a pickle-safe tuple-of-ints value object).  At run
time only trivial shape products remain.  Degenerate terms (repeated
indices within an operand, indices missing from both operands) return
``None`` and the caller falls back to the cached-path einsum
(:mod:`repro.kernels.einsum_cache`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.expr.indices import Index
from repro.kernels.arena import BufferArena
from repro.robustness.errors import ReproError

__all__ = ["GemmSpec", "lower_binary_term", "exec_gemm", "exec_gemm_arena"]


def _require_plus_times(semiring: str, where: str) -> None:
    """GEMM *is* the ``(+, ×)`` algebra -- ``np.matmul`` hard-codes it.

    Reaching this lowering under any other semiring would silently
    compute classical sums of products where the caller asked for, say,
    tropical shortest paths; that must be a structured error, never a
    wrong answer.  The kernel planner routes non-default algebras to
    the native/einsum reduction paths and never gets here.
    """
    if semiring != "plus_times":
        raise ReproError(
            f"GEMM lowering only implements the plus_times semiring; "
            f"'{semiring}' contractions must use the native or einsum "
            "reduction path",
            stage="codegen",
            semiring=semiring,
            where=where,
        )


@dataclass(frozen=True)
class GemmSpec:
    """Shape-independent lowering of one binary contraction to GEMM.

    ``lred``/``rred`` are operand axes summed before the multiply;
    ``lperm``/``rperm`` permute the remaining axes to
    ``(batch..., m..., k...)`` and ``(batch..., k..., n...)``;
    ``nb``/``nm``/``nk``/``nn`` are the group arities; ``operm``
    un-permutes the ``(batch..., m..., n...)`` result to the requested
    output index order.
    """

    lred: Tuple[int, ...]
    rred: Tuple[int, ...]
    lperm: Tuple[int, ...]
    rperm: Tuple[int, ...]
    nb: int
    nm: int
    nk: int
    nn: int
    operm: Tuple[int, ...]


def lower_binary_term(
    left: Sequence[Index],
    right: Sequence[Index],
    sum_indices: frozenset,
    out: Sequence[Index],
    semiring: str = "plus_times",
) -> Optional[GemmSpec]:
    """Classify a binary term's indices and build its :class:`GemmSpec`.

    Returns ``None`` for the degenerate cases GEMM cannot express
    directly (repeated indices within an operand -- diagonals/traces --
    or an output index absent from both operands); callers fall back to
    einsum there.  A non-``plus_times`` ``semiring`` raises a
    structured :class:`~repro.robustness.errors.ReproError`: GEMM can
    never evaluate it, and declining loudly beats a silent wrong
    answer.
    """
    _require_plus_times(semiring, "lower_binary_term")
    left = tuple(left)
    right = tuple(right)
    out = tuple(out)
    if len(set(left)) != len(left) or len(set(right)) != len(right):
        return None  # diagonal/trace within one operand
    if len(set(out)) != len(out):
        return None
    lset, rset, oset = set(left), set(right), set(out)
    if not oset <= (lset | rset):
        return None  # output index produced by neither operand

    # group orders: batch/m/n follow their appearance in the output (so
    # the GEMM result needs the least un-permuting); k follows the left
    # operand's order.  All deterministic, all shape-independent.
    batch = tuple(i for i in out if i in lset and i in rset)
    m = tuple(i for i in out if i in lset and i not in rset)
    n = tuple(i for i in out if i in rset and i not in lset)
    k = tuple(
        i for i in left if i in sum_indices and i in rset
    )
    lonly = tuple(i for i in left if i in sum_indices and i not in rset)
    ronly = tuple(i for i in right if i in sum_indices and i not in lset)

    lred = tuple(left.index(i) for i in lonly)
    rred = tuple(right.index(i) for i in ronly)
    lkept = tuple(i for i in left if i not in lonly)
    rkept = tuple(i for i in right if i not in ronly)
    if set(lkept) != set(batch) | set(m) | set(k):
        return None  # e.g. an index shared with the right but unused
    if set(rkept) != set(batch) | set(k) | set(n):
        return None

    lperm = tuple(lkept.index(i) for i in batch + m + k)
    rperm = tuple(rkept.index(i) for i in batch + k + n)
    cur = batch + m + n
    operm = tuple(cur.index(i) for i in out)
    return GemmSpec(
        lred=lred,
        rred=rred,
        lperm=lperm,
        rperm=rperm,
        nb=len(batch),
        nm=len(m),
        nk=len(k),
        nn=len(n),
        operm=operm,
    )


def _identity(perm: Tuple[int, ...]) -> bool:
    return perm == tuple(range(len(perm)))


def exec_gemm(
    a: np.ndarray,
    b: np.ndarray,
    *,
    lred: Tuple[int, ...],
    rred: Tuple[int, ...],
    lperm: Tuple[int, ...],
    rperm: Tuple[int, ...],
    nb: int,
    nm: int,
    nk: int,
    nn: int,
    operm: Tuple[int, ...],
    semiring: str = "plus_times",
) -> np.ndarray:
    """Execute a lowered binary contraction, allocating per call:
    :func:`exec_gemm_arena` on an arena of its own that pools nothing.
    The fields arrive as keywords because emitted rank programs
    (:mod:`repro.parallel.spmd`) spell the call that way.
    """
    _require_plus_times(semiring, "exec_gemm")
    spec = GemmSpec(lred, rred, lperm, rperm, nb, nm, nk, nn, operm)
    return exec_gemm_arena(a, b, spec, BufferArena(enabled=False))[0]


def _pack_operand(x, red, perm, nlead, ngroups, arena, taken: List):
    """Sum ``x`` over its ``red`` axes, permute it and flatten its
    trailing groups, going through an arena buffer only where a sum or a
    non-contiguous permuted view needs one.  Returns the packed operand
    and the permuted (unflattened) shape."""
    if red:
        kept = tuple(s for ax, s in enumerate(x.shape) if ax not in red)
        x = np.sum(x, axis=red, out=arena.take(kept, x.dtype))
        taken.append(x)
    xt = x.transpose(perm) if not _identity(perm) else x
    lead = xt.shape[: nlead]
    g1 = prod(xt.shape[nlead : nlead + ngroups[0]])
    g2 = prod(xt.shape[nlead + ngroups[0] :])
    target = lead + (g1, g2)
    if xt.flags.c_contiguous:
        return xt.reshape(target), xt.shape
    buf = arena.take(target, xt.dtype)
    np.copyto(buf.reshape(xt.shape), xt)
    taken.append(buf)
    return buf, xt.shape


def exec_gemm_arena(
    a: np.ndarray,
    b: np.ndarray,
    spec: GemmSpec,
    arena,
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Run ``spec`` on ``a`` and ``b`` with every buffer from ``arena``.

    Returns ``(result_view, live_buffers)``: the view aliases arena
    buffers listed in ``live_buffers``, which the caller must release
    back to the arena once the term has been accumulated.  Pack scratch
    is released internally right after the matmul.
    """
    pack_taken: List[np.ndarray] = []
    a2, at_shape = _pack_operand(
        np.asarray(a), spec.lred, spec.lperm, spec.nb, (spec.nm, spec.nk),
        arena, pack_taken,
    )
    b2, bt_shape = _pack_operand(
        np.asarray(b), spec.rred, spec.rperm, spec.nb, (spec.nk, spec.nn),
        arena, pack_taken,
    )
    bshape = at_shape[: spec.nb]
    mshape = at_shape[spec.nb : spec.nb + spec.nm]
    nshape = bt_shape[spec.nb + spec.nk :]
    cdtype = np.result_type(a2.dtype, b2.dtype)
    cbuf = arena.take(a2.shape[:-1] + (b2.shape[-1],), cdtype)
    np.matmul(a2, b2, out=cbuf)
    for buf in pack_taken:
        arena.release(buf)
    c = cbuf.reshape(bshape + mshape + nshape)
    if not _identity(spec.operm):
        c = c.transpose(spec.operm)
    return c, [cbuf]
