"""GEMM lowering of binary tensor contractions.

A binary contraction ``C[out] = sum(k) A[ia] * B[ib]`` is an instance of
(batched) matrix multiplication once its indices are classified:

* **batch** -- in A, in B, and in the output (carried through);
* **m** -- in A and the output only;
* **n** -- in B and the output only;
* **k** -- in A and B, summed (the contraction);
* indices summed but present in only one operand are reduced away
  *before* the multiply (``lred`` / ``rred``).

Executing a lowered term is one ``np.matmul`` on views, in three moves:

* **bind** -- each operand, permuted to ``(batch..., m..., k...)`` /
  ``(batch..., k..., n...)``, is read in place as a 2-D view over its
  two index groups whenever each group is one contiguous block of
  memory; a view whose unit stride lies in the first group is a
  transposed matrix, which BLAS's transpose flag absorbs.  Only an
  operand whose groups interleave is packed into an arena buffer.
* **orient** -- a result whose layout is the caller's to choose (a
  temporary nothing but later terms reads) with no batch group and
  ``M > N`` is computed as ``np.matmul(a2, b2, out=buf.T)`` into an
  ``(N, M)`` buffer: numpy's transpose equivalence hands BLAS the wide
  product ``Cᵀ = Bᵀ Aᵀ``, the orientation OpenBLAS is faster at.  Every
  other result is C-ordered ``(batch..., m..., n...)``.
* **publish** -- the result is that buffer seen through a reshape and
  the output un-permute, never copied; a caller that supplies a
  C-contiguous output buffer and needs no un-permute gets the product
  written straight into it.

Everything shape-independent -- the axis classification, both
permutations, the group arity counts, the output un-permute -- is
computed **once** by :func:`lower_binary_term` and stored as a
:class:`GemmSpec` (a pickle-safe tuple-of-ints value object).  At run
time only strides and shape products remain.  Degenerate terms
(repeated indices within an operand, indices missing from both
operands) return ``None`` and the caller falls back to the cached-path
einsum (:mod:`repro.kernels.einsum_cache`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.expr.indices import Index
from repro.robustness.errors import ReproError

__all__ = ["GemmSpec", "lower_binary_term", "exec_gemm_arena"]


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
    structured :class:`~repro.robustness.errors.ReproError`: GEMM *is*
    the ``(+, ×)`` algebra (``np.matmul`` hard-codes it), so reaching
    here under, say, tropical shortest paths would be a silent wrong
    answer.  :func:`~repro.kernels.plan.lower_term` never gets here.
    """
    if semiring != "plus_times":
        raise ReproError(
            f"GEMM lowering only implements the plus_times semiring; "
            f"'{semiring}' contractions must use the native or einsum "
            "reduction path",
            stage="codegen",
            semiring=semiring,
        )
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


def _flat_stride(shape, strides) -> Optional[int]:
    """The stride of ``shape``'s axes walked as one row-major axis, or
    ``None`` when they do not nest (another axis lies between them).
    Extent-1 axes place no constraint; a group of them reads 0."""
    flat = span = None
    for n, s in zip(reversed(shape), reversed(strides)):
        if n == 1:
            continue
        if flat is None:
            flat = s
        elif s != span:
            return None
        span = s * n
    return 0 if flat is None else flat


def _pack(xt: np.ndarray, target, arena, scratch: List) -> np.ndarray:
    """Copy the permuted operand ``xt`` into an arena buffer of the
    flattened ``target`` shape (listed in ``scratch`` for release)."""
    buf = arena.take(target, xt.dtype)
    scratch.append(buf)
    np.copyto(buf.reshape(xt.shape), xt)
    return buf


def _bind(x, red, perm, nlead, ngroups, arena, scratch: List):
    """``x`` summed over its ``red`` axes and permuted, as a
    ``(lead..., g1, g2)`` matrix over its two index groups, and its
    permuted (unflattened) shape.

    The matrix is a view of ``x`` when each group is one block and one
    of the two has unit stride (a transposed view when it is the first:
    BLAS reads it through its transpose flag); otherwise the operand is
    packed.  A pre-reduced operand lives in arena scratch either way.
    """
    if red:
        kept = tuple(s for ax, s in enumerate(x.shape) if ax not in red)
        x = np.sum(x, axis=red, out=arena.take(kept, x.dtype))
        scratch.append(x)
    xt = x if _identity(perm) else x.transpose(perm)
    split = nlead + ngroups[0]
    g1 = prod(xt.shape[nlead:split])
    g2 = prod(xt.shape[split:])
    target = xt.shape[:nlead] + (g1, g2)
    s1 = _flat_stride(xt.shape[nlead:split], xt.strides[nlead:split])
    s2 = _flat_stride(xt.shape[split:], xt.strides[split:])
    if s1 is not None and s2 is not None:
        # an extent-1 group is a vector's free axis: any stride serves
        item = xt.itemsize
        s1 = g2 * item if g1 == 1 else s1
        s2 = g1 * item if g2 == 1 else s2
        row_major = s2 == item and s1 >= g2 * item
        column_major = s1 == item and s2 >= g1 * item
        if row_major or column_major:
            return xt.reshape(target), xt.shape
    return _pack(xt, target, arena, scratch), xt.shape


def exec_gemm_arena(
    a: np.ndarray,
    b: np.ndarray,
    spec: GemmSpec,
    arena,
    *,
    out: Optional[np.ndarray] = None,
    any_layout: bool = False,
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Run ``spec`` on ``a`` and ``b`` as one ``np.matmul`` on views,
    with every buffer from ``arena``.

    Returns ``(result, live_buffers)``.  ``result`` is ``out`` itself
    when ``out`` -- a C-contiguous array of the output shape -- was
    given and the output order is the product's own (identity
    ``operm``); ``live_buffers`` is then empty.  Otherwise ``result`` is
    a view of the one arena buffer in ``live_buffers``, which the caller
    hands back to the arena once it is done with the value.  That buffer
    is C-ordered ``(batch..., m..., n...)``, except that with
    ``any_layout`` a product with no batch group and ``M > N`` is
    stored as its transpose (see the module docstring).  Pack scratch is
    released right after the matmul, and everything taken is released
    if the product raises.
    """
    scratch: List[np.ndarray] = []
    cbuf = None
    try:
        a2, at_shape = _bind(
            np.asarray(a), spec.lred, spec.lperm, spec.nb,
            (spec.nm, spec.nk), arena, scratch,
        )
        b2, bt_shape = _bind(
            np.asarray(b), spec.rred, spec.rperm, spec.nb,
            (spec.nk, spec.nn), arena, scratch,
        )
        lead = a2.shape[:-2]
        m, n = a2.shape[-2], b2.shape[-1]
        shape = (
            at_shape[: spec.nb + spec.nm] + bt_shape[spec.nb + spec.nk :]
        )
        if (
            out is not None
            and _identity(spec.operm)
            and out.flags.c_contiguous
        ):
            np.matmul(a2, b2, out=out.reshape(lead + (m, n)))
            return out, []
        dtype = np.result_type(a2.dtype, b2.dtype)
        if any_layout and not lead and m > n:
            cbuf = arena.take((n, m), dtype)
            c = cbuf.T
        else:
            cbuf = c = arena.take(lead + (m, n), dtype)
        np.matmul(a2, b2, out=c)
    except BaseException:
        if cbuf is not None:
            arena.release(cbuf)
        raise
    finally:
        for buf in scratch:
            arena.release(buf)
    c = c.reshape(shape)
    if not _identity(spec.operm):
        c = c.transpose(spec.operm)
    return c, [cbuf]
