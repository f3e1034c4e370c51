"""Ahead-of-time kernel plans for formula sequences.

:func:`compile_kernel_plan` lowers every statement of a formula
sequence into a :class:`KernelPlan` **once**: each flat term becomes a
:class:`TermPlan` that is either a GEMM lowering
(:mod:`repro.kernels.lowering`), an aligned copy, a cached-path
einsum fallback, or -- when an operand is declared sparse -- a
coordinate step over its stored entries (:class:`SparseSpec`), and
statement liveness (who reads each produced array last) is recorded so
temporaries can be recycled.  The plan is a pure
value object of names, ints, and floats -- pickle-safe by construction,
which is what lets it ride the content-addressed plan cache
(:mod:`repro.runtime.plan_cache`) inside a
:class:`~repro.pipeline.SynthesisResult`.

:class:`KernelRunner` executes a plan against input arrays, cast once
to float64 at entry.  All intermediate and output storage comes from a
:class:`~repro.kernels.arena.BufferArena`; temporaries are released at
their last-use statement and statement outputs live in buffers the
runner owns and rewrites, so repeated runs allocate nothing in the
steady state.  Consequently the arrays a ``run()`` returns are **valid
until the next** ``run()`` unless ``copy=True`` detaches them.

A GEMM term is one ``np.matmul`` on views
(:func:`~repro.kernels.lowering.exec_gemm_arena`), and its result is
copied only where a fold needs it: a statement that is one
coefficient-1 product into a temporary *publishes* the product's own
arena buffer as its value, laid out as the GEMM wrote it (a tall one
transposed), and the temporary's ``release`` hands that buffer back; a
first coefficient-1 product in its output's own order is written
straight into the statement's buffer; everything else folds.  Declared
outputs and ``keep`` names always come back C-contiguous in their
declared index order.

Numerics: the GEMM path regroups the contraction sums, so results agree
with the einsum reference to floating-point reassociation tolerance
(``rtol ~1e-12`` on the property suite); the copy and einsum-fallback
paths are bit-for-bit.  A sparse step agrees with the nonzero-iterating
reference (:mod:`repro.sparse.executor`) to the same tolerance, and
exactly under an idempotent semiring on exactly representable data.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import (
    Callable, Collection, Dict, Iterator, List, Mapping, Optional, Sequence,
    Tuple,
)

import numpy as np

from repro.expr.ast import Statement
from repro.expr.canonical import flatten
from repro.expr.indices import Bindings, Index, einsum_letters
from repro.kernels.arena import BufferArena
from repro.kernels.einsum_cache import cached_einsum
from repro.kernels.lowering import GemmSpec, exec_gemm_arena, lower_binary_term
from repro.robustness.errors import SpecError
from repro.robustness.validation import validate_shapes
from repro.semiring import Semiring, get_semiring, require_unit_coef

__all__ = [
    "OperandSpec",
    "SparseSpec",
    "TermPlan",
    "StatementPlan",
    "FusedGroup",
    "KernelPlan",
    "KernelRunner",
    "compile_kernel_plan",
    "exec_term",
    "lower_term",
]


@dataclass(frozen=True)
class OperandSpec:
    """One term operand: a named array or a function materialization."""

    name: str
    is_function: bool = False
    #: function-tensor grid shape (resolved at compile time); None for arrays
    shape: Optional[Tuple[int, ...]] = None


@dataclass(frozen=True)
class SparseSpec:
    """A term read through the stored entries of its declared-sparse
    operands -- the gather/combine/scatter kernel of a sparse tensor
    times a tensor network (SpTTN).

    The term's indices are numbered, those a sparse operand carries
    (*bound*) first.  A run joins the sparse operands' coordinate lists
    on their shared indices into *rows* (one per matching combination
    of stored entries), gathers every dense operand at each row's bound
    coordinates, combines and reduces the unbound indices with one
    einsum over the rows, and scatter-reduces the rows into the output
    at their bound output coordinates.
    """

    #: per operand, the index number of each axis
    axes: Tuple[Tuple[int, ...], ...]
    #: positions of the operands read through their stored entries
    sparse: Tuple[int, ...]
    #: extent of every index number
    extents: Tuple[int, ...]
    #: per dense operand read at bound coordinates: its position, the
    #: axis order that puts its bound axes first, and their numbers
    gathers: Tuple[Tuple[int, Tuple[int, ...], Tuple[int, ...]], ...]
    #: output axis order with the bound axes first (the scatter's view)
    out_perm: Tuple[int, ...]
    #: index numbers of the output's bound axes, in ``out_perm`` order
    out_bound: Tuple[int, ...]
    #: the einsum over rows -- the joined values, then every dense
    #: operand (gathered or whole) in, the rows (when the output has a
    #: bound axis) and the unbound output axes out; ``None`` when no
    #: dense operand is read and the rows scatter as they are
    spec: Optional[str]


def _lower_sparse_term(
    indices, target, sparse: Tuple[int, ...], bindings
) -> SparseSpec:
    """The :class:`SparseSpec` of one flat term, its operands carrying
    ``indices``, whose operands at positions ``sparse`` are read through
    their stored entries."""
    order: List = []
    for k in sparse:
        order += [i for i in indices[k] if i not in order]
    nbound = len(order)
    for ind in indices:
        order += [i for i in ind if i not in order]
    order += [i for i in target if i not in order]
    number = {idx: n for n, idx in enumerate(order)}
    # one label per index number, and the last for the rows
    letters = einsum_letters(range(len(order) + 1))
    row = letters[len(order)]
    axes = tuple(tuple(number[i] for i in ind) for ind in indices)
    gathers = []
    subscripts = [row]
    for k, ax in enumerate(axes):
        if k in sparse:
            continue
        bound = [p for p, n in enumerate(ax) if n < nbound]
        free = [p for p, n in enumerate(ax) if n >= nbound]
        if bound:
            gathers.append(
                (k, tuple(bound + free), tuple(ax[p] for p in bound))
            )
        subscripts.append(
            (row if bound else "") + "".join(letters[ax[p]] for p in free)
        )
    out = [number[i] for i in target]
    out_bound = [p for p, n in enumerate(out) if n < nbound]
    out_free = [p for p, n in enumerate(out) if n >= nbound]
    spec = None
    if len(subscripts) > 1 or not out_bound:
        spec = (
            ",".join(subscripts) + "->" + (row if out_bound else "")
            + "".join(letters[out[p]] for p in out_free)
        )
    return SparseSpec(
        axes=axes,
        sparse=sparse,
        extents=tuple(i.extent(bindings) for i in order),
        gathers=tuple(gathers),
        out_perm=tuple(out_bound + out_free),
        out_bound=tuple(out[p] for p in out_bound),
        spec=spec,
    )


def _stored_entries(value, axes: Tuple[int, ...], sr: Semiring):
    """``({index number: coordinates}, values)`` of one sparse operand's
    stored entries.

    A dense array stores what is ``!= sr.zero``.  A COO/CSF container
    is read through its coordinates under ``plus_times``; under any
    other algebra its absent entries are classical zeros -- ordinary
    carrier values there -- so it is densified first, as the reference
    executor does.  Coordinates on which a repeated index disagrees are
    dropped.
    """
    from repro.sparse.formats import CSFTensor, SparseTensor, as_dense

    if isinstance(value, SparseTensor) and sr.is_default:
        coo = value.to_coo() if isinstance(value, CSFTensor) else value
        cols = tuple(coo.coords.T)
        vals = coo.values
    else:
        dense = as_dense(value) if isinstance(value, SparseTensor) else value
        mask = dense != sr.zero
        cols = np.nonzero(mask) if dense.ndim else ()
        vals = dense[mask]
    first: Dict[int, int] = {}
    keep = None
    for p, n in enumerate(axes):
        q = first.setdefault(n, p)
        if q != p:
            agree = cols[p] == cols[q]
            keep = agree if keep is None else keep & agree
    if keep is not None:
        cols = tuple(c[keep] for c in cols)
        vals = vals[keep]
    return {n: cols[p] for n, p in first.items()}, vals


def _join(spec: SparseSpec, ops, sr: Semiring):
    """Rows of the term's sparse operands joined on their shared
    indices: ``({bound index number: coordinates}, combined values)``.
    Each further operand is matched by sort + ``searchsorted`` on the
    linearised shared coordinates (a cross product when none are
    shared)."""
    cols: Dict[int, np.ndarray] = {}
    vals = None
    for k in spec.sparse:
        tcols, tvals = _stored_entries(ops[k], spec.axes[k], sr)
        if vals is None:
            cols, vals = tcols, tvals
            continue
        shared = [n for n in tcols if n in cols]
        if shared:
            dims = tuple(spec.extents[n] for n in shared)
            key = np.ravel_multi_index(tuple(cols[n] for n in shared), dims)
            tkey = np.ravel_multi_index(tuple(tcols[n] for n in shared), dims)
            by_key = np.argsort(tkey, kind="stable")
            sorted_keys = tkey[by_key]
            lo = np.searchsorted(sorted_keys, key, side="left")
            counts = np.searchsorted(sorted_keys, key, side="right") - lo
            left = np.repeat(np.arange(len(vals)), counts)
            offsets = np.arange(len(left)) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            right = by_key[np.repeat(lo, counts) + offsets]
        else:
            left = np.repeat(np.arange(len(vals)), len(tvals))
            right = np.tile(np.arange(len(tvals)), len(vals))
        cols = {n: c[left] for n, c in cols.items()}
        cols.update({n: c[right] for n, c in tcols.items() if n not in cols})
        vals = sr.np_combine(vals[left], tvals[right])
    return cols, vals


@dataclass(frozen=True)
class TermPlan:
    """One flat term, lowered.

    ``kind`` is ``"gemm"`` (binary contraction through
    :func:`~repro.kernels.lowering.exec_gemm_arena`), ``"copy"`` (an
    aligned single-operand term), ``"einsum"`` (cached-path
    fallback for degenerate shapes -- repeated indices, 3+ operand
    products, permuting single-operand terms), or ``"sparse"`` (an
    operand is declared sparse: the coordinate step of ``sparse``).

    ``native`` (mode ``"native"`` only) additionally carries the term's
    compiled-nest lowering (:class:`~repro.kernels.native.NativeSpec`).
    A runner with a working native engine executes that; without one it
    falls back to ``kind`` -- the plan always embeds its own numpy
    fallback, which is what makes no-compiler environments degrade
    instead of fail.
    """

    coef: float
    operands: Tuple[OperandSpec, ...]
    kind: str
    gemm: Optional[GemmSpec] = None
    spec: Optional[str] = None
    native: Optional["NativeSpec"] = None
    sparse: Optional[SparseSpec] = None


def lower_term(
    coef: float,
    operands: Tuple[OperandSpec, ...],
    indices: Sequence[Tuple[Index, ...]],
    sums,
    target: Tuple[Index, ...],
    bindings: Optional[Bindings] = None,
    *,
    mode: str = "gemm",
    semiring: str = "plus_times",
    held: Tuple[int, ...] = (),
) -> TermPlan:
    """The :class:`TermPlan` of one flat term whose operands carry
    ``indices``: the one place a term's kind is decided.

    The ladder, first rung that applies: ``"sparse"`` when ``held``
    names operands read through their stored entries; ``"gemm"`` for a
    binary term :func:`~repro.kernels.lowering.lower_binary_term`
    accepts (modes ``"gemm"`` and ``"native"``, ``plus_times`` only);
    ``"copy"`` for one operand already in the output's order; the
    cached-path ``"einsum"`` otherwise.  A native nest is an annotation
    the caller puts on top (:func:`compile_kernel_plan`).
    """
    if held:
        sparse = _lower_sparse_term(indices, target, held, bindings)
        return TermPlan(coef, operands, "sparse", sparse=sparse)
    if (
        len(indices) == 2 and mode != "einsum"
        and get_semiring(semiring).is_default
    ):
        gemm = lower_binary_term(indices[0], indices[1], sums, target)
        if gemm is not None:
            return TermPlan(coef, operands, "gemm", gemm=gemm)
    if (
        len(indices) == 1 and not sums
        and tuple(indices[0]) == target and len(set(target)) == len(target)
    ):
        return TermPlan(coef, operands, "copy")
    letters = einsum_letters(
        sorted({i for ind in indices for i in ind} | set(target))
    )
    spec = (
        ",".join("".join(letters[i] for i in ind) for ind in indices)
        + "->" + "".join(letters[i] for i in target)
    )
    return TermPlan(coef, operands, "einsum", spec=spec)


@dataclass(frozen=True)
class StatementPlan:
    """One statement: accumulate its terms into the result buffer, then
    release the temporaries whose last reader this statement was."""

    result: str
    accumulate: bool
    out_shape: Tuple[int, ...]
    terms: Tuple[TermPlan, ...]
    release: Tuple[str, ...] = ()

    @property
    def reads(self) -> frozenset:
        """Names of the arrays (not functions) the terms read."""
        return frozenset(
            op.name
            for term in self.terms
            for op in term.operands
            if not op.is_function
        )

    @property
    def reads_self(self) -> bool:
        """Whether a term reads the array this statement writes."""
        return self.result in self.reads


@dataclass(frozen=True)
class FusedGroup:
    """A run of consecutive statements fused into one compiled kernel.

    ``statements[start:stop]`` of the owning plan execute as one
    :class:`~repro.kernels.native.FusedSpec` kernel: their nests, in
    order, in one call.  ``members[m] == (stmt_idx, term_idx)`` maps the
    fused spec's member ``m`` back to its term plan (coefficient
    lookup); ``outputs[s]`` names the result array of output slot
    ``s``.  Pure value object -- pickle-safe, rides the plan cache.
    """

    start: int
    stop: int
    spec: "FusedSpec"
    members: Tuple[Tuple[int, int], ...]
    outputs: Tuple[str, ...]


@dataclass(frozen=True)
class KernelPlan:
    """A compiled formula sequence: statements + liveness + lowering stats."""

    statements: Tuple[StatementPlan, ...]
    #: produced arrays never consumed by a later statement (the results
    #: a :class:`KernelRunner` returns); everything else is a temporary
    outputs: Tuple[str, ...]
    gemm_terms: int = 0
    einsum_terms: int = 0
    copy_terms: int = 0
    #: lowering variant this plan was compiled with
    #: ('gemm' | 'einsum' | 'native')
    mode: str = "gemm"
    #: terms carrying a compiled-nest lowering (mode 'native' only)
    native_terms: int = 0
    #: cross-statement fusion groups (mode 'native' with fuse=True)
    fused_groups: Tuple[FusedGroup, ...] = ()
    #: statements covered by a fusion group
    fused_statements: int = 0
    #: scalar algebra every term folds with (see :mod:`repro.semiring`);
    #: non-default algebras carry no GEMM terms by construction
    semiring: str = "plus_times"
    #: ``(name, shape)`` of every caller-supplied array a term reads
    #: before the plan produces that name -- the shapes the kernels
    #: (GEMM reshapes, einsum paths, compiled nests) were specialized
    #: to, which :meth:`KernelRunner.run` holds its inputs to
    input_shapes: Tuple[Tuple[str, Tuple[int, ...]], ...] = ()
    #: ``(name, shape)`` of every result first produced by ``+=``: it
    #: starts from the caller's array of that name when one is given
    seed_shapes: Tuple[Tuple[str, Tuple[int, ...]], ...] = ()
    #: terms run as a coordinate step over declared-sparse operands
    sparse_terms: int = 0

    def steps(
        self,
    ) -> Iterator[Tuple[Optional[FusedGroup], Tuple[StatementPlan, ...]]]:
        """The plan in execution order, a step at a time -- a fused
        group with its statements, or ``None`` with one statement --
        as :class:`KernelRunner` runs it and :meth:`peak_live_elements`
        counts it."""
        group_at = {g.start: g for g in self.fused_groups}
        k = 0
        while k < len(self.statements):
            group = group_at.get(k)
            stop = group.stop if group is not None else k + 1
            yield group, self.statements[k:stop]
            k = stop

    def peak_live_elements(self, keep: Collection[str] = ()) -> int:
        """High-water mark of the elements a :class:`KernelRunner` holds
        in produced arrays while running this plan.

        The runner's own accounting, over the same :meth:`steps`: a
        result is allocated at its (first) producing statement, a
        temporary is handed back at the statement in whose ``release``
        it appears, outputs and ``keep`` names stay to the end, a
        re-assignment that reads its old value holds old and new side by
        side, and a fused group allocates all its results before
        releasing anything.  A published GEMM product *is* its
        statement's result buffer and is counted as one.  Caller inputs
        and the transient scratch inside one term -- pack buffers, a
        product folded into its statement's buffer -- are not counted:
        the same convention as :func:`repro.codegen.loops.peak_memory`
        for the fused structure, which is what makes the two comparable.
        """
        kept = set(self.outputs) | set(keep)
        live: Dict[str, int] = {}
        total = peak = 0
        for _, step in self.steps():
            scratch = 0
            for sp in step:
                size = math.prod(sp.out_shape)
                if sp.result not in live:
                    live[sp.result] = size
                    total += size
                elif not sp.accumulate and sp.reads_self:
                    scratch = size
            peak = max(peak, total + scratch)
            for sp in step:
                for name in sp.release:
                    if name not in kept:
                        total -= live.pop(name, 0)
        return peak

    def describe(self) -> str:
        text = (
            f"KernelPlan({len(self.statements)} statements: "
            f"{self.gemm_terms} gemm, {self.copy_terms} copy, "
            f"{self.einsum_terms} einsum-fallback, "
            f"{self.sparse_terms} sparse terms"
        )
        if self.semiring != "plus_times":
            text += f", semiring {self.semiring}"
        if self.native_terms:
            text += f", {self.native_terms} native nests"
        if self.fused_groups:
            text += (
                f", {len(self.fused_groups)} fused groups covering "
                f"{self.fused_statements} statements"
            )
        return text + f"; outputs {', '.join(self.outputs)})"


def _statement_fusable(sp: StatementPlan) -> bool:
    """Whether a statement can join a fused group at all: plain
    assignment (no ``+=`` seeding), at least one output loop to share,
    and every term carrying a compiled-nest lowering."""
    return (
        len(sp.out_shape) >= 1
        and not sp.accumulate
        and bool(sp.terms)
        and all(t.native is not None for t in sp.terms)
    )


def _fuse_groups(stmt_plans: Sequence[StatementPlan]) -> Tuple[FusedGroup, ...]:
    """The cross-statement fusion pass: maximal runs of consecutive
    statements sharing one output iteration space.

    Legality, checked per candidate statement:

    * same ``out_shape`` as the group (the shared loops) and distinct
      result names (one output slot per member);
    * no statement reads its *own* result (re-assignment semantics need
      the old value, which fusion zeroes away);
    * no statement writes a name an **earlier** group member read (that
      member wants the pre-group value; fused execution would hand it
      the new one);
    * a member may read an earlier member's output only when the
      operand walks the output space *identically* (axis map
      ``(0..nout-1)``): a thread finishes the producer on its rows
      before it starts the consumer, so the element it reads is one it
      has just written.  Such intra-group reads set ``aliased``
      (dropping ``restrict`` from the kernel).

    Groups of one are not groups; the statement stays on the unfused
    path.
    """
    from repro.kernels.native import FusedSpec

    groups: List[FusedGroup] = []
    i = 0
    n = len(stmt_plans)
    while i < n:
        sp0 = stmt_plans[i]
        if not _statement_fusable(sp0) or sp0.reads_self:
            i += 1
            continue
        run = [i]
        results = {sp0.result}
        reads = set(sp0.reads)
        aliased = False
        j = i + 1
        while j < n:
            sp = stmt_plans[j]
            ok = (
                _statement_fusable(sp)
                and sp.out_shape == sp0.out_shape
                and sp.result not in results
                and sp.result not in reads
            )
            member_alias = False
            if ok:
                for t in sp.terms:
                    identity = tuple(range(t.native.nout))
                    for k, op in enumerate(t.operands):
                        if op.is_function:
                            continue
                        if op.name == sp.result:
                            ok = False
                            break
                        if op.name in results:
                            if t.native.operands[k] != identity:
                                ok = False
                                break
                            member_alias = True
                    if not ok:
                        break
            if not ok:
                break
            run.append(j)
            results.add(sp.result)
            reads |= sp.reads
            aliased = aliased or member_alias
            j += 1
        if len(run) >= 2:
            outputs = tuple(stmt_plans[k].result for k in run)
            slot_of = {name: s for s, name in enumerate(outputs)}
            members: List = []
            member_ids: List[Tuple[int, int]] = []
            slots: List[int] = []
            for k in run:
                for ti, t in enumerate(stmt_plans[k].terms):
                    members.append(t.native)
                    member_ids.append((k, ti))
                    slots.append(slot_of[stmt_plans[k].result])
            spec = FusedSpec(
                nout=len(sp0.out_shape),
                out_extents=sp0.out_shape,
                members=tuple(members),
                out_slots=tuple(slots),
                nslots=len(outputs),
                aliased=aliased,
            )
            groups.append(
                FusedGroup(
                    start=run[0],
                    stop=run[-1] + 1,
                    spec=spec,
                    members=tuple(member_ids),
                    outputs=outputs,
                )
            )
            i = j
        else:
            i += 1
    return tuple(groups)


def compile_kernel_plan(
    statements: Sequence[Statement],
    bindings: Optional[Bindings] = None,
    mode: str = "gemm",
    fuse: bool = False,
    semiring: str = "plus_times",
    sparse_execution: bool = True,
) -> KernelPlan:
    """Lower a formula sequence to a :class:`KernelPlan`.

    All path planning happens here, at synthesis time: GEMM axis
    classification per binary term, einsum subscript construction for
    the fallbacks, function-tensor grid shapes, and the liveness that
    drives arena recycling.  The plan is specialized to ``bindings``
    (shapes are resolved now, exactly like the generated numpy kernels).

    ``mode`` selects the lowering variant: ``"gemm"`` (the analytical
    default) lowers binary contractions to GEMM; ``"einsum"`` keeps
    every contraction on the cached einsum path; ``"native"`` is the
    GEMM plan *plus* a compiled-loop-nest lowering per term
    (:mod:`repro.kernels.native`) -- runners execute the compiled nest
    when a native engine is available and the embedded GEMM/einsum
    fallback otherwise.  The empirical autotuner
    (:mod:`repro.autotune`) measures the variants and keeps the
    fastest plan -- on some shapes einsum's fused path beats the GEMM
    call, and small dense nests beat both.

    ``fuse=True`` (mode ``"native"`` only) additionally runs the
    cross-statement fusion pass (:func:`_fuse_groups`): maximal runs of
    consecutive statements sharing an output iteration space become
    :class:`FusedGroup` entries that runners execute as one compiled
    kernel -- one foreign call and one parallel region per group, each
    statement's nest unchanged.  Every fused statement keeps its unfused
    lowering too, so a machine that cannot compile the group runs the
    statements individually.

    ``semiring`` selects the scalar algebra (see :mod:`repro.semiring`).
    Under any non-default algebra GEMM classification is skipped
    entirely -- ``np.matmul`` is ``(+, ×)`` by definition -- so terms
    lower to native nests (which fold with the registered combine and
    reduce ops) with the semiring-aware einsum reduction as the
    fallback, and only coefficient-1 terms are accepted.

    With ``sparse_execution`` (the default), a term that reads a
    declared-sparse operand (``sparse(fill)`` with fill < 1) lowers to a
    ``"sparse"`` step (:class:`SparseSpec`) in every mode: vectorised
    numpy over the operand's stored entries, under any semiring.  Off,
    declarations are ignored and such terms lower like dense ones.
    """
    from repro.sparse.estimate import is_sparse_tensor

    if mode not in ("gemm", "einsum", "native"):
        raise ValueError(
            f"unknown kernel-plan mode {mode!r} "
            "(use 'gemm', 'einsum', or 'native')"
        )
    sr = get_semiring(semiring)
    lower_native = None
    if mode == "native":
        from repro.kernels.native import lower_native_term

        lower_native = lower_native_term
    stmt_plans: List[StatementPlan] = []
    written: set = set()
    input_shapes: Dict[str, Tuple[int, ...]] = {}
    seed_shapes: Dict[str, Tuple[int, ...]] = {}
    for stmt in statements:
        target = tuple(stmt.result.indices)
        out_shape = tuple(i.extent(bindings) for i in target)
        terms: List[TermPlan] = []
        for coef, sums, refs in flatten(stmt.expr):
            require_unit_coef(
                coef, sr, stage="codegen", statement=stmt.result.name
            )
            for ref in refs:
                name = ref.tensor.name
                if not ref.tensor.is_function and name not in written:
                    input_shapes.setdefault(
                        name, tuple(i.extent(bindings) for i in ref.indices)
                    )
            operands = tuple(
                OperandSpec(
                    ref.tensor.name,
                    ref.tensor.is_function,
                    tuple(i.extent(bindings) for i in ref.indices)
                    if ref.tensor.is_function
                    else None,
                )
                for ref in refs
            )
            held = tuple(
                k for k, ref in enumerate(refs)
                if sparse_execution and is_sparse_tensor(ref.tensor)
            )
            term = lower_term(
                coef, operands, [tuple(ref.indices) for ref in refs], sums,
                target, bindings, mode=mode, semiring=semiring, held=held,
            )
            if lower_native is not None and term.kind in ("gemm", "einsum"):
                term = replace(term, native=lower_native(
                    refs, sums, target, bindings, semiring=semiring
                ))
            terms.append(term)
        if stmt.accumulate and stmt.result.name not in written:
            seed_shapes[stmt.result.name] = out_shape
        written.add(stmt.result.name)
        stmt_plans.append(
            StatementPlan(stmt.result.name, stmt.accumulate, out_shape, tuple(terms))
        )

    # liveness: last production and last read per produced name
    produced: Dict[str, int] = {}
    last_read: Dict[str, int] = {}
    for k, (stmt, sp) in enumerate(zip(statements, stmt_plans)):
        for term in sp.terms:
            for op in term.operands:
                if not op.is_function and op.name in produced:
                    last_read[op.name] = k
        if sp.accumulate and sp.result in produced:
            last_read[sp.result] = k  # += reads its previous value
        produced[sp.result] = k
    outputs = tuple(
        name
        for name in produced
        if last_read.get(name, -1) <= produced[name]
    )
    temps = set(produced) - set(outputs)
    release_at: Dict[int, List[str]] = {}
    for name in temps:
        release_at.setdefault(last_read[name], []).append(name)
    stmt_plans = [
        replace(sp, release=tuple(sorted(release_at.get(k, ()))))
        for k, sp in enumerate(stmt_plans)
    ]
    fused_groups: Tuple[FusedGroup, ...] = ()
    fused_statements = 0
    if fuse and mode == "native":
        fused_groups = _fuse_groups(stmt_plans)
        fused_statements = sum(g.stop - g.start for g in fused_groups)
    every = [t for sp in stmt_plans for t in sp.terms]
    kinds = Counter(t.kind for t in every)
    return KernelPlan(
        tuple(stmt_plans), outputs, kinds["gemm"], kinds["einsum"],
        kinds["copy"], mode, sum(t.native is not None for t in every),
        fused_groups, fused_statements, semiring,
        tuple(input_shapes.items()), tuple(seed_shapes.items()),
        kinds["sparse"],
    )


def _contiguous(ops, dtype) -> List[np.ndarray]:
    """``ops`` as C-contiguous ``dtype`` arrays (what a compiled nest
    indexes), copying only the ones that are not already."""
    return [
        op
        if op.dtype == dtype and op.flags.c_contiguous
        else np.ascontiguousarray(op, dtype=dtype)
        for op in ops
    ]


def _accumulate(out, value, coef: float, first: bool, sr: Semiring,
                arena: BufferArena) -> None:
    """Fold ``coef * value`` into ``out`` (overwrite it when ``first``)."""
    if not sr.is_default:
        # coefficient-1 contract (enforced at plan compile time):
        # folding is a pure semiring reduce into the buffer
        if first:
            np.copyto(out, value)
        else:
            sr.np_reduce(out, value, out=out)
        return
    if first:
        if coef == 1.0:
            np.copyto(out, value)
        else:
            np.multiply(value, coef, out=out)
    elif coef == 1.0:
        np.add(out, value, out=out)
    elif coef == -1.0:
        np.subtract(out, value, out=out)
    else:
        scratch = arena.take(out.shape, out.dtype)
        try:
            np.multiply(value, coef, out=scratch)
            np.add(out, scratch, out=out)
        finally:
            arena.release(scratch)


def _exec_sparse(term: TermPlan, ops, out, first: bool, sr: Semiring) -> None:
    """One sparse step (:class:`SparseSpec`): join, gather, combine and
    reduce with one einsum over the rows, scatter-reduce into ``out``
    with the semiring's reduce ``ufunc.at``."""
    spec = term.sparse
    if first:
        out.fill(sr.zero)
    cols, vals = _join(spec, ops, sr)
    if not len(vals):
        return
    if spec.spec is not None:
        dense = list(ops)
        for k, perm, ids in spec.gathers:
            dense[k] = ops[k].transpose(perm)[tuple(cols[n] for n in ids)]
        gathered = {k for k, _, _ in spec.gathers}
        read = [k for k in range(len(ops)) if k not in spec.sparse]
        # the path is planned at the most rows the bound indices
        # admit, so the row count never enters the path cache's key
        most = math.prod(
            spec.extents[n]
            for n in {n for k in spec.sparse for n in spec.axes[k]}
        )
        vals = cached_einsum(
            spec.spec, vals, *(dense[k] for k in read),
            semiring=sr.name,
            plan_shapes=[(most,)] + [
                (most,) + dense[k].shape[1:] if k in gathered
                else dense[k].shape
                for k in read
            ],
        )
    if term.coef != 1.0:
        vals = vals * term.coef
    if spec.out_bound:
        sr.np_reduce.at(
            out.transpose(spec.out_perm),
            tuple(cols[n] for n in spec.out_bound),
            vals,
        )
    else:
        sr.np_reduce(out, vals, out=out)


def exec_term(
    term: TermPlan,
    ops: Sequence[np.ndarray],
    out: np.ndarray,
    first: bool,
    sr: Semiring,
    arena: BufferArena,
    nest: Optional[Callable] = None,
) -> None:
    """Fold one term over its operand arrays ``ops`` into ``out``
    (overwriting it when ``first``) under ``sr``, scratch from
    ``arena``: the term executor of :class:`KernelRunner` and of the
    SPMD rank programs (:mod:`repro.parallel.spmd`).  ``nest``, the
    term's compiled nest for a C-contiguous ``out``, runs instead of
    its numpy ``kind`` when given."""
    if term.kind == "sparse":
        _exec_sparse(term, ops, out, first, sr)
    elif nest is not None:
        if first:
            # the nest only ever reduces into the buffer; seed it with
            # the algebra's identity element
            out.fill(sr.zero)
        nest(term.coef, _contiguous(ops, out.dtype), out)
    elif term.kind == "gemm":
        direct = out if first and term.coef == 1.0 else None
        value, live = exec_gemm_arena(
            ops[0], ops[1], term.gemm, arena, out=direct
        )
        try:
            if value is not out:
                _accumulate(out, value, term.coef, first, sr, arena)
        finally:
            for buf in live:
                arena.release(buf)
    elif term.kind == "copy":
        _accumulate(out, ops[0], term.coef, first, sr, arena)
    elif first and term.coef == 1.0:  # einsum fallback (cached path)
        cached_einsum(term.spec, *ops, out=out, semiring=sr.name)
    else:
        scratch = arena.take(out.shape, out.dtype)
        try:
            cached_einsum(term.spec, *ops, out=scratch, semiring=sr.name)
            _accumulate(out, scratch, term.coef, first, sr, arena)
        finally:
            arena.release(scratch)


class KernelRunner:
    """Executes a :class:`KernelPlan` with arena-backed storage.

    ``functions`` registers function-tensor implementations once;
    their materialized grids are cached across runs (they depend only
    on the grid shape).  ``arena`` defaults to a fresh
    :class:`~repro.kernels.arena.BufferArena`; pass
    ``BufferArena(enabled=False)`` to opt out of buffer retention.

    ``run`` returns ``inputs`` plus the plan's output arrays.  Output
    buffers are owned by the runner and **rewritten by the next run**;
    pass ``copy=True`` (or copy arrays yourself) to detach results.
    Temporaries are recycled internally and not returned; name them in
    ``keep`` to retain (they then get persistent buffers too).

    For plans compiled with ``mode="native"``, ``engine`` is the
    :class:`~repro.kernels.native.NativeEngine` executing the compiled
    nests (default: the process-wide engine) and ``threads`` the nest
    thread count (default: the engine's; capped per nest by its outer
    output extent).  Terms whose nest is unavailable -- no compiler,
    unsupported dtype, compile failure -- run on their embedded
    GEMM/einsum fallback, and each fallback is recorded once in
    :attr:`notes`; a fused group that cannot compile runs its statements
    individually the same way.

    Every :meth:`KernelPlan.steps` step, group or single statement,
    follows one buffer discipline: *acquire* each result buffer
    (``pending``: lent by the arena, not yet named by ``env``), compute,
    *publish* to ``env``, *release* the temporaries it read last.  A
    statement that is one coefficient-1 GEMM into a temporary acquires
    nothing: its product's own buffer is what it publishes.  A kernel
    that raises hands ``pending`` and every arena buffer in ``env``
    back before propagating (a raising GEMM returns its own buffers
    first), so a caller that catches and retries does not accumulate
    leaked scratch.

    Inputs of any numeric dtype are cast to float64 once per ``run``
    (float64 arrays are read as given, and no input is mutated): every
    kernel computes in float64, so an integer product cannot wrap.
    """

    def __init__(
        self,
        plan: KernelPlan,
        functions: Optional[Mapping[str, Callable]] = None,
        arena: Optional[BufferArena] = None,
        keep: Sequence[str] = (),
        engine=None,
        threads: Optional[int] = None,
    ) -> None:
        self.plan = plan
        self._sr = get_semiring(plan.semiring)
        self.arena = arena if arena is not None else BufferArena()
        self.functions = dict(functions or {})
        self.keep = frozenset(keep)
        self._kept = frozenset(plan.outputs) | self.keep
        #: caller arrays read through their stored entries (a declared-
        #: sparse tensor is sparse in every term that reads it): a COO/
        #: CSF container given for one is never densified
        self._held = frozenset(
            term.operands[k].name
            for sp in plan.statements
            for term in sp.terms
            if term.sparse is not None
            for k in term.sparse.sparse
        ) - {name for name, _ in plan.seed_shapes}
        self._persistent: Dict[str, np.ndarray] = {}
        self._func_cache: Dict[Tuple[str, Tuple[int, ...]], np.ndarray] = {}
        #: native-engine notes (fallbacks taken), recorded once each
        self.notes: List[str] = []
        self._engine = engine
        self._compiled_fns: Dict[int, Optional[Callable]] = {}
        if engine is None and plan.native_terms:
            from repro.kernels.native import default_engine

            self._engine = default_engine()
        if threads is not None and threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        if threads is None:
            threads = getattr(self._engine, "threads", 1)
        #: nest thread count used for every native/fused compile
        self.threads = threads
        # (a plan with native terms has an engine by now)
        if plan.native_terms and not self._engine.available():
            self.notes.append(
                "native kernels unavailable "
                f"({self._engine.unavailable_reason()}); "
                f"{plan.native_terms} compiled nests fall back to the "
                "gemm/einsum path"
            )

    # -- operand access ----------------------------------------------------

    def _materialize(self, op: OperandSpec, funcs) -> np.ndarray:
        impl = funcs.get(op.name)
        if impl is None:
            raise SpecError(
                f"no implementation registered for function {op.name!r}",
                stage="execution",
                tensor=op.name,
            )
        cacheable = self.functions.get(op.name) is impl
        key = (op.name, op.shape)
        if cacheable and key in self._func_cache:
            return self._func_cache[key]
        value = np.asarray(impl(*np.indices(op.shape)), dtype=np.float64)
        if cacheable:
            self._func_cache[key] = value
        return value

    def _operands(self, term: TermPlan, env, arrays, funcs) -> List[np.ndarray]:
        # run() has checked that every name read before the plan
        # produces it is present, and cast it into ``arrays``
        return [
            self._materialize(op, funcs) if op.is_function
            else env[op.name] if op.name in env
            else arrays[op.name]
            for op in term.operands
        ]

    # -- compiled kernels --------------------------------------------------

    def _compiled(
        self, owner, spec, dtype, what: str, fallback: str
    ) -> Optional[Callable]:
        """The compiled kernel of ``owner`` -- a term's nest or a fused
        group, both loaded the same way -- cached per runner, or None
        with the ``fallback`` taken recorded in :attr:`notes`."""
        key = id(owner)
        if key in self._compiled_fns:
            return self._compiled_fns[key]
        fn = None
        if self._engine is not None and self._engine.available():
            fn = self._engine.function(spec, dtype, threads=self.threads)
            if fn is None:
                reason = (
                    self._engine.failure(spec, dtype, threads=self.threads)
                    or "unsupported dtype"
                )
                self.notes.append(
                    f"{what} not compiled ({reason}); {fallback}"
                )
            # a damaged stored artifact replaced by a fresh compile
            note = self._engine.recovery(spec, dtype, threads=self.threads)
            if note is not None and note not in self.notes:
                self.notes.append(note)
        self._compiled_fns[key] = fn
        return fn

    def _nest(self, term: TermPlan) -> Optional[Callable]:
        """The compiled nest ``term`` runs on, or None for its numpy
        path (no native lowering, or none that loads)."""
        if term.native is None:
            return None
        return self._compiled(
            term, term.native, np.float64, "native nest",
            f"term falls back to the {term.kind} path",
        )

    # -- statement/sequence execution --------------------------------------

    def _out_buffer(self, name: str, shape: Tuple[int, ...]) -> np.ndarray:
        if name in self._kept:
            buf = self._persistent.get(name)
            if buf is None or buf.shape != shape:
                buf = np.empty(shape)
                self._persistent[name] = buf
                self.arena.allocations += 1
            return buf
        return self.arena.take(shape)

    def _acquire(self, sp: StatementPlan, env, arrays, pending):
        """The buffer ``sp`` folds its terms into, and whether the first
        fold overwrites it (``False``: it holds a value to add to).  One
        the arena lends waits in ``pending`` for :meth:`_publish`."""
        name = sp.result
        existing = env.get(name)
        if existing is not None and (sp.accumulate or not sp.reads_self):
            return existing, not sp.accumulate  # rewritten in place
        if existing is None:
            out = self._out_buffer(name, sp.out_shape)
        else:  # a re-assignment reading its old value folds into scratch
            out = self.arena.take(sp.out_shape)
        if existing is not None or name not in self._kept:
            pending[name] = out
        if sp.accumulate and name in arrays:
            # ``+=`` on a name the plan has not produced yet starts from
            # the caller's (unmutated) array
            np.copyto(out, arrays[name])
            return out, False
        return out, True

    def _publishes(self, sp: StatementPlan) -> bool:
        """Whether ``sp``'s value is its GEMM's own buffer: one
        coefficient-1 product on the numpy path, assigned to a
        temporary (whose layout nothing outside the plan sees)."""
        if len(sp.terms) != 1 or sp.accumulate or sp.result in self._kept:
            return False
        term = sp.terms[0]
        return (
            term.kind == "gemm" and term.coef == 1.0
            and self._nest(term) is None
        )

    def _product(self, sp: StatementPlan, env, arrays, funcs) -> np.ndarray:
        """A publishing statement's value: its product, laid out as the
        GEMM wrote it, in the arena buffer the temporary's ``release``
        hands back."""
        if not sp.reads_self:
            # the old value is dead: return it before the product is
            # taken, as an in-place rewrite would hold one buffer
            old = env.pop(sp.result, None)
            if old is not None:
                self.arena.release(old)
        term = sp.terms[0]
        a, b = self._operands(term, env, arrays, funcs)
        return exec_gemm_arena(a, b, term.gemm, self.arena, any_layout=True)[0]

    def _publish(self, sp: StatementPlan, out, env, pending) -> None:
        name = sp.result
        old = env.get(name)
        if old is not None and old is not out and name in self._kept:
            # re-assigned output: the value moves into the buffer the
            # runner owns and the scratch goes back
            np.copyto(old, out)
            out, old = old, out
        env[name] = out
        pending.pop(name, None)
        if old is not None and old is not out:
            self.arena.release(old)

    def _run_step(self, group, sps, env, arrays, funcs, pending) -> None:
        fn = None
        if group is not None:
            fn = self._compiled(
                group, group.spec, np.float64,
                f"fused group of {len(group.outputs)} statements",
                "statements run unfused",
            )
            if fn is None:
                for sp in sps:
                    self._run_step(None, (sp,), env, arrays, funcs, pending)
                return
        if fn is None and self._publishes(sps[0]):
            outs = [self._product(sps[0], env, arrays, funcs)]
        elif fn is None:
            sp = sps[0]
            out, first = self._acquire(sp, env, arrays, pending)
            outs = [out]
            for term in sp.terms:
                exec_term(
                    term, self._operands(term, env, arrays, funcs), out,
                    first, self._sr, self.arena,
                    self._nest(term) if out.flags.c_contiguous else None,
                )
                first = False
        else:
            outs = [self._acquire(sp, env, arrays, pending)[0] for sp in sps]
            # one call runs every member's nest in order; a member that
            # reads an earlier member's result reads the buffer that
            # nest has just written (the fusion pass admits only plain
            # assignments whose old values no member wants)
            scope = {**env, **dict(zip(group.outputs, outs))}
            terms = [
                self.plan.statements[si].terms[ti] for si, ti in group.members
            ]
            ops: List[np.ndarray] = []
            for term in terms:
                ops += self._operands(term, scope, arrays, funcs)
            for out in outs:
                # the fused nest only ever reduces into its slots
                out.fill(self._sr.zero)
            fn(
                [term.coef for term in terms],
                _contiguous(ops, np.float64),
                outs,
            )
        for sp, out in zip(sps, outs):
            self._publish(sp, out, env, pending)
        for sp in sps:
            for name in sp.release:
                if name not in self._kept:
                    buf = env.pop(name, None)
                    if buf is not None:
                        self.arena.release(buf)

    def run(
        self,
        inputs: Mapping[str, np.ndarray],
        functions: Optional[Mapping[str, Callable]] = None,
        *,
        copy: bool = False,
    ) -> Dict[str, np.ndarray]:
        """Execute the plan; returns inputs + produced output arrays.

        Returned output arrays alias runner-owned buffers that the next
        ``run()`` overwrites; ``copy=True`` returns detached copies.

        Every array the plan takes from ``inputs`` is first checked
        against the shape the plan was compiled for
        (:attr:`KernelPlan.input_shapes`, and
        :attr:`~KernelPlan.seed_shapes` where given): a missing one is
        a :class:`~repro.robustness.errors.SpecError`, a mis-shaped or
        non-numeric one a :class:`~repro.robustness.errors.ShapeError`,
        both naming the tensor, raised before any kernel step.
        """
        from repro.sparse.formats import SparseTensor, as_dense

        # the kernels are specialized to these shapes -- a compiled nest
        # handed a smaller array reads past its end
        validate_shapes(inputs, self.plan.input_shapes, stage="execution")
        validate_shapes(
            inputs, self.plan.seed_shapes, stage="execution",
            require_present=False,
        )
        # one cast at entry: the runner computes in float64 whatever the
        # caller's dtype (an integer product would wrap), and a float64
        # array is read as given, never copied; a sparse container is
        # kept for the sparse steps that alone read it, densified once
        # for anything else
        arrays = {}
        for name, _ in self.plan.input_shapes + self.plan.seed_shapes:
            if name not in inputs:
                continue
            value = inputs[name]
            if isinstance(value, SparseTensor):
                arrays[name] = value if name in self._held else as_dense(value)
            else:
                arrays[name] = np.asarray(value, dtype=np.float64)
        funcs = dict(self.functions)
        if functions:
            funcs.update(functions)
        env: Dict[str, np.ndarray] = {}
        pending: Dict[str, np.ndarray] = {}
        try:
            for group, sps in self.plan.steps():
                self._run_step(group, sps, env, arrays, funcs, pending)
        except BaseException:
            # persistent output buffers stay: they are reused, not pooled
            for buf in pending.values():
                self.arena.release(buf)
            for name, buf in env.items():
                if name not in self._kept:
                    self.arena.release(buf)
            raise
        result: Dict[str, np.ndarray] = {
            k: v if isinstance(v, SparseTensor) else np.asarray(v)
            for k, v in inputs.items()
        }
        for name in self._kept:
            if name in env:
                result[name] = env[name].copy() if copy else env[name]
        return result

    __call__ = run
