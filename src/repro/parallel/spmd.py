"""SPMD code generation: partition plans to per-rank parallel programs.

The paper's title promises compilation of tensor contractions *into
parallel programs*.  This module closes that loop: a
:class:`~repro.parallel.partition.PartitionPlan` is lowered to a static
schedule of typed steps (:func:`compile_schedule`) and then emitted as
the Python source of a **rank program** (:func:`generate_spmd_source`):

    def rank_program(rank, comm, arrays, state):
        ...
        yield   # communication boundary

Every rank executes the same code, branching on its own grid
coordinates -- classic SPMD.  Communication goes through an explicit
communicator (``comm.send`` / ``comm.recv_all``) in bulk-synchronous
supersteps.  A superstep is a **communication boundary** and nothing
else: the program ``yield``s exactly once per ``move`` / ``combine`` /
``bcast``, between its send half and its receive half; placing inputs,
local contractions, partial sums and exposing the result are rank-local
and run straight through.  ``arrays[name]`` is an entry of the rank's
**tensor table**: a ``(box, block)`` pair in the tensor's declared axis
order (a plain ndarray stands for its whole box) -- a box the router
shipped, which a ``slice`` step reads its region out of, or the block an
earlier statement of the same session left ``resident``, which is
picked up and moved from the distribution it was produced under.  The
driver (:mod:`repro.parallel.session`; :func:`run_spmd` is its
one-statement form) advances all ranks in lock step -- the in-process
stand-in for ``mpiexec`` (see the mpi4py substitution note in
DESIGN.md).

Local arithmetic is the cost model's: a product and the partial sums
directly above it are **one** ``contract`` step, emitted through the
ladder :func:`repro.kernels.plan.compile_kernel_plan` uses for a binary
term -- :func:`~repro.kernels.lowering.lower_binary_term` ->
``exec_gemm`` with the :class:`~repro.kernels.lowering.GemmSpec` fields
as literals under ``plus_times``, ``cached_einsum(spec, ...,
semiring=...)`` where that lowering declines or the algebra is not
``(+, x)`` -- so no rank's ``state`` ever holds a block of higher rank
than the step's operands and result, and under ``plus_times`` the joint
block is never formed at all.

Communication patterns match the cost model exactly:

* redistribution: each receiver's needed-but-not-held region is
  decomposed into boxes; each box piece is sent by its canonical owner
  (disjoint senders, so transferred elements == the model's
  received-element count);
* reduction: partial sums, combine to the coordinate-0 root along the
  summed processor dimension, optional broadcast.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.expr.indices import Bindings, Index
from repro.parallel.commcost import reduction_result_dist
from repro.parallel.dist import Distribution, REPLICATED, SINGLE
from repro.parallel.grid import ProcessorGrid
from repro.parallel.partition import PartitionPlan
from repro.parallel.ptree import PLeaf, PMul, PNode, PSum
from repro.robustness.errors import CommFailure
from repro.robustness.faults import FaultSchedule

Rank = Tuple[int, ...]


# ---------------------------------------------------------------------------
# communicator
# ---------------------------------------------------------------------------


class LocalComm:
    """In-process mailbox communicator with traffic counters.

    ``faults`` (a :class:`~repro.robustness.faults.FaultSchedule`)
    injects message drops by cross-rank message ordinal: a dropped
    attempt is charged to the sender (the network ate it) but never
    delivered; the communicator retries up to ``max_retries`` times
    (sleeping ``retry_backoff * attempt`` seconds between attempts)
    and raises :class:`~repro.robustness.errors.CommFailure` when the
    drop schedule outlasts the retry budget.  Fault-free behaviour is
    unchanged.

    ``sleep`` is the backoff delay function (default ``time.sleep``);
    tests inject a recorder so nonzero ``retry_backoff`` schedules can
    be asserted without wall-clock sleeping.
    """

    def __init__(
        self,
        grid: ProcessorGrid,
        faults: Optional[FaultSchedule] = None,
        max_retries: int = 3,
        retry_backoff: float = 0.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.grid = grid
        self.faults = faults
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.sleep = sleep
        self._mail: Dict[Tuple[Rank, str], List] = {}
        self.sent_elements: Dict[Rank, int] = {r: 0 for r in grid.ranks()}
        self.received_elements: Dict[Rank, int] = {
            r: 0 for r in grid.ranks()
        }
        self.messages = 0
        self.dropped = 0
        self.retries = 0
        self._ordinal = 0

    def send(self, source: Rank, dest: Rank, tag: str, payload) -> None:
        if source == dest:
            self._mail.setdefault((dest, tag), []).append(payload)
            return
        size = int(np.asarray(payload[1]).size)
        ordinal = self._ordinal
        self._ordinal += 1
        for attempt in range(self.max_retries + 1):
            if attempt:
                self.retries += 1
                if self.retry_backoff > 0.0:
                    self.sleep(self.retry_backoff * attempt)
            self.sent_elements[source] += size
            if self.faults is not None and self.faults.should_drop(
                ordinal, attempt
            ):
                self.dropped += 1
                continue
            self._mail.setdefault((dest, tag), []).append(payload)
            self.received_elements[dest] += size
            self.messages += 1
            return
        raise CommFailure(
            f"message {ordinal} from rank {source} to rank {dest} "
            f"dropped on every attempt; {self.max_retries} retries "
            "exhausted",
            stage="spmd",
            source=source,
            dest=dest,
        )

    def recv_all(self, dest: Rank, tag: str) -> List:
        return self._mail.pop((dest, tag), [])

    def drain(self) -> Dict[Tuple[Rank, str], List]:
        """Take all pending mail (the multi-process router's delivery
        hook: messages are accounted here, then shipped to workers)."""
        mail = self._mail
        self._mail = {}
        return mail

    @property
    def total_traffic(self) -> int:
        return sum(self.sent_elements.values())


# ---------------------------------------------------------------------------
# schedule lowering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    """One typed schedule entry."""

    #: 'slice' | 'resident' | 'move' | 'contract' | 'partial' | 'combine'
    #: | 'bcast' | 'fold' | 'result'
    kind: str
    out: str
    args: Tuple


@dataclass(frozen=True)
class Resident:
    """What a later statement must know of a block an earlier one left
    in the ranks' tensor tables: the axis order it is stored in (the
    producing statement's declared result indices) and the distribution
    it is held under."""

    indices: Tuple[Index, ...]
    dist: Distribution


def _dist_meta(
    dist: Distribution,
    indices: Sequence[Index],
) -> Tuple[Tuple[Optional[int], ...], Tuple[int, ...], Tuple[int, ...]]:
    """(per-array-dim processor positions, '1' dims, replica-dedup dims)
    of a distribution as seen by an array."""
    eff = dist.effective(indices)
    positions = tuple(eff.position_of(i) for i in indices)
    single = tuple(
        d for d, e in enumerate(eff.entries) if e is SINGLE
    )
    dedup = tuple(
        d
        for d, e in enumerate(eff.entries)
        if e is REPLICATED
    )
    return positions, single, dedup


class _Schedule:
    """The step list under construction and the three things every
    schedule does: name a value, redistribute one, read a tensor."""

    def __init__(self, resident: Optional[Mapping[str, Resident]]) -> None:
        self.steps: List[Step] = []
        self.resident = resident or {}
        self._counter = itertools.count()

    def fresh(self) -> str:
        return f"v{next(self._counter)}"

    def add(self, kind: str, args: Tuple) -> str:
        out = self.fresh()
        self.steps.append(Step(kind, out, args))
        return out

    def move(self, var: str, indices, src: Distribution, dst: Distribution) -> str:
        return self.add("move", (var, tuple(indices), src, dst))

    def leaf(self, ref, indices, gamma: Distribution) -> str:
        """``ref`` placed as ``gamma``: an input is sliced there for
        free; a block an earlier statement left resident is picked up
        where it is and moved -- the redistribution
        ``_plan_with_pinned_leaves`` charges, seen through the use
        site's index names."""
        name = ref.tensor.name
        held = self.resident.get(name)
        if held is None:
            return self.add(
                "slice", (name, tuple(ref.indices), tuple(indices), gamma)
            )
        src = held.dist.renamed(held.indices, ref.indices)
        var = self.add(
            "resident", (name, tuple(ref.indices), tuple(indices), src)
        )
        if src.effective(indices) != gamma.effective(indices):
            var = self.move(var, indices, src, gamma)
        return var

    def result(self, var: str, indices, dist: Distribution, declared) -> List[Step]:
        """Close the schedule: expose ``var`` in ``declared`` axis order
        (default: the sorted order it was computed in)."""
        indices = tuple(indices)
        exposed = tuple(declared) if declared is not None else indices
        perm = tuple(indices.index(i) for i in exposed)
        self.steps.append(Step("result", var, (exposed, dist, perm)))
        return self.steps


def compile_schedule(
    plan: PartitionPlan,
    resident: Optional[Mapping[str, Resident]] = None,
    declared: Optional[Sequence[Index]] = None,
) -> List[Step]:
    """Lower a partition plan to the static step schedule.

    ``resident`` names the tensors whose blocks an earlier statement of
    the same session left in the ranks' tables (their leaves become
    ``resident`` + ``move`` instead of ``slice``); ``declared`` is the
    axis order the result is exposed in.
    """
    sched = _Schedule(resident)
    steps = sched.steps
    move = sched.move

    def visit(node: PNode) -> Tuple[str, Distribution]:
        if isinstance(node, PLeaf):
            dist = plan.gamma[id(node)]
            var = sched.leaf(node.ref, node.indices, dist)
            out_dist = plan.dist[id(node)]
            if out_dist.effective(node.indices) != dist.effective(node.indices):
                return move(var, node.indices, dist, out_dist), out_dist
            return var, out_dist

        if isinstance(node, PMul):
            gamma = plan.gamma[id(node)]
            lvar, ldist = visit(node.left)
            rvar, rdist = visit(node.right)
            leff = gamma.effective(node.left.indices)
            reff = gamma.effective(node.right.indices)
            if ldist.effective(node.left.indices) != leff:
                lvar = move(lvar, node.left.indices, ldist, leff)
            if rdist.effective(node.right.indices) != reff:
                rvar = move(rvar, node.right.indices, rdist, reff)
            var = sched.add(
                "contract",
                (
                    lvar,
                    tuple(node.left.indices),
                    rvar,
                    tuple(node.right.indices),
                    (),  # summed indices: the PSum chain above adds them
                    tuple(node.indices),
                    gamma,
                ),
            )
            out_dist = plan.dist[id(node)]
            if out_dist.effective(node.indices) != gamma.effective(node.indices):
                return move(var, node.indices, gamma, out_dist), out_dist
            return var, gamma

        if isinstance(node, PSum):
            gamma = plan.gamma[id(node)]
            cvar, cdist = visit(node.child)
            ceff = gamma.effective(node.child.indices)
            if cdist.effective(node.child.indices) != ceff:
                cvar = move(cvar, node.child.indices, cdist, gamma)
            last = steps[-1]
            if last.kind == "contract" and last.out == cvar:
                # the product's only consumer is this partial sum: fold
                # the summation into the local contraction, so the joint
                # block the cost model never charges for is never formed
                lvar, lind, rvar, rind, sums, _, cgamma = last.args
                pvar = cvar
                steps[-1] = Step(
                    "contract",
                    pvar,
                    (lvar, lind, rvar, rind, sums + (node.index,),
                     tuple(node.indices), cgamma),
                )
            else:
                pvar = sched.add(
                    "partial",
                    (cvar, tuple(node.child.indices), node.index,
                     tuple(node.indices), gamma),
                )
            option = plan.sum_option[id(node)]
            d = gamma.position_of(node.index)
            if d is None:
                var, cur = pvar, gamma
            else:
                var = sched.add(
                    "combine", (pvar, tuple(node.indices), d, gamma)
                )
                cur = reduction_result_dist(gamma, node.index, replicate=False)
                if option == "replicate":
                    var = sched.add(
                        "bcast", (var, tuple(node.indices), d, cur)
                    )
                    cur = reduction_result_dist(
                        gamma, node.index, replicate=True
                    )
            out_dist = plan.dist[id(node)]
            if out_dist.effective(node.indices) != cur.effective(node.indices):
                return move(var, node.indices, cur, out_dist), out_dist
            return var, out_dist

        raise TypeError(type(node).__name__)

    root_var, root_dist = visit(plan.root)
    return sched.result(root_var, plan.root.indices, root_dist, declared)


def fold_schedule(
    statement, resident: Mapping[str, Resident], semiring: str = "plus_times"
) -> Optional[List[Step]]:
    """The schedule of a multi-term combine over resident operands, or
    ``None`` when the statement is not one.

    ``R = c0*T0 + c1*T1 + ...`` with every term one reference carrying
    exactly ``R``'s indices, and at least one ``T`` resident, needs no
    contraction and no global array: each operand is aligned to the
    first resident operand's distribution (the moves
    ``_plan_statementwise`` prices) and the terms are folded rank-locally
    in the reference executor's order, so the blocks equal the
    executor's result element for element.
    """
    from repro.expr.ast import Add
    from repro.expr.canonical import flatten
    from repro.semiring import get_semiring

    if statement.accumulate or not isinstance(statement.expr, Add):
        return None
    try:
        terms = flatten(statement.expr)
    except OverflowError:
        return None
    indices = tuple(sorted(statement.result.indices))
    weighted = not get_semiring(semiring).is_default
    refs = []
    for coef, sums, factors in terms:
        # a coefficient outside plus_times is the executor's error to report
        if sums or len(factors) != 1 or (weighted and coef != 1.0):
            return None
        (ref,) = factors
        if ref.tensor.is_function or tuple(sorted(ref.indices)) != indices:
            return None
        refs.append(ref)
    if len(set(indices)) != len(indices):
        return None
    anchor = next((r for r in refs if r.tensor.name in resident), None)
    if anchor is None:
        return None
    held = resident[anchor.tensor.name]
    base = held.dist.renamed(held.indices, anchor.indices)
    sched = _Schedule(resident)
    operands = tuple(sched.leaf(ref, indices, base) for ref in refs)
    coefs = tuple(float(coef) for coef, _, _ in terms)
    var = sched.add("fold", (operands, coefs, indices, base))
    return sched.result(var, indices, base, statement.result.indices)


# ---------------------------------------------------------------------------
# source generation
# ---------------------------------------------------------------------------


def _leaf_perm(ref_indices, node_indices) -> Tuple[int, ...]:
    """Axes of a tensor reference in its leaf's (sorted) index order.

    A repeated index (``A(i, i, k)``) claims one reference axis per
    occurrence, so the diagonal stays a diagonal for the contraction
    step's einsum instead of failing the transpose.
    """
    free = list(range(len(ref_indices)))
    perm = []
    for index in node_indices:
        axis = next(k for k in free if ref_indices[k] == index)
        free.remove(axis)
        perm.append(axis)
    return tuple(perm)


def generate_spmd_source(
    plan: PartitionPlan,
    name: str = "rank_program",
    semiring: str = "plus_times",
    resident: Optional[Mapping[str, Resident]] = None,
    declared: Optional[Sequence[Index]] = None,
) -> str:
    """Emit the per-rank program source for a partition plan.

    ``semiring`` selects the scalar algebra (:mod:`repro.semiring`):
    local contractions go to GEMM under ``plus_times`` and to the
    semiring-aware einsum otherwise, partial sums emit the reduce
    ufunc's axis reduction, and the combine superstep's cross-rank
    accumulation emits the reduce ufunc -- the emitted text is what
    ships to process-backend workers, so every execution substrate
    inherits the algebra from this one emission site.  ``resident`` and
    ``declared`` as in :func:`compile_schedule`.
    """
    return emit_rank_program(
        compile_schedule(plan, resident, declared),
        plan.grid, plan.bindings, name, semiring,
    )


def emit_rank_program(
    steps: Sequence[Step],
    grid: ProcessorGrid,
    bindings: Optional[Bindings],
    name: str,
    semiring: str = "plus_times",
) -> str:
    """The source text of the rank program running ``steps``."""
    from repro.expr.indices import einsum_letters
    from repro.kernels.lowering import lower_binary_term
    from repro.semiring import get_semiring

    sr = get_semiring(semiring)
    ranks = list(grid.ranks())

    L: List[str] = [
        f"def {name}(rank, comm, arrays, state):",
        # a plan that never communicates has no other `yield`
        "    yield from ()  # a rank program is always a generator",
    ]
    kernels = set()  # import lines of the contraction kernels called

    def ext(indices) -> Tuple[int, ...]:
        return tuple(i.extent(bindings) for i in indices)

    def emit(text: str = "") -> None:
        L.append(("    " + text) if text else "")

    def emit_permuted(target: str, held: str, perm) -> None:
        """``target = held`` with its axes (box and block) in ``perm``."""
        if perm == tuple(range(len(perm))):
            emit(f"{target} = {held}")
            return
        emit(f"_held = {held}")
        emit("if _held[0] is not None:")
        emit(
            f"    {target} = (tuple(_held[0][_p] for _p in {perm!r}), "
            f"np.transpose(_held[1], {perm!r}))"
        )
        emit("else:")
        emit(f"    {target} = (None, None)")

    for knum, step in enumerate(steps):
        tag = f"s{knum}"
        if step.kind == "slice":
            tensor_name, ref_indices, node_indices, dist = step.args
            pos, single, _ = _dist_meta(dist, node_indices)
            perm = _leaf_perm(ref_indices, node_indices)
            emit(f"# step {knum}: place input {tensor_name} as {dist}")
            emit(f"if holds(rank, {single!r}):")
            emit(f"    _box = region(rank, {pos!r}, {ext(node_indices)!r}, GRID)")
            emit(
                f"    state[{step.out!r}] = (_box, "
                f"take(arrays[{tensor_name!r}], {perm!r}, _box))"
            )
            emit("else:")
            emit(f"    state[{step.out!r}] = (None, None)")

        elif step.kind == "resident":
            tensor_name, ref_indices, node_indices, src = step.args
            emit(f"# step {knum}: pick up resident {tensor_name} held as {src}")
            emit_permuted(
                f"state[{step.out!r}]",
                f"arrays[{tensor_name!r}]",
                _leaf_perm(ref_indices, node_indices),
            )

        elif step.kind == "move":
            var, indices, src, dst = step.args
            spos, ssingle, sdedup = _dist_meta(src, indices)
            dpos, dsingle, _ = _dist_meta(dst, indices)
            extents = ext(indices)
            emit(f"# step {knum}: redistribute {src} -> {dst}")
            emit(f"if holds(rank, {ssingle!r}) and canonical_sender(rank, {sdedup!r}):")
            emit(f"    _mybox, _myblk = state[{var!r}]")
            emit("    for _other in RANKS:")
            emit(f"        if not holds(_other, {dsingle!r}):")
            emit("            continue")
            emit(f"        _need = region(_other, {dpos!r}, {extents!r}, GRID)")
            emit(f"        if holds(_other, {ssingle!r}):")
            emit(
                f"            _pieces = box_difference(_need, "
                f"region(_other, {spos!r}, {extents!r}, GRID))"
            )
            emit("        else:")
            emit("            _pieces = [_need]")
            emit("        for _piece in _pieces:")
            emit("            _part = box_intersect(_piece, _mybox)")
            emit("            if not box_empty(_part):")
            emit(
                f"                comm.send(rank, _other, {tag!r}, "
                "(_part, extract(_myblk, _mybox, _part)))"
            )
            emit("yield")
            emit(f"if holds(rank, {dsingle!r}):")
            emit(f"    _box = region(rank, {dpos!r}, {extents!r}, GRID)")
            emit("    _blk = np.zeros(tuple(hi - lo for lo, hi in _box))")
            emit(f"    if holds(rank, {ssingle!r}):")
            emit(f"        _own = box_intersect(_box, state[{var!r}][0])")
            emit("        if not box_empty(_own):")
            emit(
                f"            paste(_blk, _box, _own, "
                f"extract(state[{var!r}][1], state[{var!r}][0], _own))"
            )
            emit(f"    for _pbox, _piece in comm.recv_all(rank, {tag!r}):")
            emit("        paste(_blk, _box, _pbox, _piece)")
            emit(f"    state[{step.out!r}] = (_box, _blk)")
            emit("else:")
            emit(f"    state[{step.out!r}] = (None, None)")

        elif step.kind == "contract":
            lvar, lind, rvar, rind, sums, oind, gamma = step.args
            opos, osingle, _ = _dist_meta(gamma, oind)
            operands = f"state[{lvar!r}][1], state[{rvar!r}][1]"
            # the ladder compile_kernel_plan uses for a binary term
            gemm = (
                lower_binary_term(lind, rind, frozenset(sums), oind)
                if sr.is_default
                else None
            )
            if gemm is not None:
                fields = ", ".join(
                    f"{k}={v!r}" for k, v in vars(gemm).items()
                )
                call = f"exec_gemm({operands}, {fields})"
                kernels.add("from repro.kernels.lowering import exec_gemm")
            else:
                letters = einsum_letters(sorted(set(lind) | set(rind)))
                spec = "{},{}->{}".format(
                    *("".join(letters[i] for i in ind)
                      for ind in (lind, rind, oind))
                )
                call = (
                    f"cached_einsum({spec!r}, {operands}, "
                    f"semiring={semiring!r})"
                )
                kernels.add(
                    "from repro.kernels.einsum_cache import cached_einsum"
                )
            over = ",".join(i.name for i in sums) or "nothing"
            emit(f"# step {knum}: local contraction over {over} under {gamma}")
            emit(f"if holds(rank, {osingle!r}):")
            emit(f"    _box = region(rank, {opos!r}, {ext(oind)!r}, GRID)")
            emit(f"    state[{step.out!r}] = (_box, {call})")
            emit("else:")
            emit(f"    state[{step.out!r}] = (None, None)")

        elif step.kind == "partial":
            cvar, cind, sidx, oind, gamma = step.args
            axis = list(cind).index(sidx)
            emit(f"# step {knum}: partial sums over {sidx.name}")
            emit(f"_held = state[{cvar!r}]")
            emit("if _held[0] is not None:")
            emit(
                f"    _box = tuple(r for _k, r in enumerate(_held[0]) "
                f"if _k != {axis})"
            )
            emit(
                f"    state[{step.out!r}] = (_box, "
                f"np.{sr.reduce_ufunc}.reduce(_held[1], axis={axis}))"
            )
            emit("else:")
            emit(f"    state[{step.out!r}] = (None, None)")

        elif step.kind == "combine":
            pvar, oind, proc_dim, gamma = step.args
            emit(f"# step {knum}: combine partials to root of dim {proc_dim}")
            emit(f"_root = tuple(0 if _d == {proc_dim} else _z "
                 "for _d, _z in enumerate(rank))")
            emit(f"if state[{pvar!r}][0] is not None and rank != _root:")
            emit(f"    comm.send(rank, _root, {tag!r}, state[{pvar!r}])")
            emit("yield")
            emit(f"if rank == _root and state[{pvar!r}][0] is not None:")
            emit(f"    _box, _blk = state[{pvar!r}]")
            emit("    _blk = _blk.copy()")
            emit(f"    for _pbox, _piece in comm.recv_all(rank, {tag!r}):")
            emit(f"        np.{sr.reduce_ufunc}(_blk, _piece, out=_blk)")
            emit(f"    state[{step.out!r}] = (_box, _blk)")
            emit("else:")
            emit(f"    state[{step.out!r}] = (None, None)")

        elif step.kind == "bcast":
            cvar, oind, proc_dim, root_dist = step.args
            emit(f"# step {knum}: broadcast along dim {proc_dim}")
            emit(f"_root = tuple(0 if _d == {proc_dim} else _z "
                 "for _d, _z in enumerate(rank))")
            emit(f"if rank == _root and state[{cvar!r}][0] is not None:")
            emit("    for _other in RANKS:")
            emit(
                f"        if _other != rank and tuple(0 if _d == {proc_dim} "
                "else _z for _d, _z in enumerate(_other)) == _root:"
            )
            emit(f"            comm.send(rank, _other, {tag!r}, state[{cvar!r}])")
            emit("yield")
            emit(f"if rank == _root:")
            emit(f"    state[{step.out!r}] = state[{cvar!r}]")
            emit("else:")
            emit(f"    _got = comm.recv_all(rank, {tag!r})")
            emit(
                f"    state[{step.out!r}] = _got[0] if _got "
                "else (None, None)"
            )

        elif step.kind == "fold":
            operands, coefs, oind, base = step.args
            opos, osingle, _ = _dist_meta(base, oind)
            emit(f"# step {knum}: fold {len(operands)} terms under {base}")
            emit(f"if holds(rank, {osingle!r}):")
            emit(f"    _box = region(rank, {opos!r}, {ext(oind)!r}, GRID)")
            # the reference executor's fold, term for term
            emit(
                "    _blk = np.full(tuple(hi - lo for lo, hi in _box), "
                f"float({str(sr.zero)!r}))"
            )
            for var, coef in zip(operands, coefs):
                if sr.is_default:
                    emit(f"    _blk = _blk + {coef!r} * state[{var!r}][1]")
                else:
                    emit(
                        f"    _blk = np.{sr.reduce_ufunc}"
                        f"(_blk, state[{var!r}][1])"
                    )
            emit(f"    state[{step.out!r}] = (_box, _blk)")
            emit("else:")
            emit(f"    state[{step.out!r}] = (None, None)")

        elif step.kind == "result":
            indices, dist, perm = step.args
            emit(f"# step {knum}: expose the result block")
            emit_permuted("state['__result__']", f"state[{step.out!r}]", perm)

        else:  # pragma: no cover - exhaustive
            raise TypeError(step.kind)

    header = [
        "# generated SPMD rank program -- every rank runs this code,",
        "# branching on its own grid coordinates; `yield` marks a",
        "# communication boundary (the bulk-synchronous superstep).",
        "import numpy as np",
        *sorted(kernels),
        "from repro.parallel.spmd_runtime import (",
        "    region, holds, canonical_sender, box_intersect, box_empty,",
        "    box_difference, take, paste, extract,",
        ")",
        "",
        f"GRID = {tuple(grid.dims)!r}",
        f"RANKS = {ranks!r}",
        "",
    ]
    return "\n".join(header + L) + "\n"


@dataclass
class SpmdRun:
    """Outcome of one statement's rank programs (either backend)."""

    #: the statement's global array, axes as its program exposes them;
    #: ``None`` when the blocks stayed resident and nobody gathered them
    result: Optional[np.ndarray]
    comm: LocalComm
    source: str
    supersteps: int
    restarts: int = 0
    #: things the process backend could not do as configured (pin a
    #: worker's BLAS to one thread, give every rank asked for its own
    #: worker); always empty under the in-process driver
    notes: List[str] = field(default_factory=list)


@dataclass
class SpmdSequenceRun:
    """Outcome of executing a whole formula sequence as SPMD programs."""

    #: the inputs plus every array the router holds at the end: the
    #: requested outputs, results of statements it executed itself, and
    #: what those read (declared axes)
    arrays: Dict[str, np.ndarray]
    runs: List[Tuple[str, SpmdRun]]
    total_traffic: int = 0
    total_supersteps: int = 0
    #: elements the router sent to workers as tensor boxes / took back
    #: as result blocks -- what the run moved besides rank-to-rank traffic
    shipped_elements: int = 0
    gathered_elements: int = 0
    #: process-backend notes, each said once (see :attr:`SpmdRun.notes`)
    notes: List[str] = field(default_factory=list)


def load_rank_program(source: str, name: str) -> Callable:
    """Compile generated rank-program text; returns the generator function."""
    namespace: Dict[str, object] = {}
    exec(compile(source, "<generated spmd>", "exec"), namespace)
    return namespace[name]


def run_spmd(
    plan: PartitionPlan,
    inputs,
    name: str = "rank_program",
    faults: Optional[FaultSchedule] = None,
    max_retries: int = 3,
    max_restarts: int = 3,
    retry_backoff: float = 0.0,
    sleep: Callable[[float], None] = time.sleep,
    semiring: str = "plus_times",
) -> SpmdRun:
    """Generate, compile, and execute the rank program on all ranks.

    A one-statement session (:mod:`repro.parallel.session`) on the
    in-process backend: every rank's program is advanced one superstep
    at a time (lock-step, like a BSP machine) and the distributed result
    is assembled into a global array, axes in sorted-index order.

    ``faults`` injects failures: message drops are retried inside the
    communicator (see :class:`LocalComm`), and a scheduled superstep
    crash aborts the statement, which is restarted from the tensor
    tables with a fresh communicator (statement-level restart: table
    entries are never mutated, so a rerun is bit-identical).  Each
    scheduled crash fires once; exceeding ``max_restarts`` raises
    :class:`~repro.robustness.errors.CommFailure`.
    """
    from repro.parallel.session import run_single

    return run_single(
        plan, inputs, name, semiring, faults=faults,
        max_retries=max_retries, max_restarts=max_restarts,
        retry_backoff=retry_backoff, sleep=sleep,
    )


def run_spmd_sequence(
    statements,
    seq_plan,
    inputs,
    faults: Optional[FaultSchedule] = None,
    max_retries: int = 3,
    max_restarts: int = 3,
    backend: str = "local",
    procs: Optional[int] = None,
    pool=None,
    transport: str = "shm",
    semiring: str = "plus_times",
    outputs: Optional[Sequence[str]] = None,
) -> SpmdSequenceRun:
    """Execute a whole-sequence plan (:func:`repro.parallel.program_plan.
    plan_sequence`) as one session of generated SPMD programs.

    A statement's result stays on the ranks that computed it, under its
    plan's root distribution; a later statement reading it redistributes
    from there (the move the sequence planner charges), a multi-term
    combine over such results folds rank-locally, and consecutive
    statements run back to back on the ranks.  Only ``outputs`` (default:
    the planned statements' results) and what a statement without a
    program reads are gathered, with axes restored to the result
    tensor's declared order -- see :mod:`repro.parallel.session`.

    ``faults`` applies to *every* statement's program (drop ordinals
    and crash supersteps restart per statement).

    ``backend`` selects where the ranks live: ``"local"`` keeps them in
    this process; ``"process"`` runs them in worker OS processes
    (:mod:`repro.runtime.process`) with at most ``procs`` workers,
    reusing a worker ``pool`` when given.  ``transport`` (``"shm"`` or
    ``"pipe"``) selects the process backend's ndarray wire (ignored for
    ``"local"`` and when an existing ``pool`` is passed -- the pool's
    own transport wins).

    A caller that runs one sequence repeatedly plans it once
    (:func:`repro.parallel.session.plan_session`, as
    :meth:`repro.pipeline.SynthesisResult.spmd_session` does) and calls
    :func:`repro.parallel.session.run_session`.
    """
    from repro.parallel.session import plan_session, run_session

    session = plan_session(statements, seq_plan.plans, semiring, outputs)
    return run_session(
        session, inputs, faults=faults, max_retries=max_retries,
        max_restarts=max_restarts, backend=backend, procs=procs, pool=pool,
        transport=transport,
    )
