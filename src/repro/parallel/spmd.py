"""SPMD code generation: partition plans to per-rank parallel programs.

The paper's title promises compilation of tensor contractions *into
parallel programs*.  This module closes that loop: a
:class:`~repro.parallel.partition.PartitionPlan` is lowered to a static
schedule of typed steps (:func:`compile_schedule`) and then emitted as
the Python source of a **rank program** (:func:`generate_spmd_source`):

    def rank_program(rank, comm, arrays, state):
        ...
        yield   # end of a communication round

Every rank executes the same code, branching on its own grid
coordinates -- classic SPMD.  Communication goes through an explicit
communicator (``comm.send`` / ``comm.recv_all``) in bulk-synchronous
supersteps.  A superstep is a **communication round** and nothing else:
the program ``yield``s once per round.  A ``move`` sends where it stands
and receives only when a later step reads the moved value (or at a
``combine`` / ``bcast`` / the end of the program), so consecutive
independent moves share one ``yield``; a ``combine`` or ``bcast`` is a
round of its own.  Placing inputs, local contractions, partial sums and
exposing the result are rank-local and run straight through -- an input
is sliced where the plan first needs it, so it is never moved.
``arrays[name]`` is an entry of the rank's **tensor table**: a ``(box,
block)`` pair in the tensor's declared axis order (a plain ndarray
stands for its whole box) -- a box the router shipped, which a
``slice`` step reads its region out of, or the block an earlier
statement of the same session left ``resident``, which is picked up and
moved from the distribution it was produced under.  The
driver (:mod:`repro.parallel.session`; :func:`run_spmd` is its
one-statement form) advances all ranks in lock step -- the in-process
stand-in for ``mpiexec`` (see the mpi4py substitution note in
DESIGN.md).

Local arithmetic is the cost model's: a product and the partial sums
directly above it are **one** ``contract`` step, and a multi-term
combine is one ``fold`` step.  Both are terms as the kernel plan knows
them: each is lowered by :func:`repro.kernels.plan.lower_term` exactly
as :func:`~repro.kernels.plan.compile_kernel_plan` lowers it in GEMM
mode (a product to GEMM under ``plus_times``, the semiring-aware einsum
where that declines or the algebra is not ``(+, x)``; a fold operand to
a ``copy`` term), written into the program's header as a literal, and
run by :func:`~repro.kernels.plan.exec_term` into a C-ordered block the
step allocates.  So no rank's ``state`` ever holds a block of higher
rank than the step's operands and result, under ``plus_times`` the
joint block is never formed at all, and the text stays self-contained.

Communication patterns match the cost model exactly:

* redistribution: each receiver's needed-but-not-held region is
  decomposed into boxes; each box piece is sent by its canonical owner
  (disjoint senders, so transferred elements == the model's
  received-element count, less what the schedule's input placements
  count as ``placed`` instead of sending);
* reduction: partial sums, combine to the coordinate-0 root along the
  summed processor dimension, optional broadcast.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.expr.indices import Bindings, Index
from repro.parallel.commcost import reduction_result_dist
from repro.parallel.dist import Distribution, REPLICATED, SINGLE
from repro.parallel.grid import ProcessorGrid
from repro.parallel.partition import PartitionPlan
from repro.parallel.ptree import PLeaf, PMul, PNode, PSum
from repro.parallel.spmd_runtime import (
    box_difference,
    box_intersect,
    box_volume,
    canonical_sender,
    holds,
    region,
)
from repro.robustness.errors import CommFailure, PlanError
from repro.robustness.faults import FaultSchedule

Rank = Tuple[int, ...]


# ---------------------------------------------------------------------------
# communicator
# ---------------------------------------------------------------------------


#: re-sends of a dropped cross-rank message before the statement fails
MAX_RETRIES = 3


class LocalComm:
    """In-process mailbox communicator with traffic counters.

    ``faults`` (a :class:`~repro.robustness.faults.FaultSchedule`)
    injects message drops by cross-rank message ordinal: a dropped
    attempt is charged to the sender (the network ate it) but never
    delivered; the communicator re-sends at once, up to
    :data:`MAX_RETRIES` times, and raises
    :class:`~repro.robustness.errors.CommFailure` when the drop
    schedule outlasts that.  Fault-free behaviour is unchanged.
    """

    def __init__(
        self, grid: ProcessorGrid, faults: Optional[FaultSchedule] = None
    ) -> None:
        self.grid = grid
        self.faults = faults
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
        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                self.retries += 1
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
            f"dropped on every attempt; {MAX_RETRIES} retries "
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

    @property
    def reads(self) -> Tuple[str, ...]:
        """The values this step reads (``result`` exposes ``out``)."""
        if self.kind in ("slice", "resident"):
            return ()
        if self.kind == "result":
            return (self.out,)
        if self.kind == "fold":
            return tuple(self.args[0])
        if self.kind == "contract":
            return (self.args[0], self.args[2])
        return (self.args[0],)


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


def _move_elements(
    indices: Sequence[Index],
    src: Distribution,
    dst: Distribution,
    grid: ProcessorGrid,
    bindings: Optional[Bindings],
) -> int:
    """Cross-rank elements the emitted ``move`` of ``indices`` from
    ``src`` to ``dst`` sends: the receiver's pieces and the canonical
    senders' boxes of :func:`emit_rank_program`, counted instead of
    sent."""
    spos, ssingle, sdedup = _dist_meta(src, indices)
    dpos, dsingle, _ = _dist_meta(dst, indices)
    extents = tuple(i.extent(bindings) for i in indices)
    ranks = list(grid.ranks())
    senders = [
        region(r, spos, extents, grid.dims)
        for r in ranks
        if holds(r, ssingle) and canonical_sender(r, sdedup)
    ]
    total = 0
    for other in ranks:
        if not holds(other, dsingle):
            continue
        need = region(other, dpos, extents, grid.dims)
        pieces = (
            box_difference(need, region(other, spos, extents, grid.dims))
            if holds(other, ssingle)
            else [need]
        )
        total += sum(
            box_volume(box_intersect(piece, box))
            for piece in pieces
            for box in senders
        )
    return total


class _Schedule:
    """The step list under construction and the three things every
    schedule does: name a value, redistribute one, read a tensor."""

    def __init__(
        self,
        resident: Optional[Mapping[str, Resident]],
        grid: Optional[ProcessorGrid] = None,
        bindings: Optional[Bindings] = None,
    ) -> None:
        self.steps: List[Step] = []
        self.resident = resident or {}
        self.grid = grid
        self.bindings = bindings
        self._counter = itertools.count()
        #: value -> position of the ``slice`` step that reads it from an
        #: input (the tree gives it exactly one consumer)
        self._sliced: Dict[str, int] = {}

    def fresh(self) -> str:
        return f"v{next(self._counter)}"

    def add(self, kind: str, args: Tuple) -> str:
        out = self.fresh()
        self.steps.append(Step(kind, out, args))
        return out

    def move(self, var: str, indices, src: Distribution, dst: Distribution) -> str:
        """Redistribute ``var`` from ``src`` to ``dst``.  A value sliced
        from an input is instead sliced at ``dst`` (no step is added);
        its slice step's last argument counts the elements the elided
        move would have sent."""
        at = self._sliced.get(var)
        if at is None:
            return self.add("move", (var, tuple(indices), src, dst))
        name, ref_indices, node_indices, _, placed = self.steps[at].args
        placed += _move_elements(indices, src, dst, self.grid, self.bindings)
        self.steps[at] = Step(
            "slice", var, (name, ref_indices, node_indices, dst, placed)
        )
        return var

    def leaf(self, ref, indices, gamma: Distribution) -> str:
        """``ref`` placed as ``gamma``.  An input is sliced there, or
        where the schedule first moves it (:meth:`move`): the router
        ships every worker the box its ranks slice, so placing an input
        never costs a round.  A block an earlier statement left resident
        is picked up where it is and moved -- the redistribution
        ``_plan_with_pinned_leaves`` charges, seen through the use
        site's index names."""
        name = ref.tensor.name
        held = self.resident.get(name)
        if held is None:
            var = self.add(
                "slice", (name, tuple(ref.indices), tuple(indices), gamma, 0)
            )
            self._sliced[var] = len(self.steps) - 1
            return var
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
    axis order the result is exposed in.  No ``move`` reads a ``slice``:
    an input is sliced where it is first needed (:meth:`_Schedule.move`).
    A plan whose tables do not cover its ``root`` raises
    :class:`~repro.robustness.errors.PlanError`.
    """
    for node in plan.root.walk():
        if id(node) not in plan.gamma or id(node) not in plan.dist or (
            isinstance(node, PSum) and id(node) not in plan.sum_option
        ):
            raise PlanError(
                f"plan has no distribution for node {type(node).__name__}; "
                "the plan was built for a different tree",
                stage="spmd",
            )
    sched = _Schedule(resident, plan.grid, plan.bindings)
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
) -> str:
    """Emit the per-rank program source for a partition plan, its inputs
    sliced and its result gathered (a session's statements are emitted
    by :func:`emit_rank_program` over their own schedules).

    ``semiring`` selects the scalar algebra (:mod:`repro.semiring`):
    local contractions go to GEMM under ``plus_times`` and to the
    semiring-aware einsum otherwise, partial sums emit the reduce
    ufunc's axis reduction, and the combine superstep's cross-rank
    accumulation emits the reduce ufunc -- the emitted text is what
    ships to process-backend workers, so every execution substrate
    inherits the algebra from this one emission site.
    """
    return emit_rank_program(
        compile_schedule(plan), plan.grid, plan.bindings, name, semiring
    )


def emit_rank_program(
    steps: Sequence[Step],
    grid: ProcessorGrid,
    bindings: Optional[Bindings],
    name: str,
    semiring: str = "plus_times",
) -> str:
    """The source text of the rank program running ``steps``."""
    from repro.kernels.plan import OperandSpec, lower_term
    from repro.semiring import get_semiring

    sr = get_semiring(semiring)
    ranks = list(grid.ranks())

    L: List[str] = [
        f"def {name}(rank, comm, arrays, state):",
        # a plan that never communicates has no other `yield`
        "    yield from ()  # a rank program is always a generator",
    ]

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

    terms: List[str] = []  # the header's literals of the lowered terms

    def emit_terms(step: Step, knum: int, oind, gamma, lowered) -> None:
        """``step`` folds the terms ``lowered`` -- ``(coefficient,
        operand variables, their indices, summed indices)`` each -- into
        a fresh block of the rank's region of ``oind`` under ``gamma``
        (module docstring: "Local arithmetic")."""
        opos, osingle, _ = _dist_meta(gamma, oind)
        emit(f"if holds(rank, {osingle!r}):")
        emit(f"    _box = region(rank, {opos!r}, {ext(oind)!r}, GRID)")
        emit("    _blk = np.empty(tuple(hi - lo for lo, hi in _box))")
        for k, (coef, reads, indices, sums) in enumerate(lowered):
            term = lower_term(
                coef, tuple(OperandSpec(var) for var in reads), indices,
                frozenset(sums), tuple(oind), bindings, semiring=semiring,
            )
            terms.append(f"TERM{knum}_{k} = {term!r}")
            ops = ", ".join(f"state[{var!r}][1]" for var in reads)
            emit(
                f"    exec_term(TERM{knum}_{k}, [{ops}], _blk, {k == 0}, "
                "SEMIRING, ARENA)"
            )
        emit(f"    state[{step.out!r}] = (_box, _blk)")
        emit("else:")
        emit(f"    state[{step.out!r}] = (None, None)")

    #: receive halves of the moves in flight, by the value each binds
    landing: Dict[str, List[str]] = {}

    def end_round() -> None:
        """Close the round: one ``yield``, then every receive half."""
        if landing:
            emit("yield")
            for text in itertools.chain.from_iterable(landing.values()):
                emit(text)
            landing.clear()

    for knum, step in enumerate(steps):
        tag = f"s{knum}"
        waits = any(var in landing for var in step.reads)
        if waits or step.kind in ("combine", "bcast"):
            end_round()
        if step.kind == "slice":
            tensor_name, ref_indices, node_indices, dist, _ = step.args
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
            # the receive half waits for the round's end (end_round)
            landing[step.out] = [
                f"# step {knum}: receive {src} -> {dst}",
                f"if holds(rank, {dsingle!r}):",
                f"    _box = region(rank, {dpos!r}, {extents!r}, GRID)",
                "    _blk = np.zeros(tuple(hi - lo for lo, hi in _box))",
                f"    if holds(rank, {ssingle!r}):",
                f"        _own = box_intersect(_box, state[{var!r}][0])",
                "        if not box_empty(_own):",
                f"            paste(_blk, _box, _own, "
                f"extract(state[{var!r}][1], state[{var!r}][0], _own))",
                f"    for _pbox, _piece in comm.recv_all(rank, {tag!r}):",
                "        paste(_blk, _box, _pbox, _piece)",
                f"    state[{step.out!r}] = (_box, _blk)",
                "else:",
                f"    state[{step.out!r}] = (None, None)",
            ]

        elif step.kind == "contract":
            lvar, lind, rvar, rind, sums, oind, gamma = step.args
            over = ",".join(i.name for i in sums) or "nothing"
            emit(f"# step {knum}: local contraction over {over} under {gamma}")
            emit_terms(step, knum, oind, gamma, [
                (1.0, (lvar, rvar), (lind, rind), sums)
            ])

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
            # np.array, not .copy(): a scalar's partial sum is a numpy
            # scalar, and the fold below needs an array to write into
            emit("    _blk = np.array(_blk)")
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
            emit(f"# step {knum}: fold {len(operands)} terms under {base}")
            # each operand is a copy term of the statement
            emit_terms(step, knum, oind, base, [
                (coef, (var,), (oind,), ()) for var, coef in zip(operands, coefs)
            ])

        elif step.kind == "result":
            indices, dist, perm = step.args
            emit(f"# step {knum}: expose the result block")
            emit_permuted("state['__result__']", f"state[{step.out!r}]", perm)

        else:  # pragma: no cover - exhaustive
            raise TypeError(step.kind)
    end_round()

    header = [
        "# generated SPMD rank program -- every rank runs this code,",
        "# branching on its own grid coordinates; `yield` ends a",
        "# communication round (the bulk-synchronous superstep).",
        "import numpy as np",
        "from repro.kernels.arena import BufferArena",
        "from repro.kernels.lowering import GemmSpec",
        "from repro.kernels.plan import OperandSpec, TermPlan, exec_term",
        "from repro.parallel.spmd_runtime import (",
        "    region, holds, canonical_sender, box_intersect, box_empty,",
        "    box_difference, take, paste, extract,",
        ")",
        "from repro.semiring import get_semiring",
        "",
        f"GRID = {tuple(grid.dims)!r}",
        f"RANKS = {ranks!r}",
        f"SEMIRING = get_semiring({semiring!r})",
        "# rank blocks are C-ordered and nothing is pooled between steps",
        "ARENA = BufferArena(enabled=False)",
        *terms,
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
    #: elements the moves of inputs would have sent, had the schedule not
    #: sliced those inputs at the moves' destinations (plan-time; with
    #: ``comm.total_traffic`` it is the §7 model's received-element count)
    placed_elements: int = 0
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
    #: the runs' :attr:`SpmdRun.placed_elements`, summed
    placed_elements: int = 0
    #: elements the router sent to workers as tensor boxes / took back
    #: as result blocks -- what the run moved besides rank-to-rank traffic
    shipped_elements: int = 0
    gathered_elements: int = 0
    #: what the run could not do as configured, each said once (see
    #: :attr:`SpmdRun.notes`), and what injected faults actually fired
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
    semiring: str = "plus_times",
    backend: str = "local",
    procs: Optional[int] = None,
    pool=None,
) -> SpmdRun:
    """Generate, compile, and execute the rank program on all ranks.

    A one-statement session (:func:`repro.parallel.session.run_session`
    of :meth:`~repro.parallel.session.SessionPlan.single`): every rank's
    program is advanced one superstep at a time (lock-step, like a BSP
    machine) and the distributed result is assembled into a global
    array, axes in sorted-index order.  ``backend``, ``procs`` and
    ``pool`` choose where the ranks live, as for ``run_session``; the
    process backend returns the same bits and the same traffic counters,
    and a clamp of the worker count is recorded in the run's ``notes``.

    ``faults`` injects failures: message drops are retried inside the
    communicator (see :class:`LocalComm`), and a scheduled superstep
    crash aborts the statement, which is restarted from the tensor
    tables with a fresh communicator (statement-level restart: table
    entries are never mutated, so a rerun is bit-identical).  Each
    scheduled crash fires once; more than
    :data:`repro.parallel.session.MAX_RESTARTS` restarts raise
    :class:`~repro.robustness.errors.CommFailure`.
    """
    from repro.parallel.session import SessionPlan, run_session

    out = run_session(
        SessionPlan.single(plan, name, semiring), inputs, faults=faults,
        backend=backend, procs=procs, pool=pool,
    )
    ((_, run),) = out.runs
    run.notes = out.notes
    return run
