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
and run straight through.  The driver (:func:`run_spmd`) advances all
ranks in lock step -- the in-process stand-in for ``mpiexec`` (see the
mpi4py substitution note in DESIGN.md).

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
from repro.parallel.spmd_runtime import paste
from repro.robustness.errors import CommFailure, InjectedFault
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

    kind: str  # 'slice' | 'move' | 'contract' | 'partial' | 'combine' | 'bcast' | 'result'
    out: str
    args: Tuple


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


def compile_schedule(plan: PartitionPlan) -> List[Step]:
    """Lower a partition plan to the static step schedule."""
    steps: List[Step] = []
    counter = itertools.count()

    def fresh() -> str:
        return f"v{next(counter)}"

    def move(var: str, indices, src: Distribution, dst: Distribution) -> str:
        out = fresh()
        steps.append(Step("move", out, (var, tuple(indices), src, dst)))
        return out

    def visit(node: PNode) -> Tuple[str, Distribution]:
        if isinstance(node, PLeaf):
            var = fresh()
            dist = plan.gamma[id(node)]
            steps.append(
                Step(
                    "slice",
                    var,
                    (
                        node.ref.tensor.name,
                        tuple(node.ref.indices),
                        tuple(node.indices),
                        dist,
                    ),
                )
            )
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
            var = fresh()
            steps.append(
                Step(
                    "contract",
                    var,
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
                pvar = fresh()
                steps.append(
                    Step(
                        "partial",
                        pvar,
                        (cvar, tuple(node.child.indices), node.index,
                         tuple(node.indices), gamma),
                    )
                )
            option = plan.sum_option[id(node)]
            d = gamma.position_of(node.index)
            if d is None:
                var, cur = pvar, gamma
            else:
                var = fresh()
                steps.append(
                    Step(
                        "combine",
                        var,
                        (pvar, tuple(node.indices), d, gamma),
                    )
                )
                cur = reduction_result_dist(gamma, node.index, replicate=False)
                if option == "replicate":
                    bvar = fresh()
                    steps.append(
                        Step("bcast", bvar, (var, tuple(node.indices), d, cur))
                    )
                    var = bvar
                    cur = reduction_result_dist(
                        gamma, node.index, replicate=True
                    )
            out_dist = plan.dist[id(node)]
            if out_dist.effective(node.indices) != cur.effective(node.indices):
                return move(var, node.indices, cur, out_dist), out_dist
            return var, out_dist

        raise TypeError(type(node).__name__)

    root_var, root_dist = visit(plan.root)
    steps.append(
        Step("result", root_var, (tuple(plan.root.indices), root_dist))
    )
    return steps


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
    """Emit the per-rank program source for a partition plan.

    ``semiring`` selects the scalar algebra (:mod:`repro.semiring`):
    local contractions go to GEMM under ``plus_times`` and to the
    semiring-aware einsum otherwise, partial sums emit the reduce
    ufunc's axis reduction, and the combine superstep's cross-rank
    accumulation emits the reduce ufunc -- the emitted text is what
    ships to process-backend workers, so every execution substrate
    inherits the algebra from this one emission site.
    """
    from repro.expr.indices import einsum_letters
    from repro.kernels.lowering import lower_binary_term
    from repro.semiring import get_semiring

    sr = get_semiring(semiring)
    grid = plan.grid
    bindings = plan.bindings
    steps = compile_schedule(plan)
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
                f"    state[{step.out!r}] = (_box, slice_of("
                f"np.transpose(np.asarray(arrays[{tensor_name!r}], "
                f"dtype=np.float64), {perm!r}), _box))"
            )
            emit("else:")
            emit(f"    state[{step.out!r}] = (None, None)")

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

        elif step.kind == "result":
            indices, dist = step.args
            emit(f"# step {knum}: expose the result block")
            emit(f"state['__result__'] = state[{step.out!r}]")

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
        "    box_difference, slice_of, paste, extract,",
        ")",
        "",
        f"GRID = {tuple(grid.dims)!r}",
        f"RANKS = {ranks!r}",
        "",
    ]
    return "\n".join(header + L) + "\n"


@dataclass
class SpmdRun:
    """Outcome of an SPMD execution (either driver)."""

    result: np.ndarray
    comm: LocalComm
    source: str
    supersteps: int
    restarts: int = 0
    #: things a worker process could not do as configured (today: pin
    #: its BLAS to one thread); always empty under the in-process driver
    notes: List[str] = field(default_factory=list)


@dataclass
class SpmdSequenceRun:
    """Outcome of executing a whole formula sequence as SPMD programs."""

    arrays: Dict[str, np.ndarray]  # produced global arrays (declared axes)
    runs: List[Tuple[str, SpmdRun]]
    total_traffic: int
    total_supersteps: int


def load_rank_program(source: str, name: str) -> Callable:
    """Compile generated rank-program text; returns the generator function."""
    namespace: Dict[str, object] = {}
    exec(compile(source, "<generated spmd>", "exec"), namespace)
    return namespace[name]


def assemble_result(plan: PartitionPlan, blocks, semiring: str) -> np.ndarray:
    """Paste the ranks' ``(box, block)`` result pairs into the global
    array.  The blocks partition the output; the reduce identity is the
    only neutral background for whatever a degenerate plan leaves out."""
    from repro.semiring import get_semiring

    shape = tuple(i.extent(plan.bindings) for i in plan.root.indices)
    out = np.full(shape, get_semiring(semiring).zero, dtype=np.float64)
    whole = tuple((0, n) for n in shape)
    for box, blk in blocks:
        if box is not None:
            paste(out, whole, box, blk)
    return out


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
    source: Optional[str] = None,
) -> SpmdRun:
    """Generate, compile, and execute the rank program on all ranks.

    The driver advances every rank program one superstep at a time
    (lock-step, like a BSP machine), then assembles the distributed
    result into a global array.  ``source`` is the already generated
    text of this plan's program named ``name`` under ``semiring`` (a
    caller that runs one plan repeatedly generates it once).

    ``faults`` injects failures: message drops are retried inside the
    communicator (see :class:`LocalComm`), and a scheduled superstep
    crash aborts the statement, which is restarted from its inputs with
    a fresh communicator (statement-level restart: inputs are never
    mutated, so a rerun is bit-identical).  Each scheduled crash fires
    once; exceeding ``max_restarts`` raises
    :class:`~repro.robustness.errors.CommFailure`.
    """
    if source is None:
        source = generate_spmd_source(plan, name, semiring=semiring)
    program = load_rank_program(source, name)

    grid = plan.grid
    restarts = 0
    fired_crashes: set = set()
    while True:
        comm = LocalComm(
            grid, faults=faults, max_retries=max_retries,
            retry_backoff=retry_backoff, sleep=sleep,
        )
        states: Dict[Rank, Dict] = {r: {} for r in grid.ranks()}
        gens = {
            r: program(r, comm, inputs, states[r]) for r in grid.ranks()
        }
        supersteps = 0
        live = dict(gens)
        try:
            while live:
                if (
                    faults is not None
                    and supersteps in faults.crash_supersteps
                    and supersteps not in fired_crashes
                ):
                    fired_crashes.add(supersteps)
                    raise InjectedFault(
                        f"rank crash injected at superstep {supersteps}",
                        stage="spmd",
                    )
                done = []
                for rank, gen in live.items():
                    try:
                        next(gen)
                    except StopIteration:
                        done.append(rank)
                supersteps += 1
                for rank in done:
                    del live[rank]
            break
        except InjectedFault:
            restarts += 1
            if restarts > max_restarts:
                raise CommFailure(
                    f"execution did not complete within {max_restarts} "
                    "restarts",
                    stage="spmd",
                ) from None

    result = assemble_result(
        plan,
        (state.get("__result__", (None, None)) for state in states.values()),
        semiring,
    )
    return SpmdRun(result, comm, source, supersteps, restarts)


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
    sources: Optional[Mapping[str, str]] = None,
) -> SpmdSequenceRun:
    """Execute a whole-sequence plan (:func:`repro.parallel.program_plan.
    plan_sequence`) as a series of generated SPMD programs.

    Each statement's result is gathered and handed to the next program
    with its axes restored to the result tensor's declared order (the
    storage convention of the rest of the repository).  The per-program
    gather/re-scatter is an artifact of running programs independently;
    traffic inside each program still matches the cost model.

    ``faults`` applies to *every* statement's program (drop ordinals
    and crash supersteps restart per statement).

    ``backend`` selects the driver: ``"local"`` is the in-process
    lock-step driver (:func:`run_spmd`); ``"process"`` runs every rank
    in a worker OS process (:mod:`repro.runtime.process`) with at most
    ``procs`` workers, reusing one worker ``pool`` across the sequence
    when given.  ``transport`` (``"shm"`` or ``"pipe"``) selects the
    process backend's ndarray wire (ignored for ``"local"`` and when an
    existing ``pool`` is passed -- the pool's own transport wins).

    ``sources`` maps statement names to already generated program text
    (:meth:`repro.pipeline.SynthesisResult.spmd_sources`: the function
    of statement ``X`` is ``rank_program_X``); statements it does not
    name are generated here.
    """
    if backend not in ("local", "process"):
        raise ValueError(
            f"unknown SPMD backend {backend!r} (use 'local' or 'process')"
        )
    run_one = run_spmd
    owned_pool = None
    if backend == "process":
        from repro.runtime.process import SpmdProcessPool, run_spmd_process

        if pool is None and seq_plan.plans:
            grid_size = seq_plan.plans[0][1].grid.size
            pool = owned_pool = SpmdProcessPool(
                procs or grid_size, transport=transport
            )

        def run_one(plan, arrays, **kw):
            return run_spmd_process(plan, arrays, pool=pool, procs=procs, **kw)

    declared = {s.result.name: tuple(s.result.indices) for s in statements}
    try:
        return _run_sequence(
            seq_plan, run_one, dict(inputs), declared,
            faults, max_retries, max_restarts, semiring, sources or {},
        )
    finally:
        if owned_pool is not None:
            owned_pool.close()


def _run_sequence(
    seq_plan, run_one, arrays, declared, faults, max_retries, max_restarts,
    semiring, sources,
) -> SpmdSequenceRun:
    runs: List[Tuple[str, SpmdRun]] = []
    traffic = 0
    steps = 0
    for name, plan in seq_plan.plans:
        run = run_one(
            plan, arrays, name=f"rank_program_{name}",
            source=sources.get(name), faults=faults,
            max_retries=max_retries, max_restarts=max_restarts,
            semiring=semiring,
        )
        runs.append((name, run))
        traffic += run.comm.total_traffic
        steps += run.supersteps
        # run_spmd returns axes in sorted-index order (the ptree
        # convention); store under the producing statement's declared
        # order so later references slice correctly
        sorted_idx = tuple(plan.root.indices)
        order = declared.get(name, sorted_idx)
        perm = tuple(sorted_idx.index(i) for i in order)
        arrays[name] = (
            np.transpose(run.result, perm) if perm else run.result
        )
    return SpmdSequenceRun(arrays, runs, traffic, steps)
