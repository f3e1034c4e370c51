"""One SPMD run is one resident session.

Paper Section 7 prices a distributed program by the redistributions
*between* its contractions and assumes results stay on the processors
that made them.  This module executes exactly that program.  A formula
sequence is planned once into a :class:`SessionPlan` and run by one
bulk-synchronous **router** against one or more **workers**, each
holding some of the grid's ranks:

* every worker keeps a **tensor table** per rank: ``name -> (box,
  block)``, the block in the tensor's declared axis order, the box in
  global coordinates.  The router ships each tensor a run reads to each
  worker **once per run**, as the bounding box of what that worker's
  ranks slice out of it; a statement's result is entered under its
  plan's root distribution and *stays there*;
* input placement is the router's: a rank program slices an input
  where its plan first needs it, so the redistribution of an input the
  §7 DP charges is part of the box shipped with the ``load``, not a
  ``move`` (:attr:`Stage.placed_elements` counts what it would have
  sent);
* a later statement's leaf over a resident result is a ``resident``
  pick-up plus the ``move`` the sequence planner charged; a multi-term
  combine over such results is a rank-local ``fold``
  (:func:`repro.parallel.spmd.fold_schedule`); only the requested
  outputs, and what a statement without a program reads, are gathered;
* consecutive statements are a **chain**: a worker runs from one
  communication round to the next straight through statement
  boundaries, so a round trip is a communication round and nothing
  else (independent moves share one).  The first superstep rides on
  the chain's ``load``, the gather on the reply that completes it: the
  CCSD doubles chain on two workers is a ``load`` and one ``go``.

Table entries are never mutated -- a statement binds its result only
when all of its ranks have finished -- so an injected rank crash
restarts *the statement in flight* from the table, bit-identically,
with a fresh communicator, exactly like the statement-restart recovery
the drivers always had.  Message accounting goes through one
:class:`~repro.parallel.spmd.LocalComm` per statement: traffic
counters, :class:`~repro.robustness.faults.FaultSchedule` drops,
bounded retry and ``CommFailure`` semantics are per statement, and
messages are ordered by the sender's grid-rank position (stable within
a rank) whatever the worker count, so every backend produces the same
bits and the same counters.  A run under a fault schedule carries one
note saying what actually fired (:func:`fault_note`).

The router talks to a worker through a **port** (``post(msg)`` /
``recv()``).  The in-process backend is a port around a
:class:`RankWorker` called by reference; the process backend
(:mod:`repro.runtime.process`) is a port around a pipe and two
shared-memory arenas with the same :class:`RankWorker` at the far end.

Wire vocabulary (router -> worker, then the reply):

* ``("load", ranks, fresh, final, tensors, texts, chain, want, until)``
  -- install a chain and run its first superstep.  ``fresh`` drops the
  table (a new run), ``tensors`` are the boxes shipped with this chain,
  ``chain`` lists ``(key, function name, result name)`` per statement
  with ``key`` the program's :func:`repro.store.content_key`, ``texts``
  carries program text only for keys the worker said it lacks, ``want``
  names the blocks to return when the chain completes, ``final`` drops
  the table afterwards.  Reply: ``("miss", keys)`` or a ``step``;
* ``("go", inbox, until)`` -- deliver messages, run to the next
  boundary, but start no statement at or past chain position
  ``until``.  Reply: ``("step", outbox, at, mid, blocks, note)`` --
  ``at`` is the chain position, ``mid`` whether statement ``at`` is
  paused at a communication boundary (its messages are ``outbox``);
* ``("restart",)`` -- forget the statement in flight.  Reply:
  ``("restarted",)``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.expr.ast import Add
from repro.parallel.grid import ProcessorGrid
from repro.parallel.partition import PartitionPlan
from repro.parallel.ptree import PLeaf
from repro.parallel.spmd import (
    LocalComm,
    Resident,
    SpmdRun,
    SpmdSequenceRun,
    Step,
    _dist_meta,
    _leaf_perm,
    compile_schedule,
    emit_rank_program,
    fold_schedule,
    load_rank_program,
)
from repro.parallel.spmd_runtime import (
    Box,
    canonical_sender,
    holds,
    paste,
    region,
)
from repro.robustness.errors import CommFailure, SpecError
from repro.robustness.faults import FaultSchedule
from repro.robustness.validation import validate_env

Rank = Tuple[int, ...]

#: compiled rank programs a worker keeps beyond the chain it is running
_PROGRAMS_KEPT = 32

#: restarts of a crashed statement before the run fails
MAX_RESTARTS = 3


# ---------------------------------------------------------------------------
# the plan of a session
# ---------------------------------------------------------------------------


@dataclass
class Stage:
    """One statement of a session: a rank program, or (``source`` empty)
    a statement the router evaluates itself."""

    #: the tensor this stage (re)binds
    name: str
    #: router-evaluated stages: the statement, and why it is one
    statement: Optional[object] = None
    reason: str = ""
    #: rank programs: function name, text, content key of the text
    fname: str = ""
    source: str = ""
    key: str = ""
    #: input tensors the program slices: name -> rank -> box it reads,
    #: in the tensor's declared axis order
    slices: Dict[str, Dict[Rank, Box]] = field(default_factory=dict)
    #: elements the program's input placements spare its moves
    #: (:attr:`repro.parallel.spmd.SpmdRun.placed_elements`)
    placed_elements: int = 0
    #: how the result lies in the tables, the ranks whose blocks tile it
    #: (one per replica group), and its global shape as exposed
    held: Optional[Resident] = None
    holders: Tuple[Rank, ...] = ()
    shape: Tuple[int, ...] = ()


@dataclass
class Chain:
    """Consecutive rank programs one ``load`` installs."""

    stages: List[Stage] = field(default_factory=list)
    #: tensors shipped with the load: name -> rank -> box (a tensor is
    #: shipped with the first chain that reads it, as everything the
    #: whole run reads of it)
    ships: Dict[str, Dict[Rank, Box]] = field(default_factory=dict)
    #: producing stages of the blocks gathered when the chain completes
    want: List[Stage] = field(default_factory=list)


@dataclass
class SessionPlan:
    """A formula sequence as chains of rank programs and the statements
    in between that the router evaluates itself."""

    grid: Optional[ProcessorGrid]
    bindings: object
    semiring: str
    items: List[Union[Chain, Stage]]
    #: references to the tensors shipped from the caller's own arrays
    #: (no earlier statement produces them): :func:`run_session` checks
    #: each is there, in its declared shape, before anything is shipped
    external: List = field(default_factory=list)

    @classmethod
    def single(
        cls,
        plan: PartitionPlan,
        name: str = "rank_program",
        semiring: str = "plus_times",
    ) -> "SessionPlan":
        """One plan, inputs sliced, result gathered in sorted-index order."""
        stage = _program_stage(
            name, compile_schedule(plan), plan.grid, plan.bindings, name,
            semiring,
        )
        chain = Chain([stage], dict(stage.slices), [stage])
        return cls(
            plan.grid, plan.bindings, semiring, [chain], _leaf_refs(plan)
        )

    def programs(self) -> List[Stage]:
        """The rank-program stages, in execution order."""
        return [
            stage
            for item in self.items
            for stage in (item.stages if isinstance(item, Chain) else ())
        ]

    def local(self) -> List[Stage]:
        """The stages the router evaluates itself."""
        return [item for item in self.items if isinstance(item, Stage)]


def _widen(boxes: Dict[Rank, Box], rank: Rank, box: Box) -> None:
    """Grow ``boxes[rank]`` to the bounding box that also covers ``box``."""
    have = boxes.get(rank)
    boxes[rank] = box if have is None else _bounding((have, box))


def _bounding(boxes: Sequence[Box]) -> Box:
    return tuple(
        (min(b[d][0] for b in boxes), max(b[d][1] for b in boxes))
        for d in range(len(boxes[0]))
    )


def _program_stage(
    name: str,
    steps: Sequence[Step],
    grid: ProcessorGrid,
    bindings,
    fname: str,
    semiring: str,
) -> Stage:
    """The stage running ``steps``: its text and what the router must
    know to feed it and to gather from it."""
    from repro.store import content_key

    source = emit_rank_program(steps, grid, bindings, fname, semiring)
    ranks = list(grid.ranks())
    slices: Dict[str, Dict[Rank, Box]] = {}
    placed = 0
    for step in steps:
        if step.kind != "slice":
            continue
        tensor, ref_indices, node_indices, dist, spared = step.args
        placed += spared
        pos, single, _ = _dist_meta(dist, node_indices)
        perm = _leaf_perm(ref_indices, node_indices)
        extents = tuple(i.extent(bindings) for i in node_indices)
        boxes = slices.setdefault(tensor, {})
        for rank in ranks:
            if holds(rank, single):
                leaf = region(rank, pos, extents, grid.dims)
                declared = dict(zip(perm, leaf))
                _widen(
                    boxes, rank, tuple(declared[a] for a in range(len(perm)))
                )
    exposed, dist, _ = steps[-1].args
    _, single, dedup = _dist_meta(dist, exposed)
    return Stage(
        name, fname=fname, source=source,
        key=content_key(source), slices=slices, placed_elements=placed,
        held=Resident(tuple(exposed), dist),
        holders=tuple(
            r for r in ranks
            if holds(r, single) and canonical_sender(r, dedup)
        ),
        shape=tuple(i.extent(bindings) for i in exposed),
    )


def _leaf_refs(plan: PartitionPlan) -> List:
    return [n.ref for n in plan.root.walk() if isinstance(n, PLeaf)]


def _assign_plans(statements, plans) -> List[Optional[PartitionPlan]]:
    """The plan of each statement (``None``: it has none).

    ``plans`` is a mapping by result name or ``(name, plan)`` pairs in
    statement order.  A plan goes to the first statement of its name it
    is a plan *of* (same tensor references); one that is a plan of none
    -- the whole operator tree inlined into its last statement
    (:func:`repro.parallel.program_plan.plan_sequence`) -- goes to the
    last statement of its name.
    """
    if isinstance(plans, Mapping):
        pairs = [
            (st.result.name, plans[st.result.name])
            for st in statements
            if st.result.name in plans
        ]
    else:
        pairs = list(plans)
    last = {st.result.name: k for k, st in enumerate(statements)}
    out: List[Optional[PartitionPlan]] = [None] * len(statements)
    for name, plan in pairs:
        reads = sorted(map(str, _leaf_refs(plan)))
        own = (
            k for k, st in enumerate(statements)
            if st.result.name == name
            and out[k] is None
            and sorted(map(str, st.expr.refs())) == reads
        )
        k = next(own, last.get(name))
        if k is not None and out[k] is None:
            out[k] = plan
    return out


def plan_session(
    statements,
    plans,
    semiring: str = "plus_times",
    outputs: Optional[Sequence[str]] = None,
) -> SessionPlan:
    """Plan ``statements`` as one session.

    ``plans`` holds the partition plans (see :func:`_assign_plans`); a
    statement without one is a rank-local fold when it is a multi-term
    combine over resident operands, else the router evaluates it (as it
    does any statement materializing function tensors).  ``outputs``
    names the results the caller wants back (default: those of the
    planned statements); a statement nothing wanted depends on is not
    run at all.
    """
    statements = list(statements)
    plan_of = _assign_plans(statements, plans)
    some = next((p for p in plan_of if p is not None), None)
    grid = some.grid if some is not None else None
    bindings = some.bindings if some is not None else None
    if outputs is None:
        outputs = [
            st.result.name for st, p in zip(statements, plan_of) if p is not None
        ]

    def functional(stmt) -> bool:
        return any(r.tensor.is_function for r in stmt.expr.refs())

    # what each statement reads (an inlined plan reads its own leaves,
    # not its statement's temporaries), then which statements are live
    reads: List[List] = []
    for stmt, plan in zip(statements, plan_of):
        refs = (
            _leaf_refs(plan)
            if plan is not None and not functional(stmt)
            else [r for r in stmt.expr.refs() if not r.tensor.is_function]
        )
        reads.append(refs)
    needed = set(outputs)
    live = [False] * len(statements)
    for k in reversed(range(len(statements))):
        name = statements[k].result.name
        if name in needed:
            live[k] = True
            if not statements[k].accumulate:
                needed.discard(name)
            needed.update(r.tensor.name for r in reads[k])

    items: List[Union[Chain, Stage]] = []
    chains: List[Chain] = []
    #: the chain the next rank program joins (``None``: start one)
    chain: Optional[Chain] = None
    #: name -> producing stage of the block now in the tables
    resident: Dict[str, Stage] = {}
    #: resident names the router holds no copy of
    away = set()
    #: name -> the `ships` entry its current router-held version has
    shipping: Dict[str, Dict[Rank, Box]] = {}
    #: names bound so far, and (by name) a ref to each tensor sliced
    #: from the caller's arrays
    bound = set()
    external: Dict[str, object] = {}

    def fetch(names) -> None:
        """The router needs ``names``: gather those it lacks when the
        last chain completes; whatever follows starts a new chain."""
        nonlocal chain
        lacking = [n for n in dict.fromkeys(names) if n in away]
        if lacking:
            chains[-1].want.extend(resident[n] for n in lacking)
            away.difference_update(lacking)
            chain = None

    def rebind(name: str, stage: Optional[Stage]) -> None:
        bound.add(name)
        shipping.pop(name, None)
        away.discard(name)
        resident.pop(name, None)
        if stage is not None:
            resident[name] = stage
            away.add(name)

    for k, stmt in enumerate(statements):
        if not live[k]:
            continue
        name, plan, refs = stmt.result.name, plan_of[k], reads[k]
        # a repeated index reads a diagonal no distribution describes:
        # such a tensor is sliced from the router's copy
        diagonal = {
            r.tensor.name for r in refs if len(set(r.indices)) < len(r.indices)
        }
        usable = {
            r.tensor.name: resident[r.tensor.name].held
            for r in refs
            if r.tensor.name in resident and r.tensor.name not in diagonal
        }
        steps = None
        if functional(stmt):
            reason = "materializes function tensors"
        elif plan is not None:
            steps = compile_schedule(plan, usable, stmt.result.indices)
        else:
            reason = "no partition plan"
            if isinstance(stmt.expr, Add):
                reason += " (multi-term combine kept data-local)"
            if grid is not None:
                steps = fold_schedule(stmt, usable, semiring)
        if steps is None:
            fetch(r.tensor.name for r in refs)
            chain = None
            items.append(Stage(name, stmt, reason=reason))
            rebind(name, None)
            continue
        stage = _program_stage(
            name, steps, grid, bindings, f"rank_program_{name}", semiring
        )
        fetch(stage.slices)
        for ref in refs:
            tensor = ref.tensor.name
            if tensor in stage.slices and tensor not in bound:
                external.setdefault(tensor, ref)
        if chain is None:
            chain = Chain()
            chains.append(chain)
            items.append(chain)
        chain.stages.append(stage)
        for tensor, boxes in stage.slices.items():
            # the shipped box replaces whatever block was resident
            resident.pop(tensor, None)
            if tensor not in shipping:
                shipping[tensor] = chain.ships.setdefault(tensor, {})
            for rank, box in boxes.items():
                _widen(shipping[tensor], rank, box)
        rebind(name, stage)

    fetch(outputs)
    return SessionPlan(
        grid, bindings, semiring, items, list(external.values())
    )


# ---------------------------------------------------------------------------
# the worker
# ---------------------------------------------------------------------------


class _RankComm:
    """Worker-side communicator for one rank.

    Same-rank handoffs stay local (free, uncounted -- exactly like
    ``LocalComm``); cross-rank sends are buffered into an outbox the
    worker hands to the router at the superstep barrier.  Inbound
    messages arrive via :meth:`push` with the next ``go``.
    """

    def __init__(self) -> None:
        self._mail: Dict[str, List] = {}
        self.outbox: List[Tuple[Rank, Rank, str, object]] = []

    def send(self, source: Rank, dest: Rank, tag: str, payload) -> None:
        if source == dest:
            self.push(tag, payload)
        else:
            self.outbox.append((source, dest, tag, payload))

    def recv_all(self, dest: Rank, tag: str) -> List:
        return self._mail.pop(tag, [])

    def push(self, tag: str, payload) -> None:
        self._mail.setdefault(tag, []).append(payload)


class RankWorker:
    """What one worker holds between messages: compiled programs by
    content key, a tensor table per rank, and the chain in flight.
    :meth:`handle` answers one command (module docstring)."""

    def __init__(self, note: Optional[str] = None) -> None:
        #: said once, in the first ``step``: something this worker could
        #: not do as configured
        self.note = note
        self.programs: Dict[str, Callable] = {}
        self.tables: Dict[Rank, Dict[str, Tuple]] = {}
        self.ranks: Sequence[Rank] = ()
        self.chain: Sequence[Tuple[str, str, str]] = ()
        self.want: Sequence[Tuple[str, Sequence[Rank]]] = ()
        self.final = False
        self.at = 0
        #: (comms, states, generators) of the statement in flight
        self.live: Optional[Tuple[Dict, Dict, Dict]] = None

    def handle(self, msg):
        kind = msg[0]
        if kind == "go":
            return self._advance(msg[1], msg[2])
        if kind == "load":
            return self._load(*msg[1:])
        if kind == "restart":
            self.live = None
            return ("restarted",)
        return ("error", f"unknown command {kind!r}")

    def _load(self, ranks, fresh, final, tensors, texts, chain, want, until):
        if fresh:
            self.tables = {}
        self.ranks = ranks
        self.live = None
        for rank in ranks:
            table = self.tables.setdefault(rank, {})
            table.update(tensors)
        for key, (fname, text) in texts.items():
            self.programs[key] = load_rank_program(text, fname)
        keys = [key for key, _, _ in chain]
        missing = [key for key in keys if key not in self.programs]
        if missing:
            return ("miss", missing)
        if len(self.programs) > max(_PROGRAMS_KEPT, len(keys)):
            self.programs = {key: self.programs[key] for key in keys}
        self.chain, self.want, self.final = chain, want, final
        self.at = 0
        return self._advance((), until)

    def _advance(self, inbox, until):
        """Deliver ``inbox`` and run every rank to the next communication
        boundary, through statement boundaries before ``until``."""
        if inbox:
            comms = self.live[0]
            for dest, tag, payload in inbox:
                comms[dest].push(tag, payload)
        outbox: List = []
        while True:
            if self.live is None:
                if self.at >= min(until, len(self.chain)):
                    break
                program = self.programs[self.chain[self.at][0]]
                comms = {r: _RankComm() for r in self.ranks}
                states: Dict[Rank, Dict] = {r: {} for r in self.ranks}
                gens = {
                    r: program(r, comms[r], self.tables[r], states[r])
                    for r in self.ranks
                }
                self.live = (comms, states, gens)
            comms, states, gens = self.live
            finished = 0
            for rank in self.ranks:
                try:
                    next(gens[rank])
                except StopIteration:
                    finished += 1
                outbox.extend(comms[rank].outbox)
                comms[rank].outbox = []
            if not finished:
                break  # a communication boundary
            if finished != len(self.ranks):
                raise RuntimeError(
                    "rank programs of one statement left lock step"
                )
            # bind the result only now: a restart before this line finds
            # the table as the statement found it
            result = self.chain[self.at][2]
            for rank in self.ranks:
                self.tables[rank][result] = states[rank].get(
                    "__result__", (None, None)
                )
            self.live = None
            self.at += 1
        blocks = None
        if self.live is None and self.at == len(self.chain):
            blocks = {
                name: {r: self.tables[r][name] for r in ranks}
                for name, ranks in self.want
            }
            if self.final:
                self.tables = {}
        said, self.note = self.note, None
        return ("step", outbox, self.at, self.live is not None, blocks, said)


class _Loopback:
    """The in-process port: a :class:`RankWorker` answering by
    reference.  A failure inside a rank program propagates as itself."""

    broken = False

    def __init__(self) -> None:
        self._worker = RankWorker()
        self._reply = None

    def post(self, msg) -> None:
        self._reply = self._worker.handle(msg)

    def recv(self):
        return self._reply


# ---------------------------------------------------------------------------
# the router
# ---------------------------------------------------------------------------


def _recv_all(ports) -> List:
    """One reply from every port.  A worker-side failure is raised only
    after the others have answered too: a reply left unread would be
    taken for the answer to the port's next command."""
    replies: List = []
    failure: Optional[CommFailure] = None
    for port in ports:
        try:
            replies.append(port.recv())
        except CommFailure as exc:
            if port.broken:  # dead or hung worker: the pool is done
                raise
            failure = failure or exc
    if failure is not None:
        raise failure
    return replies


def worker_count(
    nranks: int, procs: Optional[int] = None
) -> Tuple[int, Optional[str]]:
    """How many worker processes run ``nranks`` ranks when the caller
    asked for ``procs``: one per rank unless told fewer, and never more
    than the machine has cores (oversubscribing them only adds scheduler
    thrash).  Second value: the note to leave when that last clamp bit.
    Fewer than one worker is a
    :class:`~repro.robustness.errors.SpecError`, as it is on the
    command line and the wire.
    """
    if procs is not None and procs < 1:
        raise SpecError(
            f"procs must be >= 1, got {procs}", stage="execution"
        )
    wanted = min(procs or nranks, nranks)
    ncpu = os.cpu_count() or 1
    if wanted <= ncpu:
        return wanted, None
    return ncpu, (
        f"procs clamped {wanted} -> {ncpu} "
        "(os.cpu_count(); oversubscription disabled)"
    )


#: how the run note on injected faults begins (:func:`fault_note`)
FAULT_NOTE = "injected faults: "


def fault_note(runs: Sequence[SpmdRun]) -> str:
    """The run note on injected faults: what fired, read off the
    counters (drops retried, statement restarts), or that nothing did."""
    dropped = sum(run.comm.dropped for run in runs)
    restarts = sum(run.restarts for run in runs)
    fired = []
    if dropped:
        s = "s" if dropped > 1 else ""
        fired.append(f"{dropped} dropped message{s} retried")
    if restarts:
        fired.append(f"{restarts} restart{'s' if restarts > 1 else ''}")
    return FAULT_NOTE + (", ".join(fired) or "scheduled, none fired")


def run_session(
    session: SessionPlan,
    inputs,
    *,
    faults: Optional[FaultSchedule] = None,
    backend: str = "local",
    procs: Optional[int] = None,
    pool=None,
    transport: str = "shm",
    functions: Optional[Mapping[str, Callable]] = None,
) -> SpmdSequenceRun:
    """Run a planned session (:func:`plan_session`, or
    :meth:`SessionPlan.single` for one plan) of generated SPMD programs.

    A statement's result stays on the ranks that computed it, under its
    plan's root distribution; a later statement reading it redistributes
    from there (the move the sequence planner charges), a multi-term
    combine over such results folds rank-locally, and consecutive
    statements run back to back on the ranks.  Only the session's
    outputs and what a statement without a program reads are gathered,
    with axes restored to the result tensor's declared order (module
    docstring); ``functions`` serves the statements the router
    evaluates itself.

    ``faults`` applies to *every* statement's program (drop ordinals
    and crash supersteps restart per statement): a drop is re-sent up
    to :data:`repro.parallel.spmd.MAX_RETRIES` times, a crashed
    statement restarts up to :data:`MAX_RESTARTS` times, and past
    either limit the run raises
    :class:`~repro.robustness.errors.CommFailure`.

    ``backend`` selects where the ranks live: ``"local"`` keeps them in
    this process; ``"process"`` runs them in worker OS processes
    (:mod:`repro.runtime.process`) with at most ``procs`` workers
    (:func:`worker_count`), reusing a worker ``pool`` when given.
    ``transport`` (``"shm"`` or ``"pipe"``) selects the ndarray wire of
    a pool created here (a passed-in ``pool`` keeps its own).

    Raises :class:`~repro.robustness.errors.SpecError` /
    :class:`~repro.robustness.errors.ShapeError` naming the tensor when
    an array the ranks would slice is missing or mis-shaped."""
    if backend not in ("local", "process"):
        raise ValueError(
            f"unknown SPMD backend {backend!r} (use 'local' or 'process')"
        )
    # rank programs slice what they are sent unchecked
    validate_env(
        inputs, session.external, session.bindings, stage="execution"
    )
    owned = clamped = None
    if backend == "local" or not session.programs():
        ports = [_Loopback()]
    else:
        from repro.runtime.process import SpmdProcessPool

        nworkers, clamped = worker_count(session.grid.size, procs)
        if pool is None:
            pool = owned = SpmdProcessPool(nworkers, transport=transport)
        ports = pool.workers(nworkers)
    try:
        out = _Router(ports, session, inputs, faults, functions).run()
    finally:
        if owned is not None:
            owned.close()
    if clamped:
        out.notes.append(clamped)
    return out


class _Router:
    """The bulk-synchronous driver of one session (module docstring)."""

    def __init__(self, ports, session, inputs, faults, functions) -> None:
        self.ports = ports
        self.session = session
        self.faults = faults
        self.functions = functions
        self.out = SpmdSequenceRun(dict(inputs), [])
        ranks = list(session.grid.ranks()) if session.grid is not None else []
        n = len(ports)
        self.assignment = [ranks[w::n] for w in range(n)]
        self.worker_of = {
            r: w for w, mine in enumerate(self.assignment) for r in mine
        }
        self.rank_pos = {r: k for k, r in enumerate(ranks)}
        self.run_of: Dict[int, SpmdRun] = {}

    def run(self) -> SpmdSequenceRun:
        from repro.engine.executor import run_statements

        session, out = self.session, self.out
        chains = [i for i in session.items if isinstance(i, Chain)]
        for item in session.items:
            if isinstance(item, Chain):
                self._chain(item, item is chains[0], item is chains[-1])
            else:
                out.arrays = run_statements(
                    [item.statement], out.arrays, session.bindings,
                    self.functions, semiring=session.semiring,
                )
        out.total_traffic = sum(r.comm.total_traffic for _, r in out.runs)
        out.total_supersteps = sum(r.supersteps for _, r in out.runs)
        out.placed_elements = sum(r.placed_elements for _, r in out.runs)
        if self.faults is not None and self.faults.any_faults:
            out.notes.append(fault_note([run for _, run in out.runs]))
        return out

    def _chain(self, chain: Chain, fresh: bool, final: bool) -> None:
        ports, stages = self.ports, chain.stages
        runs = [
            SpmdRun(
                None, self._comm(), st.source, 0,
                placed_elements=st.placed_elements,
            )
            for st in stages
        ]
        fired = [set() for _ in stages]
        crash = self.faults.crash_supersteps if self.faults is not None else ()
        pos, mid, loaded = 0, False, False
        inboxes: List[List] = [[] for _ in ports]
        replies: List = []
        while pos < len(stages):
            run = runs[pos]
            if run.supersteps in crash and run.supersteps not in fired[pos]:
                # a rank crash fires at the start of the superstep,
                # before any rank advances; the statement starts over
                # from the table (a crash at superstep 0 of a chain's
                # first statement even precedes the load)
                fired[pos].add(run.supersteps)
                run.restarts += 1
                if run.restarts > MAX_RESTARTS:
                    raise CommFailure(
                        f"execution did not complete within "
                        f"{MAX_RESTARTS} restarts",
                        stage="spmd",
                    )
                if mid:
                    for port in ports:
                        port.post(("restart",))
                    _recv_all(ports)
                mid, run.supersteps, run.comm = False, 0, self._comm()
                inboxes = [[] for _ in ports]
                continue
            # a crash scheduled at superstep 0 is the router's to fire:
            # no statement may then start unasked
            until = pos + 1 if 0 in crash else len(stages)
            if loaded:
                for port, inbox in zip(ports, inboxes):
                    port.post(("go", inbox, until))
                replies = _recv_all(ports)
            else:
                replies = self._load(chain, fresh, final, until)
                loaded = True
            at, now_mid = replies[0][2], replies[0][3]
            if any((r[2], r[3]) != (at, now_mid) for r in replies):
                raise CommFailure(
                    "workers left lock step: chain positions "
                    f"{[(r[2], r[3]) for r in replies]}",
                    stage="spmd",
                )
            # one superstep for the statement resumed and for each begun
            for k in range(pos, at + 1 if now_mid else at):
                runs[k].supersteps += 1
            for reply in replies:
                if reply[5] and reply[5] not in self.out.notes:
                    self.out.notes.append(reply[5])
            # account and route: global ordinal order is by sender's
            # grid-rank position (stable within one rank's sends),
            # whatever the worker count
            inboxes = [[] for _ in ports]
            messages = [m for reply in replies for m in reply[1]]
            if messages:
                comm = runs[at].comm
                messages.sort(key=lambda m: self.rank_pos[m[0]])
                for source, dest, tag, payload in messages:
                    comm.send(source, dest, tag, payload)
                for (dest, tag), payloads in comm.drain().items():
                    box = inboxes[self.worker_of[dest]]
                    box.extend((dest, tag, p) for p in payloads)
            pos, mid = at, now_mid
        for stage, run in zip(stages, runs):
            self.out.runs.append((stage.name, run))
            self.run_of[id(stage)] = run
        self._gather(chain, [reply[4] for reply in replies])

    def _comm(self) -> LocalComm:
        """A fresh per-statement communicator, the run's faults bound in."""
        return LocalComm(self.session.grid, self.faults)

    def _load(self, chain: Chain, fresh: bool, final: bool, until: int) -> List:
        """Post the chain's ``load`` (tensor boxes aboard) to every
        worker; a worker that lacks a program is sent its text."""
        arrays, ports = self.out.arrays, self.ports
        programs = [(st.key, st.fname, st.name) for st in chain.stages]
        msgs = []
        for mine in self.assignment:
            tensors = {}
            for name, boxes in chain.ships.items():
                held = [boxes[r] for r in mine if r in boxes]
                if name not in arrays or not held:
                    continue  # a program that misses it will say so
                box = _bounding(held)
                block = np.asarray(arrays[name])
                if box:
                    block = block[tuple(slice(lo, hi) for lo, hi in box)]
                tensors[name] = (box, block)
                self.out.shipped_elements += block.size
            want = [
                (st.name, [r for r in st.holders if r in mine])
                for st in chain.want
            ]
            msgs.append(
                ["load", mine, fresh, final, tensors, {}, programs, want,
                 until]
            )
        for port, msg in zip(ports, msgs):
            port.post(tuple(msg))
        replies = _recv_all(ports)
        missed = [w for w, reply in enumerate(replies) if reply[0] == "miss"]
        if missed:
            texts = {st.key: (st.fname, st.source) for st in chain.stages}
            for w in missed:
                # the table part of the load has been applied
                msgs[w][2], msgs[w][4] = False, {}
                msgs[w][5] = {key: texts[key] for key in replies[w][1]}
                ports[w].post(tuple(msgs[w]))
            again = _recv_all([ports[w] for w in missed])
            for w, reply in zip(missed, again):
                replies[w] = reply
        return replies

    def _gather(self, chain: Chain, blocks: Sequence[Mapping]) -> None:
        """Paste the blocks the chain's last replies carried into global
        arrays.  The blocks tile each result; the reduce identity is the
        only neutral background for whatever a degenerate plan leaves
        out."""
        from repro.semiring import get_semiring

        zero = get_semiring(self.session.semiring).zero
        for stage in chain.want:
            full = np.full(stage.shape, zero, dtype=np.float64)
            whole = tuple((0, n) for n in stage.shape)
            for per_worker in blocks:
                for box, blk in per_worker[stage.name].values():
                    if box is not None:
                        paste(full, whole, box, blk)
                        self.out.gathered_elements += int(np.size(blk))
            self.out.arrays[stage.name] = full
            self.run_of[id(stage)].result = full
