"""Multi-process SPMD execution of generated rank programs.

The in-process driver (:func:`repro.parallel.spmd.run_spmd`) advances
every rank's generator in one interpreter -- correct, countable, but
serial.  This module runs the *same generated source* across worker OS
processes, the way the paper's target machines run one MPI rank per
processor:

* each worker process executes one or more ranks (round-robin when the
  grid is larger than the worker count), advancing each rank's program
  generator one superstep -- one communication boundary -- at a time;
* a bulk-synchronous **router** in the calling process implements the
  superstep barrier with exactly one round trip per superstep: the
  statement's first superstep rides on its ``load`` (which ships only
  the tensors the statement reads), every later one on a ``go``; each
  is answered by a ``step`` reply carrying the worker's outbox, and the
  ``step`` that retires a worker's last rank carries its result blocks.
  The router accounts every cross-rank message through a
  :class:`~repro.parallel.spmd.LocalComm` (so traffic counters,
  :class:`~repro.robustness.faults.FaultSchedule` drops, bounded retry
  with backoff, and :class:`~repro.robustness.errors.CommFailure`
  semantics are *identical* to the in-process driver), and ships each
  rank's inbox with the next ``go``;
* an injected rank crash aborts the superstep loop and restarts the
  statement on the same workers from the original inputs (inputs are
  never mutated, so the rerun is bit-identical), mirroring
  ``run_spmd``'s statement-restart recovery.

Determinism: messages are ordered by the sender's grid-rank position
(stable within a rank), which is exactly the ordinal order the
in-process lock-step driver produces; result blocks are assembled in
grid-rank order.  The process backend is therefore cross-validated
**bit-for-bit** against ``run_spmd`` in the test suite.

Workers hold no statement state between statements: a ``load`` command
replaces program, inputs, and mailboxes, so one :class:`SpmdProcessPool`
amortizes process startup across a whole formula sequence (and across
repeated executions).  What a worker does keep is the compiled form of
the last few program texts it was sent, so a repeated statement is not
re-``exec``ed, and -- set once at start -- a one-thread BLAS: rank-local
contractions are GEMMs, the grid owns the cores, and a worker forked
with the parent's ``OPENBLAS_NUM_THREADS=T`` would otherwise run T x T
BLAS threads on T cores.

Transport: command/reply framing always rides the pipe, but ndarray
payloads (rank inputs, superstep messages, result blocks) travel by
default through ``multiprocessing.shared_memory`` segments
(:mod:`repro.runtime.shm`) instead of being pickled into the pipe --
``transport="pipe"`` restores the pure-pickle wire.  The router tracks
segments it has posted but not yet seen acknowledged (the protocol is
strictly request/reply per worker) and unlinks them if the pool breaks,
so a dead worker cannot orphan shared memory.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.parallel.partition import PartitionPlan
from repro.parallel.ptree import PLeaf
from repro.parallel.spmd import (
    LocalComm,
    SpmdRun,
    SpmdSequenceRun,
    assemble_result,
    generate_spmd_source,
    load_rank_program,
)
from repro.robustness.errors import CommFailure, InjectedFault
from repro.robustness.faults import ChaosState, FaultSchedule
from repro.runtime.shm import (
    DEFAULT_MIN_BYTES,
    SHM_AVAILABLE,
    pack_message,
    segment_of,
    unlink_segment,
    unpack_message,
)

Rank = Tuple[int, ...]

#: True inside an SPMD worker process (set by ``_worker_main``).  Two
#: things are pinned to one thread there, because the process grid owns
#: the cores: compiled native nests (``KernelRunner`` reads this flag
#: lazily) and the BLAS behind rank-local GEMMs (:func:`_pin_blas_threads`,
#: called once at worker start)
IS_SPMD_WORKER = False

#: router -> worker: ("load", source, fname, ranks, arrays) |
#: ("go", inbox) | ("restart",) | ("stop",)
#: worker -> router: ("step", outbox, n_done, blocks, note) |
#: ("restarted",) | ("error", text)
#: ``load`` installs the program and the tensors it reads and runs the
#: first superstep; ``go`` delivers an inbox and runs the next one; both
#: are answered by ``step``.  ``blocks`` is ``{rank: (box, blk)}`` in the
#: reply that retires the worker's last rank, else ``None``; ``note`` is
#: set in a worker's first reply when its BLAS could not be pinned.
#: Each message is wrapped by :func:`repro.runtime.shm.pack_message`
#: before hitting the pipe (``("raw", msg)`` under the pipe transport).

#: compiled rank programs a worker keeps, keyed by their source text
_PROGRAMS_KEPT = 32

#: thread-setter entry points of the BLAS builds numpy ships against
#: (all take one ``int``); OpenBLAS renames per wheel vendor and ILP64
_BLAS_THREAD_SETTERS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
    "MKL_Set_Num_Threads",
)


def _pin_blas_threads() -> Optional[str]:
    """Pin the BLAS this process has already loaded to one thread.

    Best effort and dependency-free: the shared objects numpy mapped are
    read from ``/proc/self/maps`` and asked for a known thread-setter
    symbol.  Returns ``None`` once a setter was called, else the reason
    none could be (the caller reports it; nothing fails).

    Known cost, OpenBLAS: in a forked child the setter first re-creates
    the thread pool ``fork`` tore down, and the new thread yield-spins
    for its idle timeout (~0.1 s of CPU, once) before sleeping for good.
    Unpinned, the same thread is created at the first GEMM and spins
    after every one.
    """
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted(
                {
                    line.split()[-1]
                    for line in maps
                    if "blas" in line.lower() or "mkl_rt" in line
                }
            )
    except OSError:
        return "no /proc/self/maps to find the loaded BLAS in"
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SETTERS:
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                return None
    return (
        "no known thread-setter symbol in "
        + (", ".join(p.rsplit("/", 1)[-1] for p in paths) or "any loaded library")
    )


class _RankComm:
    """Worker-side communicator for one rank.

    Same-rank handoffs stay local (free, uncounted -- exactly like
    ``LocalComm``); cross-rank sends are buffered into an outbox the
    worker ships to the router at the superstep barrier.  Inbound
    messages arrive via :meth:`push` with the next superstep's ``go``.
    """

    def __init__(self, rank: Rank) -> None:
        self.rank = rank
        self._mail: Dict[str, List] = {}
        self._outbox: List[Tuple[Rank, Rank, str, object]] = []

    def send(self, source: Rank, dest: Rank, tag: str, payload) -> None:
        if source == dest:
            self._mail.setdefault(tag, []).append(payload)
        else:
            self._outbox.append((source, dest, tag, payload))

    def recv_all(self, dest: Rank, tag: str) -> List:
        return self._mail.pop(tag, [])

    def push(self, tag: str, payload) -> None:
        self._mail.setdefault(tag, []).append(payload)

    def drain(self) -> List[Tuple[Rank, Rank, str, object]]:
        out = self._outbox
        self._outbox = []
        return out


def _fresh_programs(program, ranks, arrays):
    """(comms, states, gens, live) for a (re)start from the inputs."""
    comms = {r: _RankComm(r) for r in ranks}
    states = {r: {} for r in ranks}
    gens = {r: program(r, comms[r], arrays, states[r]) for r in ranks}
    return comms, states, gens, set(ranks)


def _worker_main(conn, shm_min_bytes: Optional[int] = None) -> None:
    """Entry point of one worker process (see module docstring).

    ``shm_min_bytes`` selects the reply transport: ``None`` pickles
    everything into the pipe; an int side-loads arrays of at least that
    many bytes into shared-memory segments.
    """
    global IS_SPMD_WORKER
    IS_SPMD_WORKER = True
    # said once, in the first reply: why BLAS still runs multi-threaded
    note = _pin_blas_threads()
    programs: Dict[str, Callable] = {}
    program = None
    arrays = None
    ranks: List[Rank] = []
    comms: Dict[Rank, _RankComm] = {}
    states: Dict[Rank, Dict] = {}
    gens: Dict[Rank, object] = {}
    live: set = set()
    muted = False

    def reply(msg) -> None:
        if not muted:  # chaos "mute": execute, but swallow the reply
            conn.send(pack_message(msg, shm_min_bytes))

    def superstep(inbox) -> None:
        """Deliver ``inbox``, advance every live rank to its next
        communication boundary, and answer with a ``step``."""
        nonlocal note
        for dest, tag, payload in inbox:
            comms[dest].push(tag, payload)
        outbox: List = []
        n_done = 0
        for rank in ranks:
            if rank not in live:
                continue
            try:
                next(gens[rank])
            except StopIteration:
                live.discard(rank)
                n_done += 1
            outbox.extend(comms[rank].drain())
        blocks = None
        if n_done and not live:
            blocks = {
                r: states[r].get("__result__", (None, None)) for r in ranks
            }
        said, note = note, None
        reply(("step", outbox, n_done, blocks, said))

    try:
        while True:
            try:
                msg = unpack_message(conn.recv())
            except EOFError:
                break
            muted = False
            kind = msg[0]
            if kind == "mute":
                # chaos drop_reply: process the wrapped command normally
                # but never answer -- the router's watchdog must notice
                muted = True
                msg = msg[1]
                kind = msg[0]
            if kind == "hang":
                # chaos hang_worker: alive but unresponsive, forever --
                # distinguishable from a dead worker only by a watchdog
                while True:  # pragma: no cover - terminated externally
                    time.sleep(3600)
            try:
                if kind == "load":
                    _, source, fname, ranks, arrays = msg
                    program = programs.get(source)
                    if program is None:
                        if len(programs) >= _PROGRAMS_KEPT:
                            programs.clear()
                        program = load_rank_program(source, fname)
                        programs[source] = program
                    comms, states, gens, live = _fresh_programs(
                        program, ranks, arrays
                    )
                    superstep(())
                elif kind == "go":
                    superstep(msg[1])
                elif kind == "restart":
                    comms, states, gens, live = _fresh_programs(
                        program, ranks, arrays
                    )
                    reply(("restarted",))
                elif kind == "stop":
                    break
                else:
                    reply(("error", f"unknown command {kind!r}"))
            except Exception:
                reply(("error", traceback.format_exc()))
    finally:
        conn.close()


class SpmdProcessPool:
    """A persistent pool of SPMD worker processes.

    Workers are started lazily (at most ``procs``) and reused across
    statements and runs; ``close`` (or use as a context manager) shuts
    them down.  Uses the ``fork`` start method where available (cheap,
    inherits the loaded package) and falls back to ``spawn``.

    ``transport`` selects the ndarray wire: ``"shm"`` (default) ships
    arrays of at least ``shm_min_bytes`` through shared-memory segments
    (:mod:`repro.runtime.shm`); ``"pipe"`` pickles everything into the
    pipe.  ``"shm"`` silently degrades to ``"pipe"`` on platforms
    without POSIX shared memory.  Either way the message *contents* are
    identical, so results and traffic accounting do not depend on the
    transport.
    """

    def __init__(
        self,
        procs: int,
        context=None,
        transport: str = "shm",
        shm_min_bytes: int = DEFAULT_MIN_BYTES,
        recv_timeout_s: Optional[float] = None,
        chaos: Optional[ChaosState] = None,
    ) -> None:
        if procs < 1:
            raise ValueError(f"need at least one worker process, got {procs}")
        if transport not in ("shm", "pipe"):
            raise ValueError(
                f"transport must be 'shm' or 'pipe', got {transport!r}"
            )
        if transport == "shm" and not SHM_AVAILABLE:  # pragma: no cover
            transport = "pipe"
        self.procs = procs
        self.transport = transport
        self.shm_min_bytes = shm_min_bytes
        #: recv watchdog: how long :func:`_recv` waits for a worker
        #: reply before declaring the worker hung, terminating it, and
        #: raising CommFailure.  ``None`` (default) blocks forever --
        #: the pre-watchdog behaviour.  Mutable: a supervisor adopting
        #: a warm pool installs its own timeout.
        self.recv_timeout_s = recv_timeout_s
        #: process-level chaos injection (:class:`~repro.robustness.
        #: faults.ChaosState`); consulted on every posted ``go``.
        #: Mutable for the same adopt-a-warm-pool reason.
        self.chaos = chaos
        if context is None:
            methods = mp.get_all_start_methods()
            context = mp.get_context(
                "fork" if "fork" in methods else methods[0]
            )
        self._ctx = context
        self._workers: List[Tuple[object, object]] = []  # (Process, Conn)
        self._broken = False
        #: segments posted to a worker but not yet acknowledged by a
        #: reply; unlinked on breakage so dead workers cannot leak shm
        self._pending: Dict[int, List[str]] = {}

    def workers(self, n: int) -> List[Tuple[object, object]]:
        """At least ``n`` running workers (capped at ``procs``)."""
        if self._broken:
            raise CommFailure(
                "worker pool is broken (a worker died mid-protocol); "
                "create a fresh SpmdProcessPool",
                stage="spmd-process",
            )
        n = min(n, self.procs)
        min_bytes = self.shm_min_bytes if self.transport == "shm" else None
        while len(self._workers) < n:
            parent_conn, child_conn = self._ctx.Pipe()
            proc = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, min_bytes),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._workers.append((proc, parent_conn))
        return self._workers[:n]

    def post(self, conn, msg, proc=None) -> None:
        """Send a command to a worker over the configured transport.

        When a :class:`~repro.robustness.faults.ChaosState` is attached,
        every ``go`` advances its ordinal and may fire process-level
        chaos against this worker: ``kill_worker`` SIGKILLs the process
        before sending (the send or the next recv observes the broken
        pipe), ``hang_worker`` replaces the command with ``("hang",)``
        (the worker sleeps forever; only the recv watchdog notices), and
        ``drop_reply`` wraps the command in ``("mute", ...)`` (the
        worker executes it but never answers).
        """
        if self.chaos is not None and msg and msg[0] == "go":
            action = self.chaos.next_action()
            if action == "kill_worker" and proc is not None:
                proc.kill()
                proc.join(timeout=5)
            elif action == "hang_worker":
                msg = ("hang",)
            elif action == "drop_reply":
                msg = ("mute", msg)
        min_bytes = self.shm_min_bytes if self.transport == "shm" else None
        packed = pack_message(msg, min_bytes)
        seg = segment_of(packed)
        if seg is not None:
            self._pending.setdefault(id(conn), []).append(seg)
        try:
            conn.send(packed)
        except (BrokenPipeError, OSError):
            # the worker died before this command: same breakage as a
            # mid-protocol EOF, surfaced with the same structured error
            self.mark_broken()
            raise CommFailure(
                "SPMD worker process died (pipe closed on send)",
                stage="spmd-process",
            ) from None

    def acknowledge(self, conn) -> None:
        """A reply arrived: every segment posted to ``conn`` is consumed."""
        self._pending.pop(id(conn), None)

    def _unlink_pending(self) -> None:
        for segs in self._pending.values():
            for seg in segs:
                unlink_segment(seg)
        self._pending = {}

    @property
    def broken(self) -> bool:
        """True once a worker died mid-protocol; the pool must not be
        reused (a warm-pool registry evicts it instead)."""
        return self._broken

    def healthy(self) -> bool:
        """Whether the pool is safe to (re)use: not marked broken and
        every started worker process is still alive.  Catches workers
        killed *between* requests, which :meth:`mark_broken` (driven by
        mid-protocol EOFs) cannot see."""
        return not self._broken and all(
            proc.is_alive() for proc, _ in self._workers
        )

    def mark_broken(self) -> None:
        self._broken = True
        self._unlink_pending()

    def close(self) -> None:
        self._unlink_pending()
        for proc, conn in self._workers:
            try:
                conn.send(("raw", ("stop",)))
            except (OSError, ValueError):
                pass
        for proc, conn in self._workers:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - needs a D-state proc
                # a worker that shrugs off SIGTERM (hung in
                # uninterruptible I/O, masked signals) must not become a
                # zombie holding shm segments open: escalate to SIGKILL
                proc.kill()
                proc.join(timeout=5)
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        self._workers = []

    def __enter__(self) -> "SpmdProcessPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _recv(pool: SpmdProcessPool, conn, proc=None):
    """Receive one worker reply, surfacing worker-side failures.

    With ``pool.recv_timeout_s`` set, this is the recv **watchdog**: a
    worker that produces no reply within the timeout -- alive but hung,
    indistinguishable from a slow superstep by any other means -- is
    terminated, the pool is marked broken, and a structured
    :class:`CommFailure` (``stage="spmd-process"``) surfaces instead of
    blocking the caller forever.
    """
    timeout = pool.recv_timeout_s
    if timeout is not None:
        try:
            ready = conn.poll(timeout)
        except (EOFError, OSError):  # pragma: no cover - defensive
            ready = True  # fall through to recv, which raises cleanly
        if not ready:
            pool.mark_broken()
            if proc is not None and proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
                if proc.is_alive():  # pragma: no cover - defensive
                    proc.kill()
                    proc.join(timeout=5)
            raise CommFailure(
                f"SPMD worker unresponsive for {timeout:g}s (recv "
                "watchdog); worker terminated",
                stage="spmd-process",
                timeout_s=timeout,
            )
    try:
        reply = unpack_message(conn.recv())
    except (EOFError, OSError):
        pool.mark_broken()
        raise CommFailure(
            "SPMD worker process exited unexpectedly", stage="spmd-process"
        ) from None
    pool.acknowledge(conn)
    if reply[0] == "error":
        raise CommFailure(
            f"SPMD worker failed:\n{reply[1]}", stage="spmd-process"
        )
    return reply


def _recv_all(pool: SpmdProcessPool, workers) -> List:
    """One reply from every worker.  A worker-side failure is raised
    only after the others have answered too: a reply left unread in its
    pipe would be taken for the answer to the pool's next command."""
    replies: List = []
    failure: Optional[CommFailure] = None
    for proc, conn in workers:
        try:
            replies.append(_recv(pool, conn, proc))
        except CommFailure as exc:
            if pool.broken:  # dead or hung worker: the pool is done
                raise
            failure = failure or exc
    if failure is not None:
        raise failure
    return replies


def run_spmd_process(
    plan: PartitionPlan,
    inputs,
    name: str = "rank_program",
    faults: Optional[FaultSchedule] = None,
    max_retries: int = 3,
    max_restarts: int = 3,
    retry_backoff: float = 0.0,
    sleep: Callable[[float], None] = time.sleep,
    procs: Optional[int] = None,
    pool: Optional[SpmdProcessPool] = None,
    transport: str = "shm",
    semiring: str = "plus_times",
    source: Optional[str] = None,
) -> SpmdRun:
    """Execute a partition plan's rank programs across worker processes.

    Drop-in replacement for :func:`repro.parallel.spmd.run_spmd` with
    the same fault-injection, retry, and restart semantics; returns the
    same :class:`~repro.parallel.spmd.SpmdRun` (the ``comm`` carries the
    router's traffic counters, which equal the in-process driver's).

    ``procs`` bounds the worker count (default: one per rank); ``pool``
    reuses an existing :class:`SpmdProcessPool` so callers executing a
    sequence pay process startup once.  ``transport`` configures the
    ndarray wire of a pool created here (a passed-in ``pool`` keeps its
    own transport).
    """
    # workers exec the shipped source text, so the semiring-aware
    # emission here is the only change the process backend needs
    if source is None:
        source = generate_spmd_source(plan, name, semiring=semiring)
    grid = plan.grid
    ranks = list(grid.ranks())
    nworkers = max(1, min(procs or len(ranks), len(ranks)))
    owned = pool is None
    if pool is None:
        pool = SpmdProcessPool(nworkers, transport=transport)
    try:
        return _drive(
            pool, nworkers, plan, source, name, ranks, inputs,
            faults, max_retries, max_restarts, retry_backoff, sleep,
            semiring,
        )
    finally:
        if owned:
            pool.close()


def _drive(
    pool: SpmdProcessPool,
    nworkers: int,
    plan: PartitionPlan,
    source: str,
    name: str,
    ranks: List[Rank],
    inputs,
    faults: Optional[FaultSchedule],
    max_retries: int,
    max_restarts: int,
    retry_backoff: float,
    sleep: Callable[[float], None],
    semiring: str = "plus_times",
) -> SpmdRun:
    grid = plan.grid
    workers = pool.workers(nworkers)
    nworkers = len(workers)
    assignment = [ranks[w::nworkers] for w in range(nworkers)]
    worker_of = {r: w for w, rs in enumerate(assignment) for r in rs}
    rank_pos = {r: k for k, r in enumerate(ranks)}

    # ship what the statement reads, not the whole environment
    read = {
        n.ref.tensor.name for n in plan.root.walk() if isinstance(n, PLeaf)
    }
    arrays = {k: v for k, v in inputs.items() if k in read}

    loaded = False
    restarts = 0
    fired_crashes: set = set()
    notes: List[str] = []
    while True:
        comm = LocalComm(
            grid, faults=faults, max_retries=max_retries,
            retry_backoff=retry_backoff, sleep=sleep,
        )
        supersteps = 0
        live = len(ranks)
        inboxes: List[List] = [[] for _ in workers]
        results: Dict[Rank, Tuple] = {}
        try:
            while live:
                # mirror run_spmd: a scheduled crash fires at the start
                # of the superstep, before any rank advances
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
                for w, (proc, conn) in enumerate(workers):
                    if loaded:
                        pool.post(conn, ("go", inboxes[w]), proc)
                    else:  # the statement's first superstep rides along
                        pool.post(
                            conn, ("load", source, name, assignment[w], arrays)
                        )
                loaded = True
                outboxes: List[List] = []
                for reply in _recv_all(pool, workers):
                    _, outbox, n_done, blocks, note = reply
                    outboxes.append(outbox)
                    live -= n_done
                    if blocks:
                        results.update(blocks)
                    if note and note not in notes:
                        notes.append(note)
                supersteps += 1
                # account and route: global ordinal order is by sender's
                # grid-rank position (stable within one rank's sends),
                # exactly the in-process lock-step driver's order
                messages = [m for outbox in outboxes for m in outbox]
                messages.sort(key=lambda m: rank_pos[m[0]])
                for source_rank, dest, tag, payload in messages:
                    comm.send(source_rank, dest, tag, payload)
                inboxes = [[] for _ in workers]
                for (dest, tag), payloads in comm.drain().items():
                    box = inboxes[worker_of[dest]]
                    for payload in payloads:
                        box.append((dest, tag, payload))
            break
        except InjectedFault:
            restarts += 1
            if restarts > max_restarts:
                raise CommFailure(
                    f"execution did not complete within {max_restarts} "
                    "restarts",
                    stage="spmd",
                ) from None
            if loaded:  # a crash at superstep 0 can precede the load
                for _, conn in workers:
                    pool.post(conn, ("restart",))
                _recv_all(pool, workers)  # "restarted"

    result = assemble_result(
        plan, (results.get(r, (None, None)) for r in ranks), semiring
    )
    return SpmdRun(result, comm, source, supersteps, restarts, notes)


def run_spmd_sequence_process(
    statements,
    seq_plan,
    inputs,
    faults: Optional[FaultSchedule] = None,
    max_retries: int = 3,
    max_restarts: int = 3,
    procs: Optional[int] = None,
    pool: Optional[SpmdProcessPool] = None,
    transport: str = "shm",
    semiring: str = "plus_times",
    sources: Optional[Mapping[str, str]] = None,
) -> SpmdSequenceRun:
    """Process-backend twin of :func:`repro.parallel.spmd.
    run_spmd_sequence`: every statement's rank programs run on one
    shared worker pool."""
    from repro.parallel.spmd import run_spmd_sequence

    return run_spmd_sequence(
        statements, seq_plan, inputs, faults=faults,
        max_retries=max_retries, max_restarts=max_restarts,
        backend="process", procs=procs, pool=pool, transport=transport,
        semiring=semiring, sources=sources,
    )
