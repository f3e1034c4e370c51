"""Multi-process SPMD execution of generated rank programs.

The in-process backend (``run_session(..., backend="local")``) keeps
every rank in one interpreter -- correct, countable, but serial.  This
module puts the *same* :class:`~repro.parallel.session.RankWorker`
behind a pipe in a worker OS process, the way the paper's target
machines run one MPI rank per processor:

* each worker process holds one or more ranks (round-robin when the
  grid is larger than the worker count).  Between messages it keeps the
  compiled form of the programs it was sent, keyed by content, and the
  session's **tensor tables** -- the boxes the router shipped and the
  blocks earlier statements left resident -- so a run ships a tensor
  once, a result stays where it was produced, and a repeated program is
  named, not re-sent (:mod:`repro.parallel.session` has the protocol
  and the router; nothing in it knows which backend it drives);
* set once at start: a one-thread BLAS.  Rank-local contractions are
  GEMMs, the grid owns the cores, and a worker forked with the parent's
  ``OPENBLAS_NUM_THREADS=T`` would otherwise run T x T BLAS threads on
  T cores;
* a worker that dies or stops answering marks the pool *broken*; a
  :class:`~repro.runtime.supervisor.PoolSupervisor` replaces it and
  replays the session from the router-held inputs (the dead worker's
  resident blocks went with it).

Determinism: the router orders messages by the sender's grid-rank
position whatever the worker count, which is exactly the order of the
in-process backend; result blocks tile the output.  The process backend
is therefore cross-validated **bit-for-bit** against the in-process one
in the test suite.

Transport: command/reply framing always rides the pipe, but ndarray
payloads (tensor boxes, superstep messages, result blocks) travel by
default through two long-lived shared-memory **arenas** per worker, one
per direction (:mod:`repro.runtime.shm`) -- ``transport="pipe"`` pickles
them into the pipe instead.  The pool creates the arenas with the
worker, replaces one when a message outgrows it, and unlinks them when
the worker goes (``close``, ``mark_broken``), so no ``/dev/shm`` entry
outlives its pool and a steady-state run never talks to the
``resource_tracker``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import traceback
from typing import List, Optional

from repro.parallel.session import RankWorker, plan_session, run_session
from repro.parallel.spmd import SpmdSequenceRun
from repro.robustness.errors import CommFailure
from repro.robustness.faults import ChaosState
from repro.runtime.shm import (
    DEFAULT_MIN_BYTES,
    SHM_AVAILABLE,
    Arena,
    pack_message,
    unpack_message,
)

#: On the pipe a command is ``(down, up, spans, body)`` -- the names of
#: the arenas this worker reads commands from and writes replies to
#: (``None`` under the pipe transport), then the message as
#: :func:`repro.runtime.shm.pack_message` left it -- and a reply is
#: ``(spans, body, need)``, ``need`` being the arena size a reply that
#: had to ride the pipe asked for.  The messages themselves are
#: :mod:`repro.parallel.session`'s, plus ``("stop",)`` and the chaos
#: wrappers ``("mute", command)`` / ``("hang",)``.

#: how often an idle worker checks that its owner still runs, seconds
_OWNER_POLL_S = 1.0

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


def _attached(arena: Optional[Arena], name: Optional[str]) -> Optional[Arena]:
    """The worker's mapping of the arena called ``name``: the one it has,
    or a new attachment when the router replaced the segment."""
    if arena is not None and arena.name == name:
        return arena
    if arena is not None:
        arena.close()
    return Arena(name=name) if name is not None else None


def _owner_alive(owner: int) -> bool:
    """Whether the process that started this worker still runs.  A
    worker must not outlive it: an owner killed outright (``SIGKILL``,
    ``os._exit``) never runs the hook that terminates daemonic children,
    and the pipe's far end stays open in the worker itself and in every
    worker forked after it, so EOF alone never comes."""
    return os.getppid() == owner


def _worker_main(conn, min_bytes: int, owner: int) -> None:
    """Entry point of one worker process: a
    :class:`~repro.parallel.session.RankWorker` answering the pipe
    until it closes, says ``stop``, or process ``owner`` is gone."""
    # the process grid owns the cores, so the BLAS behind rank-local
    # GEMMs runs on one thread; if it cannot be pinned, the first reply
    # says why once
    unpinned = _pin_blas_threads()
    worker = RankWorker(
        note=unpinned
        and f"BLAS threads not pinned to 1 in SPMD workers ({unpinned}): "
        "procs x BLAS threads may oversubscribe the cores"
    )
    down = up = None
    try:
        while True:
            while not conn.poll(_OWNER_POLL_S):
                if not _owner_alive(owner):
                    return
            try:
                down_name, up_name, spans, body = conn.recv()
            except EOFError:
                break
            down = _attached(down, down_name)
            up = _attached(up, up_name)
            msg = unpack_message(spans, body, down)
            muted = msg[0] == "mute"
            if muted:
                # chaos drop_reply: process the wrapped command normally
                # but never answer -- the router's watchdog must notice
                msg = msg[1]
            if msg[0] == "hang":
                # chaos hang_worker: alive but unresponsive until it is
                # terminated (or orphaned) -- distinguishable from a
                # dead worker only by a watchdog
                while _owner_alive(owner):  # pragma: no cover - terminated
                    time.sleep(_OWNER_POLL_S)
                return
            if msg[0] == "stop":
                break
            try:
                reply = worker.handle(msg)
            except Exception:
                reply = ("error", traceback.format_exc())
            if not muted:
                conn.send(pack_message(reply, up, min_bytes))
    finally:
        for arena in (down, up):
            if arena is not None:
                arena.close()
        conn.close()


class _Port:
    """The router's end of one worker: its process, its pipe, and the
    two arenas the pool owns for it (``None`` under the pipe
    transport)."""

    def __init__(self, pool: "SpmdProcessPool", proc, conn) -> None:
        self.pool = pool
        self.proc = proc
        self.conn = conn
        shm = pool.transport == "shm"
        self.down: Optional[Arena] = Arena() if shm else None
        self.up: Optional[Arena] = Arena() if shm else None

    @property
    def broken(self) -> bool:
        return self.pool.broken

    def post(self, msg) -> None:
        """Send a command over the configured transport.

        When a :class:`~repro.robustness.faults.ChaosState` is attached,
        every ``go`` advances its ordinal and may fire process-level
        chaos against this worker: ``kill_worker`` SIGKILLs the process
        before sending (the send or the next recv observes the broken
        pipe), ``hang_worker`` replaces the command with ``("hang",)``
        (the worker sleeps forever; only the recv watchdog notices), and
        ``drop_reply`` wraps the command in ``("mute", ...)`` (the
        worker executes it but never answers).
        """
        pool = self.pool
        if pool.chaos is not None and msg[0] == "go":
            action = pool.chaos.next_action()
            if action == "kill_worker":
                self.proc.kill()
                self.proc.join(timeout=5)
            elif action == "hang_worker":
                msg = ("hang",)
            elif action == "drop_reply":
                msg = ("mute", msg)
        spans, body, need = pack_message(msg, self.down, pool.shm_min_bytes)
        if need:  # the message outgrew the arena: replace it, pack again
            self.down = self.down.grown(need)
            spans, body, _ = pack_message(msg, self.down, pool.shm_min_bytes)
        names = (self.down.name, self.up.name) if self.down else (None, None)
        try:
            self.conn.send((*names, spans, body))
        except (BrokenPipeError, OSError):
            # the worker died before this command: same breakage as a
            # mid-protocol EOF, surfaced with the same structured error
            pool.mark_broken()
            raise CommFailure(
                "SPMD worker process died (pipe closed on send)",
                stage="spmd-process",
            ) from None

    def recv(self):
        """Receive one reply, surfacing worker-side failures.

        With ``pool.recv_timeout_s`` set, this is the recv **watchdog**:
        a worker that produces no reply within the timeout -- alive but
        hung, indistinguishable from a slow superstep by any other means
        -- is terminated, the pool is marked broken, and a structured
        :class:`CommFailure` (``stage="spmd-process"``) surfaces instead
        of blocking the caller forever.
        """
        pool, conn = self.pool, self.conn
        timeout = pool.recv_timeout_s
        if timeout is not None:
            try:
                ready = conn.poll(timeout)
            except (EOFError, OSError):  # pragma: no cover - defensive
                ready = True  # fall through to recv, which raises cleanly
            if not ready:
                pool.mark_broken()
                raise CommFailure(
                    f"SPMD worker unresponsive for {timeout:g}s (recv "
                    "watchdog); worker terminated",
                    stage="spmd-process",
                    timeout_s=timeout,
                )
        try:
            spans, body, need = conn.recv()
        except (EOFError, OSError):
            pool.mark_broken()
            raise CommFailure(
                "SPMD worker process exited unexpectedly", stage="spmd-process"
            ) from None
        reply = unpack_message(spans, body, self.up)
        if need:  # that reply rode the pipe: the next one will fit
            self.up = self.up.grown(need)
        if reply[0] == "error":
            raise CommFailure(
                f"SPMD worker failed:\n{reply[1]}", stage="spmd-process"
            )
        return reply

    def release(self, stop: bool) -> None:
        """Let the worker go -- asked to ``stop`` first, or (a broken
        pool's workers may be mid-anything) terminated outright -- and
        unlink its arenas."""
        proc, conn = self.proc, self.conn
        if stop:
            try:
                conn.send((None, None, None, ("stop",)))
            except (OSError, ValueError):
                pass
            proc.join(timeout=5)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5)
        if proc.is_alive():  # pragma: no cover - needs a D-state proc
            # a worker that shrugs off SIGTERM (hung in uninterruptible
            # I/O, masked signals) must not become a zombie holding its
            # arenas mapped: escalate to SIGKILL
            proc.kill()
            proc.join(timeout=5)
        try:
            conn.close()
        except OSError:  # pragma: no cover - defensive
            pass
        self.unlink()

    def unlink(self) -> None:
        for arena in (self.down, self.up):
            if arena is not None:
                arena.unlink()
        self.down = self.up = None


class SpmdProcessPool:
    """A persistent pool of SPMD worker processes.

    Workers are started lazily (at most ``procs``) and reused across
    statements and runs; ``close`` (or use as a context manager) shuts
    them down.  Uses the ``fork`` start method where available (cheap,
    inherits the loaded package) and falls back to ``spawn``.

    ``transport`` selects the ndarray wire: ``"shm"`` (default) ships
    arrays of at least ``shm_min_bytes`` through each worker's two
    shared-memory arenas (:mod:`repro.runtime.shm`), which this pool
    creates with the worker and unlinks with it; ``"pipe"`` pickles
    everything into the pipe.  ``"shm"`` silently degrades to ``"pipe"``
    on platforms without POSIX shared memory.  Either way the message
    *contents* are identical, so results and traffic accounting do not
    depend on the transport.
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
        #: recv watchdog: how long a port waits for a worker reply
        #: before declaring the worker hung and raising CommFailure.
        #: ``None`` (default) blocks forever -- the pre-watchdog
        #: behaviour.  Mutable: a supervisor adopting a warm pool
        #: installs its own timeout.
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
        self._workers: List[_Port] = []
        self._broken = False

    def workers(self, n: int) -> List[_Port]:
        """Ports of at least ``n`` running workers (capped at ``procs``)."""
        if self._broken:
            raise CommFailure(
                "worker pool is broken (a worker died mid-protocol); "
                "create a fresh SpmdProcessPool",
                stage="spmd-process",
            )
        n = min(n, self.procs)
        while len(self._workers) < n:
            parent_conn, child_conn = self._ctx.Pipe()
            proc = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, self.shm_min_bytes, os.getpid()),
                daemon=True,
            )
            # arenas first: the worker then shares this process's
            # resource tracker instead of starting its own
            port = _Port(self, proc, parent_conn)
            try:
                proc.start()
            except BaseException:
                port.unlink()
                raise
            self._workers.append(port)
            child_conn.close()
        return self._workers[:n]

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
            port.proc.is_alive() for port in self._workers
        )

    def mark_broken(self) -> None:
        """A worker died or hung mid-protocol: nothing the others hold
        can be trusted to line up again, so every worker goes and every
        arena is unlinked now, not when somebody remembers to close."""
        self._broken = True
        self._release(stop=False)

    def close(self) -> None:
        self._release(stop=True)

    def _release(self, stop: bool) -> None:
        workers, self._workers = self._workers, []
        for port in workers:
            port.release(stop)

    def __enter__(self) -> "SpmdProcessPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_spmd_sequence_process(
    statements,
    seq_plan,
    inputs,
    procs: Optional[int] = None,
    pool: Optional[SpmdProcessPool] = None,
    semiring: str = "plus_times",
) -> SpmdSequenceRun:
    """A whole-sequence plan (:func:`repro.parallel.program_plan.
    plan_sequence`) run as one session on worker processes: the
    :func:`~repro.parallel.session.plan_session` +
    :func:`~repro.parallel.session.run_session` pair with
    ``backend="process"``.  Kept as a name only because the end-to-end
    benchmark harness imports it; new callers use those two."""
    session = plan_session(statements, seq_plan.plans, semiring)
    return run_session(
        session, inputs, backend="process", procs=procs, pool=pool
    )
