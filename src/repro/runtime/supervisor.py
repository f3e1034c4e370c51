"""Supervised worker pools: respawn, watchdogs, bounded retry.

:class:`~repro.runtime.process.SpmdProcessPool` is deliberately dumb
about failure: a dead or hung worker marks the pool *broken* and every
subsequent use raises :class:`~repro.robustness.errors.CommFailure`.
That is the right contract for a library primitive -- fail fast, never
guess -- but a serving runtime needs the next request to succeed, not
an apology.  :class:`PoolSupervisor` owns that recovery:

* **dead-worker detection** -- before every session the supervisor
  health-checks its pool (:meth:`SpmdProcessPool.healthy`: not marked
  broken *and* every worker process alive), catching workers killed
  between sessions that no mid-protocol EOF could reveal;
* **automatic respawn** -- an unhealthy pool is closed (terminate ->
  kill escalation, every shared-memory arena unlinked) and replaced with
  a fresh one with the same shape, watchdog, and chaos state; an
  ``on_respawn`` callback lets registries (``repro.server.pools``)
  re-key their bookkeeping to the replacement;
* **bounded session-level retry** -- the transaction is the *session*
  (:mod:`repro.parallel.session`): workers keep the blocks statements
  left resident, a dead or hung worker takes its blocks with it, and
  the router holds only the run's inputs.  So the retried transaction
  is the whole resident chain replayed from those inputs on the
  repaired pool -- inputs are never mutated, so the replay is
  bit-identical to an undisturbed run.
  Only *process-level* failures (``CommFailure`` with
  ``stage="spmd-process"``: worker death, watchdog timeout, broken
  pipe) are retried; logical failures (injected rank crashes beyond
  the restart limit, ``stage="spmd"``) are deterministic and propagate
  immediately.

Every respawn and retry is recorded in :attr:`PoolSupervisor.notes`,
which :meth:`repro.pipeline.SynthesisResult.run_parallel` merges into
the notes of the run it returns -- recovery is observable, never
silent.

The ordinal counter of an attached
:class:`~repro.robustness.faults.ChaosState` lives in the state, not
the pool, so a chaos schedule keeps advancing across respawns and each
scheduled event fires at most once -- which is what makes supervised
chaos runs terminate: the schedule drains, then a clean retry succeeds.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, TypeVar

from repro.robustness.errors import CommFailure, DeadlineExceeded
from repro.robustness.faults import ChaosState
from repro.runtime.process import SpmdProcessPool

T = TypeVar("T")

#: default recv watchdog installed by the serving layer (seconds); long
#: enough for any tier-1 superstep, short enough that a hung worker
#: cannot pin a request slot for more than a few seconds
DEFAULT_WATCHDOG_S = 10.0


class PoolSupervisor:
    """Supervises one :class:`SpmdProcessPool` (see module docstring).

    Parameters
    ----------
    procs, transport:
        Shape of pools this supervisor (re)spawns.  Both default from
        ``pool`` when one is adopted.
    pool:
        An existing pool to adopt (e.g. a warm pool leased from the
        server registry).  The supervisor installs its own
        ``recv_timeout_s`` and ``chaos`` on it; the pool remains
        caller-owned in the sense that :meth:`detach` hands the current
        (possibly respawned) pool back without closing it.
    recv_timeout_s:
        Recv watchdog for supervised pools; ``None`` disables it.
    chaos:
        A :class:`ChaosState` attached to every supervised pool.
    max_statement_retries:
        How many times :meth:`run_statement` re-runs its transaction
        after a process-level failure before giving up (0 = fail fast).
    time_left:
        Optional callable returning remaining seconds of the caller's
        deadline; when it is non-positive at retry time the supervisor
        raises :class:`DeadlineExceeded` instead of retrying.
    on_respawn:
        ``on_respawn(old_pool, new_pool)`` called after every respawn
        (``old_pool`` may be ``None`` on first spawn); registries use
        it to re-key leases from the dead pool to its replacement.
    """

    def __init__(
        self,
        procs: Optional[int] = None,
        transport: str = "shm",
        *,
        pool: Optional[SpmdProcessPool] = None,
        recv_timeout_s: Optional[float] = DEFAULT_WATCHDOG_S,
        chaos: Optional[ChaosState] = None,
        max_statement_retries: int = 2,
        time_left: Optional[Callable[[], float]] = None,
        on_respawn: Optional[
            Callable[[Optional[SpmdProcessPool], SpmdProcessPool], None]
        ] = None,
    ) -> None:
        if pool is None and procs is None:
            raise ValueError("need procs or an existing pool to adopt")
        if max_statement_retries < 0:
            raise ValueError(
                f"max_statement_retries must be >= 0, "
                f"got {max_statement_retries}"
            )
        self.procs = pool.procs if pool is not None else procs
        self.transport = pool.transport if pool is not None else transport
        self.recv_timeout_s = recv_timeout_s
        self.chaos = chaos
        self.max_statement_retries = max_statement_retries
        self.time_left = time_left
        self.on_respawn = on_respawn
        #: pools spawned to replace dead/broken ones (adoption excluded)
        self.respawns = 0
        #: transactions re-run after a process-level failure
        self.retries = 0
        #: human-readable recovery log, merged into the run's notes
        self.notes: List[str] = []
        self._pool = pool
        if pool is not None:
            pool.recv_timeout_s = recv_timeout_s
            pool.chaos = chaos

    @property
    def pool(self) -> Optional[SpmdProcessPool]:
        """The currently supervised pool (``None`` before first use)."""
        return self._pool

    def ensure_pool(self) -> SpmdProcessPool:
        """A healthy pool: the current one, or a fresh respawn."""
        pool = self._pool
        if pool is not None and pool.healthy():
            return pool
        if pool is not None:
            self.respawns += 1
            self.notes.append(
                f"supervisor: pool unhealthy, respawned "
                f"(respawn #{self.respawns})"
            )
            try:
                pool.close()
            except Exception:  # pragma: no cover - defensive
                pass
        fresh = SpmdProcessPool(
            self.procs,
            transport=self.transport,
            recv_timeout_s=self.recv_timeout_s,
            chaos=self.chaos,
        )
        self._pool = fresh
        if self.on_respawn is not None:
            self.on_respawn(pool, fresh)
        return fresh

    def run_statement(
        self, run: Callable[[SpmdProcessPool], T]
    ) -> T:
        """Run ``run(pool)`` with respawn-and-retry recovery.

        ``run`` must be a transaction: it reads its inputs, never
        mutates them, leaves nothing behind on the pool that a rerun
        depends on, and returns the result -- the contract of
        :func:`repro.parallel.session.run_session`, whose first ``load``
        drops whatever the workers held.  On a process-level
        :class:`CommFailure` the pool is respawned and ``run``
        re-invoked from the start, up to ``max_statement_retries``
        times; the rerun is bit-identical to an undisturbed execution.
        """
        attempt = 0
        while True:
            pool = self.ensure_pool()
            try:
                return run(pool)
            except CommFailure as exc:
                if exc.stage != "spmd-process":
                    raise  # logical/deterministic failure: no retry
                attempt += 1
                if attempt > self.max_statement_retries:
                    self.notes.append(
                        f"supervisor: giving up after {attempt} "
                        f"process-level failures (retry budget "
                        f"{self.max_statement_retries})"
                    )
                    raise
                if self.time_left is not None and self.time_left() <= 0:
                    raise DeadlineExceeded(
                        "deadline expired before retry "
                        f"(attempt {attempt})",
                        stage="supervisor",
                    ) from exc
                self.retries += 1
                self.notes.append(
                    f"supervisor: retry {attempt}/"
                    f"{self.max_statement_retries} after {exc.message!r}: "
                    "resident blocks lost with the worker, session "
                    "replayed from the router-held inputs"
                )

    def detach(self) -> Optional[SpmdProcessPool]:
        """Hand the current pool back (e.g. to a warm-pool registry)
        without closing it; the supervisor forgets it.  Request-scoped
        chaos is stripped so a re-parked warm pool never injects a past
        request's schedule into a future one."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.chaos = None
        return pool

    def close(self) -> None:
        """Close the supervised pool, if any."""
        pool = self.detach()
        if pool is not None:
            pool.close()

    def __enter__(self) -> "PoolSupervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def deadline_clock(
    deadline_ms: Optional[int],
    now: Callable[[], float] = time.monotonic,
) -> Optional[Callable[[], float]]:
    """A ``time_left()`` callable counting down from ``deadline_ms``
    starting now, or ``None`` when no deadline is set.  Shared by the
    serving layer and the CLI so both thread deadlines the same way."""
    if deadline_ms is None:
        return None
    expiry = now() + deadline_ms / 1000.0
    return lambda: expiry - now()
