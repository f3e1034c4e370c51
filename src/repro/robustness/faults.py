"""Deterministic fault-injection schedules for the SPMD runtime.

A :class:`FaultSchedule` describes *which* faults fire and *when*, in
terms of deterministic event ordinals -- the ordinal of a cross-rank
message on the communicator, or a superstep number of the lock-step
driver -- so every injected failure (and its recovery) is exactly
reproducible:

* **message drops**: ``drop_messages`` lists cross-rank message
  ordinals whose first ``drop_attempts`` delivery attempts are dropped
  on the floor.  The communicator re-sends at once and recovers drops
  up to its retry limit (:data:`repro.parallel.spmd.MAX_RETRIES`);
  beyond it, a
  :class:`~repro.robustness.errors.CommFailure` is raised.
* **rank crashes**: ``crash_supersteps`` lists driver supersteps at
  whose start the whole statement execution fails with
  :class:`~repro.robustness.errors.InjectedFault`; the driver restarts
  the statement from its inputs (SPMD statement runs are effectively
  transactions -- inputs are never mutated), each scheduled crash
  firing at most once.

:class:`FaultSchedule` models *logical* faults the BSP drivers already
recover from in-process.  :class:`ChaosSchedule` models **process-level
chaos** against the multi-process backend (:mod:`repro.runtime.
process`) -- the failure modes a real cluster exhibits and a logical
schedule cannot express:

* ``kill_worker``: the worker process is killed (``SIGKILL``) just
  before the scheduled command is posted -- the router observes a
  broken pipe / EOF mid-protocol;
* ``hang_worker``: the worker stays alive but stops responding (its
  main loop sleeps forever) -- only a recv watchdog can tell this
  apart from a slow superstep;
* ``drop_reply``: the worker executes the command but its reply never
  arrives -- the request/reply protocol is silently desynchronized.

Ordinals count ``go`` commands *posted by the pool* (monotonic per
:class:`ChaosState`, surviving pool respawns), so each scheduled chaos
event fires exactly once per state no matter how often a supervisor
restarts the statement.  Recovery is owned by
:class:`repro.runtime.supervisor.PoolSupervisor`: the watchdog turns
hangs into structured :class:`~repro.robustness.errors.CommFailure`\\ s,
and the supervisor re-runs the statement on a fresh pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.robustness.errors import SpecError


@dataclass(frozen=True)
class FaultSchedule:
    """Deterministic schedule of injected faults (see module doc)."""

    #: cross-rank message ordinals (0-based) scheduled to drop
    drop_messages: Tuple[int, ...] = ()
    #: delivery attempts that fail per scheduled drop (1 = first try
    #: drops, the immediate retry succeeds)
    drop_attempts: int = 1
    #: driver supersteps (0-based) at whose start a rank crash fires
    crash_supersteps: Tuple[int, ...] = ()

    def should_drop(self, ordinal: int, attempt: int) -> bool:
        """Whether delivery ``attempt`` (0-based) of cross-rank message
        ``ordinal`` is dropped."""
        return ordinal in self.drop_messages and attempt < self.drop_attempts

    @property
    def any_faults(self) -> bool:
        return bool(self.drop_messages or self.crash_supersteps)


def parse_fault_spec(spec: str) -> FaultSchedule:
    """Parse the CLI's ``--inject-fault`` syntax.

    ``drop:0,3`` drops cross-rank messages 0 and 3 once each;
    ``drop:0x2`` drops message 0 on two consecutive attempts;
    ``crash:2`` crashes the run at superstep 2.  Multiple clauses join
    with ``;``: ``drop:1;crash:0``.
    """
    drops: list = []
    attempts = 1
    crashes: list = []
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        kind, _, arg = clause.partition(":")
        try:
            if kind == "drop":
                if "x" in arg:
                    arg, _, reps = arg.partition("x")
                    attempts = max(attempts, int(reps))
                drops.extend(int(p) for p in arg.split(",") if p)
            elif kind == "crash":
                crashes.extend(int(p) for p in arg.split(",") if p)
            else:
                raise ValueError(f"unknown fault kind {kind!r}")
        except ValueError as exc:
            raise SpecError(
                f"bad fault spec {spec!r}: {exc} "
                "(use e.g. drop:0,3 / drop:0x2 / crash:2)",
                stage="fault-injection",
            ) from None
    return FaultSchedule(
        drop_messages=tuple(drops),
        drop_attempts=attempts,
        crash_supersteps=tuple(crashes),
    )


#: the chaos actions a schedule may fire, in precedence order (an
#: ordinal scheduled for several actions fires the most severe one)
CHAOS_ACTIONS = ("kill_worker", "hang_worker", "drop_reply")


@dataclass(frozen=True)
class ChaosSchedule:
    """Deterministic schedule of process-level chaos (see module doc).

    Each field lists pool ``go``-command ordinals (0-based) at which
    the named action fires.  Ordinals are pool-lifetime-monotonic via
    :class:`ChaosState`, so an action fires at most once even when the
    statement is retried on a respawned pool.
    """

    kill_worker: Tuple[int, ...] = ()
    hang_worker: Tuple[int, ...] = ()
    drop_reply: Tuple[int, ...] = ()

    def action_at(self, ordinal: int) -> Optional[str]:
        """The action scheduled at ``ordinal``, or ``None``."""
        for action in CHAOS_ACTIONS:
            if ordinal in getattr(self, action):
                return action
        return None

    @property
    def any_chaos(self) -> bool:
        return bool(self.kill_worker or self.hang_worker or self.drop_reply)

    def max_ordinal(self) -> int:
        """The largest scheduled ordinal (-1 when empty); a retry loop
        needs at least this many clean supersteps to drain the
        schedule."""
        ordinals = self.kill_worker + self.hang_worker + self.drop_reply
        return max(ordinals) if ordinals else -1


class ChaosState:
    """Mutable firing state of one :class:`ChaosSchedule`.

    The ordinal counter lives *here*, not on the pool: a supervisor
    attaches one state to every pool it (re)spawns, so a kill scheduled
    at ordinal 3 fires once, the retry on the fresh pool continues from
    ordinal 4, and the schedule eventually drains.  ``fired`` logs
    ``(ordinal, action)`` pairs for notes and assertions.
    """

    def __init__(self, schedule: ChaosSchedule) -> None:
        self.schedule = schedule
        self.ordinal = 0
        self.fired: List[Tuple[int, str]] = []

    def next_action(self) -> Optional[str]:
        """Advance one ``go`` ordinal; the action firing now, if any."""
        ordinal = self.ordinal
        self.ordinal += 1
        action = self.schedule.action_at(ordinal)
        if action is not None:
            self.fired.append((ordinal, action))
        return action

    @property
    def exhausted(self) -> bool:
        """True once every scheduled ordinal has passed."""
        return self.ordinal > self.schedule.max_ordinal()


def parse_chaos_spec(spec: str) -> ChaosSchedule:
    """Parse the ``--inject-chaos`` / wire ``chaos`` syntax.

    ``kill_worker@3`` kills a worker at ``go`` ordinal 3;
    ``hang_worker@0,5`` hangs workers at ordinals 0 and 5;
    ``drop_reply@2`` swallows the reply to ordinal 2.  Clauses join
    with ``;``: ``kill_worker@0;drop_reply@4``.
    """
    fields = {action: [] for action in CHAOS_ACTIONS}
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        action, sep, arg = clause.partition("@")
        if action not in fields or not sep:
            raise SpecError(
                f"bad chaos spec {spec!r}: unknown clause {clause!r} "
                f"(use e.g. kill_worker@3 / hang_worker@0,5 / "
                f"drop_reply@2, joined with ';')",
                stage="chaos-injection",
            )
        try:
            ordinals = [int(p) for p in arg.split(",") if p]
        except ValueError as exc:
            raise SpecError(
                f"bad chaos spec {spec!r}: {exc}",
                stage="chaos-injection",
            ) from None
        if not ordinals or any(o < 0 for o in ordinals):
            raise SpecError(
                f"bad chaos spec {spec!r}: {action} needs non-negative "
                f"ordinals",
                stage="chaos-injection",
            )
        fields[action].extend(ordinals)
    return ChaosSchedule(
        kill_worker=tuple(fields["kill_worker"]),
        hang_worker=tuple(fields["hang_worker"]),
        drop_reply=tuple(fields["drop_reply"]),
    )
