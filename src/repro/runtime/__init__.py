"""Production runtime services for the synthesis system.

Two pillars turn the compiler into something that can serve real
traffic (ROADMAP north star):

* **multi-process SPMD execution** (:mod:`repro.runtime.process`): the
  per-rank programs generated by :mod:`repro.parallel.spmd` run in
  worker OS processes instead of being time-sliced through one
  interpreter.  The bulk-synchronous router and the worker are
  :mod:`repro.parallel.session`'s, the same ones the in-process backend
  uses, so traffic counters, fault injection, bounded retry, and
  statement restart are one implementation -- and results are
  bit-for-bit equal.  Its entries are
  :func:`repro.parallel.session.run_session` and
  :func:`repro.parallel.spmd.run_spmd` with ``backend="process"``.
* **plan caching** (:mod:`repro.runtime.plan_cache`): synthesis results
  are memoized under a content-addressed key (canonical program text +
  configuration fingerprint + package version) in an in-memory LRU with
  an optional on-disk store, so repeated ``synthesize()`` calls for the
  same spec skip all five search stages.  Cached results carry their
  compiled :class:`~repro.kernels.plan.KernelPlan`, so warm hits skip
  execution-path planning too.

Supporting both: :mod:`repro.runtime.shm` moves the process backend's
ndarray payloads through per-worker shared-memory arenas instead of
pickle-over-pipe (``transport="pipe"`` restores the old wire), and
:mod:`repro.runtime.supervisor` wraps pools in a
:class:`~repro.runtime.supervisor.PoolSupervisor` -- dead-worker
detection, automatic respawn, and bounded session-level retry -- so
worker loss degrades a request instead of killing the server.

The empirical autotuner's :class:`~repro.autotune.db.TuningDB` follows
the same content-addressed discipline as the plan cache and extends the
key with a *machine signature*, so measured decisions (kernel lowering
mode, thread count, grid shape) persist per machine the way plans
persist per spec; :mod:`repro.autotune` documents the split.
"""

from repro.runtime.plan_cache import PlanCache, plan_key
from repro.runtime.process import SpmdProcessPool, run_spmd_sequence_process
from repro.runtime.shm import (
    SHM_AVAILABLE,
    Arena,
    pack_message,
    unpack_message,
)
from repro.runtime.supervisor import (
    DEFAULT_WATCHDOG_S,
    PoolSupervisor,
    deadline_clock,
)

__all__ = [
    "DEFAULT_WATCHDOG_S",
    "PlanCache",
    "plan_key",
    "PoolSupervisor",
    "SpmdProcessPool",
    "deadline_clock",
    "run_spmd_sequence_process",
    "SHM_AVAILABLE",
    "Arena",
    "pack_message",
    "unpack_message",
]
