"""Endpoint logic of the compilation service.

The HTTP layer (:mod:`repro.server.app`) owns sockets and error
mapping; each handler here turns one validated JSON payload into one
JSON response, wired through the server's shared machinery:

* synthesis goes through the **coalescer** (one synthesis per in-flight
  plan-cache key) into the shared **plan cache**;
* every request runs under its tenant's **admission budget** -- an
  over-allowance tenant degrades per-stage and the response says so in
  ``degraded`` / ``admission``, with status 200;
* process-backend executions borrow warm worker pools from the
  **pool registry** and always return them (broken pools are evicted
  there, never reused).

Blocking pipeline work (search stages, executions) runs in the server's
thread executor so the event loop keeps accepting connections.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from collections import OrderedDict
from dataclasses import replace
from typing import Dict, Optional, Tuple

import numpy as np

from repro.expr.ast import Program
from repro.expr.parser import parse_program
from repro.parallel.session import worker_count
from repro.pipeline import RunOutput
from repro.robustness.budget import Budget
from repro.robustness.errors import DeadlineExceeded, SpecError
from repro.robustness.faults import ChaosState
from repro.runtime.plan_cache import plan_key
from repro.runtime.supervisor import PoolSupervisor, deadline_clock
from repro.server import wire

__all__ = ["Handlers"]


def _round_ms(seconds: float) -> float:
    return round(seconds * 1000.0, 3)


def _budget_fields(budget: Optional[Budget]) -> Dict[str, object]:
    if budget is None:
        return {"deadline_ms": None, "max_nodes": None}
    return {"deadline_ms": budget.deadline_ms, "max_nodes": budget.max_nodes}


class Handlers:
    """One instance per server; methods are the routed endpoints."""

    def __init__(self, app) -> None:
        self.app = app
        #: request text -> parsed program, least recently used first;
        #: bounded like the plan cache's memory tier.  Programs are
        #: frozen, so one parse serves every repeat of the same text.
        self._programs: "OrderedDict[str, Program]" = OrderedDict()
        self._programs_max = app.config.plan_cache_size

    # -- shared synthesis path ---------------------------------------------

    def _parse(self, text: str) -> Program:
        """``parse_program(text)``, remembered.  Called on the event
        loop only, so the memo needs no lock; a text that fails to parse
        is not remembered and fails again on every repeat."""
        program = self._programs.get(text)
        if program is not None:
            self._programs.move_to_end(text)
            return program
        program = parse_program(text)
        self._programs[text] = program
        if len(self._programs) > self._programs_max:
            self._programs.popitem(last=False)
        return program

    async def _synthesize(
        self,
        program_text: str,
        tenant: str,
        config,
        deadline_ms: Optional[int] = None,
    ):
        """Parse, admit, coalesce, synthesize; returns the pieces every
        endpoint needs."""
        app = self.app
        program = self._parse(program_text)
        account = app.tenants.account(tenant)
        admission_exhausted = account.exhausted
        budget = account.admission_budget()
        if deadline_ms is not None:
            # a request deadline narrows the search budget the same way
            # tenant admission does; the stages degrade instead of
            # overrunning.  It necessarily enters the plan-cache key
            # (same deadline -> same key) -- the binary tenant-budget
            # quantization precedent, documented in architecture.md
            budget = budget.narrowed(deadline_ms=deadline_ms)
        if (
            budget.deadline_ms is None
            and budget.max_nodes is None
            and not budget.strict
        ):
            # an unbounded budget fingerprints like the CLI's default
            # (None), so server and CLI share plan-cache entries
            budget = None
        config = replace(config, budget=budget)
        key = plan_key(program, config)
        started = time.perf_counter()

        def thunk():
            return app.synthesize_fn(program, config, cache=app.plan_cache)

        result, coalesced = await app.coalescer.run(
            key, thunk, app.executor
        )
        synthesis_s = time.perf_counter() - started
        if coalesced:
            app.plan_cache.note_coalesced()
        tier = "unknown"
        if result.reports and result.reports[-1].name == "Plan cache":
            tier = str(result.reports[-1].details.get("hit", "unknown"))
        if tier.startswith("miss"):
            tier = "miss"
        # charge search nodes only to the request that ran the search;
        # warm hits and coalesced followers spent (almost) nothing
        ran_search = tier == "miss" and not coalesced
        nodes = (
            result.budget_tracker.nodes
            if ran_search and result.budget_tracker is not None
            else 0
        )
        degraded = list(result.degraded_stages)
        account.charge(nodes, degraded=bool(degraded))
        admission = {
            "tenant": account.policy.name,
            "exhausted": admission_exhausted,
            "budget": _budget_fields(budget),
            "nodes_charged": nodes,
        }
        return program, config, result, {
            "key": key,
            "cached": tier,
            "coalesced": coalesced,
            "degraded": degraded,
            "admission": admission,
            "synthesis_s": synthesis_s,
        }

    # -- endpoints ---------------------------------------------------------

    async def synthesize(self, payload) -> Tuple[int, Dict[str, object]]:
        """``POST /v1/synthesize``: compile (or fetch) a plan."""
        req = wire.parse_synthesize_request(payload)
        program, _, result, meta = await self._synthesize(
            req.program, req.tenant, req.config,
            deadline_ms=req.deadline_ms,
        )
        body = {
            "key": meta["key"],
            "tenant": req.tenant,
            "cached": meta["cached"],
            "coalesced": meta["coalesced"],
            "degraded": meta["degraded"],
            "admission": meta["admission"],
            "statements": len(result.statements),
            "partition_plans": sorted(result.partition_plans),
            "source_lines": result.source.count("\n"),
            "source_sha256": hashlib.sha256(
                result.source.encode("utf-8")
            ).hexdigest(),
            "stage_reports": [r.name for r in result.reports],
            "timings_ms": {"synthesis": _round_ms(meta["synthesis_s"])},
        }
        return 200, body

    async def execute(self, payload) -> Tuple[int, Dict[str, object]]:
        """``POST /v1/execute``: compile (cached/coalesced) + run."""
        app = self.app
        req = wire.parse_execute_request(payload)
        deadline_ms = (
            req.deadline_ms
            if req.deadline_ms is not None
            else app.config.deadline_ms
        )
        # the deadline clock starts before synthesis: whatever search
        # spends is gone from execution's share
        time_left = deadline_clock(deadline_ms)
        program, config, result, meta = await self._synthesize(
            req.program, req.tenant, req.config, deadline_ms=deadline_ms
        )

        def run():
            t0 = time.perf_counter()
            if time_left is not None and time_left() <= 0:
                raise DeadlineExceeded(
                    f"deadline of {deadline_ms}ms expired during "
                    "synthesis, before execution",
                    stage="serving",
                    deadline_ms=deadline_ms,
                )
            inputs = req.inputs
            if inputs is None:
                if any(t.is_function for t in program.tensors()):
                    raise SpecError(
                        "cannot synthesize random inputs for function "
                        "tensors; send explicit 'inputs'"
                    )
                from repro.engine.executor import random_inputs

                inputs = random_inputs(
                    program, config.bindings, seed=req.seed
                )
            # client arrays are checked by the substrate that runs
            # them: a bad one is its ShapeError/SpecError naming the
            # tensor, hence the client's 400
            backend = req.backend
            if backend == "auto" and result.partition_plans:
                backend = "process"
            if backend in ("process", "local") and not result.partition_plans:
                raise SpecError(
                    f"backend {backend!r} needs partition plans; request "
                    "options.grid or options.processors"
                )
            pool_meta = {"leased": False, "warm": False}
            if backend == "process":
                grid_size = next(
                    iter(result.partition_plans.values())
                ).grid.size
                nworkers, _ = worker_count(grid_size, req.procs)
                pool, warm = app.pools.lease(nworkers, req.transport)
                pool_meta = {
                    "leased": True,
                    "warm": warm,
                    "procs": nworkers,
                    "transport": pool.transport,
                }
                # the recv watchdog never waits past what is left of
                # the request's deadline
                watchdog = app.config.watchdog_timeout_s
                if time_left is not None:
                    watchdog = min(watchdog, max(0.1, time_left()))
                supervisor = PoolSupervisor(
                    pool=pool,
                    recv_timeout_s=watchdog,
                    chaos=(
                        ChaosState(req.chaos)
                        if req.chaos is not None
                        else None
                    ),
                    time_left=time_left,
                    on_respawn=app.pools.replace,
                )
                try:
                    out = result.run_parallel(
                        inputs,
                        faults=req.faults,
                        backend="process",
                        procs=req.procs,
                        supervisor=supervisor,
                    )
                finally:
                    pool_meta["respawns"] = supervisor.respawns
                    pool_meta["retries"] = supervisor.retries
                    final = supervisor.detach()
                    if final is not None:
                        app.pools.release(final)
            elif backend == "local":
                out = result.run_parallel(
                    inputs, faults=req.faults, backend="local"
                )
            elif backend == "interp":
                # the counting oracle, asked for by name
                out = RunOutput(result.execute(inputs), backend, [])
            else:
                # "auto" without partition plans: the result picks its
                # own substrate and the response reports the one that ran
                out = result.run(inputs)
            execution_s = time.perf_counter() - t0
            return out, pool_meta, execution_s

        loop = asyncio.get_running_loop()
        out, pool_meta, execution_s = await loop.run_in_executor(
            app.executor, run
        )
        wanted = [stmt.result.name for stmt in program.statements]
        outputs: Dict[str, object] = {}
        for name in wanted:
            if name not in out:
                continue
            array = np.asarray(out[name])
            if req.result_mode == "checksum":
                outputs[name] = {
                    "sum": float(array.sum()),
                    "shape": list(array.shape),
                }
            else:
                outputs[name] = array.tolist()
        body = {
            "key": meta["key"],
            "tenant": req.tenant,
            "cached": meta["cached"],
            "coalesced": meta["coalesced"],
            "degraded": meta["degraded"],
            "admission": meta["admission"],
            "backend": out.substrate,
            "pool": pool_meta,
            "notes": out.notes,
            "result": req.result_mode,
            "outputs": outputs,
            "timings_ms": {
                "synthesis": _round_ms(meta["synthesis_s"]),
                "execution": _round_ms(execution_s),
                "total": _round_ms(meta["synthesis_s"] + execution_s),
            },
        }
        return 200, body

    async def healthz(self, payload=None) -> Tuple[int, Dict[str, object]]:
        """``GET /healthz`` (and ``/stats``): liveness + counters."""
        from repro import __version__
        from repro.kernels import engine_stats

        app = self.app
        return 200, {
            "status": "ok",
            "service": "repro.server",
            "version": __version__,
            "uptime_s": round(time.monotonic() - app.started, 3),
            "requests": dict(app.request_counts),
            "plan_cache": app.plan_cache.stats(),
            "artifact_store": engine_stats(),
            "coalescer": app.coalescer.stats(),
            "pools": app.pools.stats(),
            "tenants": app.tenants.stats(),
            "admission": {
                "max_inflight": app.config.max_inflight,
                "inflight": app.gated_inflight,
                "shed": app.shed,
            },
            "breakers": {
                route: breaker.snapshot()
                for route, breaker in app.breakers.items()
            },
        }

    async def index(self, payload=None) -> Tuple[int, Dict[str, object]]:
        """``GET /``: service discovery."""
        return 200, {
            "service": "repro.server",
            "endpoints": [
                "POST /v1/synthesize",
                "POST /v1/execute",
                "GET /healthz",
                "GET /stats",
            ],
        }
