"""One pass of one workload, in a fresh process.

``run.py`` starts this file once per pass; it prints one JSON object
(the pass's raw samples, counts and, for a traced pass, spans and
per-layer values) to the file named by ``--out``.  All timing is
``perf_counter_ns`` here, around calls to public functions of ``repro``;
no measurement code is imported from ``src/``.

A pass is a sequence of *rounds*.  Every round samples every metric, so
all metrics see the same machine phases:

1. build the substrate on fresh directories (plan cache, artifact
   store, worker pool or server);
2. one cold compile of the spec text;
3. one execution, verified against the reference;
4. ``warm`` warm-tier compiles (fresh cache and engine objects on the
   directories step 2 filled; zero compiler invocations asserted);
5. ``steady`` executions on the long-lived runner, pool or server.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import sys
import time

import numpy as np  # noqa: E402  (first, so import_s is repro's own cost)

#: what a workload imports beyond the core, so import_s is what it pays
_WORKLOAD_IMPORTS = {
    "ccsd_spmd": ("repro.runtime.process",),
    "serve_mix": ("repro.server", "repro.server.client"),
}
_IMPORT_T0 = time.perf_counter_ns()
import repro  # noqa: E402
import repro.kernels  # noqa: E402
import repro.pipeline  # noqa: E402
import repro.runtime.plan_cache  # noqa: E402

for _arg in sys.argv[1:]:
    for _module in _WORKLOAD_IMPORTS.get(_arg, ()):
        importlib.import_module(_module)
IMPORT_S = (time.perf_counter_ns() - _IMPORT_T0) / 1e9

import asyncio  # noqa: E402
import random  # noqa: E402
from typing import Callable, Dict, List, NamedTuple, Optional  # noqa: E402

from repro.kernels import (  # noqa: E402
    clear_einsum_path_cache,
    configure_default_engine,
    einsum_path_cache_stats,
)
from repro.pipeline import SynthesisConfig, synthesize  # noqa: E402
from repro.runtime.plan_cache import PlanCache  # noqa: E402

import specs  # noqa: E402
from common import (  # noqa: E402
    SMOKE_ROUNDS,
    TRACED_ROUNDS,
    quantile,
    stratified,
    thread_count,
)
from tracing import Tracer  # noqa: E402

T = thread_count()
MATMUL_N = 768
#: rounds after which peak RSS is read: a fixed amount of work, so the
#: figure does not grow with how many rounds a quiet machine fits in
RSS_ROUNDS = 3


def now() -> int:
    return time.perf_counter_ns()


def rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


class Recorder:
    """Raw samples of one pass: series -> stratum -> values."""

    def __init__(self) -> None:
        self.samples: Dict[str, Dict[str, List[float]]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.rounds = 0

    def add(self, series: str, value: float, stratum: str = "0") -> None:
        self.samples.setdefault(series, {}).setdefault(stratum, []).append(value)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message[:400])


class Workload:
    """What every workload shares: round directories, the machine-state
    yardstick, and the seed-keyed reference cache."""

    def __init__(self, name: str, seed: int, workdir: str) -> None:
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.reference_s = 0.0
        self._round_id = 0
        #: arena allocations seen during steady executions (must stay 0)
        self.arena_allocs_steady = 0
        a = np.random.default_rng(0).random((MATMUL_N, MATMUL_N))
        self._mm = (a, a.T.copy(), np.empty((MATMUL_N, MATMUL_N)))

    def skip_reason(self) -> Optional[str]:
        return None

    def peak_rss_mb(self) -> float:
        return rss_mb()

    @staticmethod
    def fresh_cache(dirs: str) -> PlanCache:
        return PlanCache(directory=os.path.join(dirs, "plans"))

    @staticmethod
    def fresh_engine(dirs: str):
        """A new process-wide engine over the round's artifact directory."""
        return configure_default_engine(
            directory=os.path.join(dirs, "artifacts"), threads=T
        )

    def fresh_dirs(self) -> str:
        self._round_id += 1
        path = os.path.join(self.workdir, f"{self.name}-round{self._round_id}")
        os.makedirs(os.path.join(path, "plans"))
        os.makedirs(os.path.join(path, "artifacts"))
        return path

    def matmul_ms(self) -> float:
        a, b, out = self._mm
        t = now()
        np.matmul(a, b, out=out)
        return (now() - t) / 1e6

    def cached_reference(self, spec: specs.Spec, arrays, tag: str) -> np.ndarray:
        """The reference of ``spec`` on ``arrays``, cached by seed so the
        second pass of a run does not pay for it again."""
        path = os.path.join(self.workdir, f"ref-{self.name}-{tag}-{self.seed}.npy")
        if os.path.exists(path):
            return np.load(path)
        t = now()
        want = spec.reference(arrays)
        self.reference_s += (now() - t) / 1e9
        np.save(path, want)
        return want


# -- the four in-process workloads ---------------------------------------


class PipelineWorkload(Workload):
    """Spec text -> ``synthesize`` -> runner (or SPMD pool) -> result."""

    def __init__(
        self, name, seed, workdir, spec: specs.Spec, config: Dict[str, object],
        warm: int, steady: int, spmd: bool = False,
    ) -> None:
        super().__init__(name, seed, workdir)
        self.spec = spec
        self.config_kwargs = dict(config)
        if spec.semiring != "plus_times":
            self.config_kwargs["semiring"] = spec.semiring
        self.warm = warm
        self.steady = steady
        self.spmd = spmd
        self.native = config.get("codegen") == "native"
        self.arrays = specs.make_inputs(spec, seed)
        self.want = self.cached_reference(spec, self.arrays, "out")
        #: the last synthesize() result / the last replayed formula sequence
        self.last_result = None
        self.replayed: Optional[str] = None

    def skip_reason(self) -> Optional[str]:
        if self.native and not repro.kernels.native_available():
            return "no C compiler or numba: native nests cannot be built"
        if self.spmd and (os.cpu_count() or 1) < 2:
            return "nproc < 2: the process grid would time-slice one core"
        return None

    def peak_rss_mb(self) -> float:
        # on the process grid: this process + its largest reaped child
        return rss_mb() + (rss_mb(children=True) if self.spmd else 0.0)

    def config(self) -> SynthesisConfig:
        return SynthesisConfig(**self.config_kwargs)

    # substrate ---------------------------------------------------------
    def build(self, dirs: str) -> Dict[str, object]:
        sub: Dict[str, object] = {
            "cache": self.fresh_cache(dirs),
            "engine": self.fresh_engine(dirs),
            "pool": None,
        }
        if self.native:
            sub["engine"].openmp()  # the compiler / OpenMP probe
        clear_einsum_path_cache()
        if self.spmd:
            from repro.runtime.process import SpmdProcessPool

            t = now()
            pool = SpmdProcessPool(T, transport="shm")
            pool.workers(T)
            sub["pool"] = pool
            sub["pool_spawn_ms"] = (now() - t) / 1e6
        return sub

    def teardown(self, sub: Dict[str, object], dirs: str) -> None:
        if sub.get("pool") is not None:
            sub["pool"].close()
        shutil.rmtree(dirs, ignore_errors=True)

    def check_mode(self, result) -> None:
        if self.native and result.codegen_mode != "native":
            raise RuntimeError(
                f"codegen degraded to {result.codegen_mode!r}: "
                f"{result.last_run_notes}"
            )

    def executor(self, result, sub) -> Callable[[], np.ndarray]:
        """A callable running the whole synthesized program once."""
        if self.spmd:
            def run() -> np.ndarray:
                out = result.run_parallel(
                    self.arrays, backend="process", transport="shm",
                    pool=sub["pool"],
                )
                return out[self.spec.output]
        else:
            runner = result.kernel_runner()
            sub["runner"] = runner

            def run() -> np.ndarray:
                return runner.run(self.arrays)[self.spec.output]
        return run

    def verify(self, rec: Recorder, got: np.ndarray) -> None:
        if not specs.matches(self.spec, got, self.want):
            rec.fail(f"{self.name}: result differs from the reference")

    def warm_compile(self, dirs: str):
        """Fresh cache and engine objects over the filled directories."""
        engine = self.fresh_engine(dirs)
        result = synthesize(
            self.spec.text, self.config(), cache=self.fresh_cache(dirs)
        )
        if result.codegen_mode == "native":
            from replay import load_nests

            load_nests(result.kernel_plan, engine, T)
        return result, engine

    # one untraced round --------------------------------------------------
    def round(self, rec: Recorder) -> None:
        dirs = self.fresh_dirs()
        rec.add("matmul_ms", self.matmul_ms())
        t = now()
        sub = self.build(dirs)
        rec.add("setup_s", (now() - t) / 1e9)
        try:
            rec.attempted += 2
            t0 = now()
            result = synthesize(self.spec.text, self.config(), cache=sub["cache"])
            t1 = now()
            self.check_mode(result)
            self.last_result = result
            run = self.executor(result, sub)
            got = run()
            t2 = now()
            rec.add("compile_cold_s", (t1 - t0) / 1e9)
            rec.add("first_result_s", (t2 - t0) / 1e9)
            self.verify(rec, got)

            for _ in range(self.warm):
                rec.attempted += 1
                t = now()
                warm, engine = self.warm_compile(dirs)
                rec.add("compile_warm_ms", (now() - t) / 1e6)
                tier = warm.reports[-1].details.get("hit")
                compiles = engine.stats()["compile_invocations"]
                if tier != "disk" or compiles != 0:
                    rec.fail(
                        f"warm compile: plan tier {tier!r}, "
                        f"{compiles} compiler invocations"
                    )

            runner = sub.get("runner")
            allocs = runner.arena.allocations if runner is not None else 0
            for _ in range(self.steady):
                rec.attempted += 1
                t = now()
                got = run()
                rec.add("exec_ms", (now() - t) / 1e6)
                self.verify(rec, got)
            if runner is not None:
                self.arena_allocs_steady += runner.arena.allocations - allocs
        finally:
            self.teardown(sub, dirs)

    # exact counts (determinism check) ------------------------------------
    def exact_counts(self, rec: Recorder) -> Dict[str, object]:
        from replay import exact_counts, sequence_text

        result = self.last_result
        if result is None:  # a traced pass has only replayed results
            result = synthesize(self.spec.text, self.config())
        # the replay is only a profile of synthesize() if it decides what
        # synthesize() decides
        if self.replayed is not None and self.replayed != sequence_text(
            result.statements
        ):
            rec.fail("replay and synthesize() disagree on the formula sequence")
        counts = exact_counts(result)
        if self.spmd:
            from repro.runtime.process import SpmdProcessPool

            with SpmdProcessPool(T, transport="shm") as pool:
                stats = self.spmd_statementwise(result, pool)
            counts["parallel.spmd_traffic_bytes"] = stats["traffic"]
            counts["parallel.spmd_supersteps"] = stats["supersteps"]
        return counts

    def spmd_statementwise(self, result, pool, tracer: Optional[Tracer] = None):
        """What ``run_parallel`` does, statement by statement, so the
        traffic and superstep counts it discards can be read."""
        from contextlib import nullcontext

        from repro.engine.executor import run_statements as run_local
        from repro.parallel.program_plan import SequencePlan
        from repro.runtime.process import run_spmd_sequence_process

        span = tracer.span if tracer is not None else (lambda name: nullcontext())
        arrays = dict(self.arrays)
        traffic = supersteps = local = 0
        for stmt in result.statements:
            name = stmt.result.name
            plan = result.partition_plans.get(name)
            if plan is None:
                local += 1
                with span("runtime.local_fallback"):
                    arrays = run_local(
                        [stmt], arrays, result.config.bindings,
                        semiring=result.config.semiring,
                    )
                continue
            with span("runtime.spmd_statement"):
                out = run_spmd_sequence_process(
                    [stmt], SequencePlan([(name, plan)], plan.total_cost),
                    arrays, procs=T, pool=pool, semiring=result.config.semiring,
                )
            arrays.update(out.arrays)
            traffic += out.total_traffic
            supersteps += out.total_supersteps
        return {
            "out": arrays[self.spec.output], "traffic": traffic,
            "supersteps": supersteps, "local": local,
        }

    # one traced round ------------------------------------------------------
    def traced_round(self, tracer: Tracer, rec: Recorder) -> Dict[str, float]:
        from replay import emitted_sizes, replay_compile, replay_warm, sequence_text

        values: Dict[str, float] = {}
        dirs = self.fresh_dirs()
        values["harness.matmul_ms"] = self.matmul_ms()
        with tracer.span("setup"):
            sub = self.build(dirs)
        values["runtime.pool_spawn_ms"] = sub.get("pool_spawn_ms", 0.0)
        try:
            rec.attempted += 2
            with tracer.span("first_result"):
                rep = replay_compile(
                    self.spec.text, self.config(), tracer, sub["cache"],
                    sub["engine"],
                )
                result = rep["result"]
                if self.spmd:
                    with tracer.span("runtime.spmd_run"):
                        stats = self.spmd_statementwise(result, sub["pool"], tracer)
                    got = stats["out"]
                else:
                    with tracer.span("kernels.runner_build"):
                        runner = result.kernel_runner()
                    with tracer.span("kernels.first_run"):
                        got = runner.run(self.arrays)[self.spec.output]
            self.verify(rec, got)
            values.update(rep["counts"])
            values.update(emitted_sizes(result.kernel_plan, sub["engine"], T))
            cold_stats = sub["engine"].stats()
            values["kernels.compile_invocations"] = cold_stats["compile_invocations"]

            rec.attempted += 1
            engine = self.fresh_engine(dirs)
            warm_cache = replay_warm(
                self.spec.text, self.config(), tracer,
                os.path.join(dirs, "plans"), engine,
            )
            warm_stats = engine.stats()
            values["kernels.store_loads"] = warm_stats["store_loads"]
            if warm_stats["compile_invocations"]:
                rec.fail("warm replay invoked the compiler")

            allocs = 0 if self.spmd else runner.arena.allocations
            for _ in range(3):
                rec.attempted += 1
                if self.spmd:
                    with tracer.span("runtime.spmd_run"):
                        stats = self.spmd_statementwise(result, sub["pool"], tracer)
                    got = stats["out"]
                else:
                    with tracer.span("kernels.run"):
                        got = runner.run(self.arrays)[self.spec.output]
                self.verify(rec, got)
            if self.spmd:
                values["parallel.spmd_traffic_bytes"] = stats["traffic"]
                values["parallel.spmd_supersteps"] = stats["supersteps"]
                values["runtime.local_fallback_statements"] = stats["local"]
            else:
                values["kernels.arena_allocs_steady"] = (
                    runner.arena.allocations - allocs
                )
            paths = einsum_path_cache_stats()
            lookups = paths["hits"] + paths["misses"]
            values["kernels.einsum_cache_hit_ratio"] = (
                paths["hits"] / lookups if lookups else 0.0
            )
            for key in ("hits", "misses", "evictions"):
                values[f"store.{key}"] = (
                    sub["cache"].stats()[key] + warm_cache.stats()[key]
                )

            self.replayed = sequence_text(result.statements)
        finally:
            self.teardown(sub, dirs)
        return values

    def traced_summary(self, rec: Recorder) -> Dict[str, object]:
        return {"_overhead_against": "first_result_s", "_stage_specs": 1}


# -- the served workload ----------------------------------------------------

class RequestClass(NamedTuple):
    """One kind of request in the served stream."""

    series: str  # the end-to-end timing the class stands for
    per_block: int
    execute: bool
    never_seen: bool
    span: str

    @property
    def path(self) -> str:
        return "/v1/execute" if self.execute else "/v1/synthesize"

    @property
    def ticks_per_unit(self) -> float:
        """perf_counter_ns ticks per unit of ``series`` (s or ms)."""
        return 1e9 if self.series.endswith("_s") else 1e6


#: one block of the stream: 60 % repeated synthesize, 10 % never-seen
#: synthesize, 25 % repeated execute, 5 % never-seen execute
CLASSES = (
    RequestClass("compile_warm_ms", 12, False, False, "server.synth_hit"),
    RequestClass("compile_cold_s", 2, False, True, "server.synth_miss"),
    RequestClass("exec_ms", 5, True, False, "server.execute"),
    RequestClass("first_result_s", 1, True, True, "server.execute_miss"),
)
BLOCK = [cls for cls in CLASSES for _ in range(cls.per_block)]


class ServeWorkload(Workload):
    """In-process ``ReproServer`` and ``T`` closed-loop HTTP clients.

    The four request classes stand for the four timings.  The eight
    primed specs differ in cost, so each class is sampled per spec (the
    stratum) and summarised as the mean of the per-spec low deciles: a
    pooled low decile would report only the cheapest spec.
    """

    def __init__(self, name, seed, workdir, blocks: int) -> None:
        super().__init__(name, seed, workdir)
        self.blocks = blocks
        self.templates = specs.SERVED
        self.primed = [make("") for make in self.templates]
        self.inputs = [specs.make_inputs(s, seed) for s in self.primed]
        self.sums = [
            float(self.cached_reference(s, a, f"t{k}").sum())
            for k, (s, a) in enumerate(zip(self.primed, self.inputs))
        ]
        self.lists = [
            {name: a.tolist() for name, a in arrays.items()}
            for arrays in self.inputs
        ]
        self.errors_5xx = 0
        #: per client and request class, which primed spec comes next;
        #: kept across rounds so every class visits every spec
        self.turns = [
            {cls.series: c * (len(self.primed) // T) for cls in CLASSES}
            for c in range(T)
        ]

    def payload(self, k: int, tag: str, execute: bool) -> dict:
        spec = self.templates[k](tag) if tag else self.primed[k]
        body: dict = {"program": spec.text}
        if execute:
            body["inputs"] = {
                name + tag: cells for name, cells in self.lists[k].items()
            }
            body["result"] = "checksum"
        return body

    def check(self, rec: Recorder, k: int, tag: str, status: int, body: dict,
              execute: bool) -> None:
        if status >= 500:
            self.errors_5xx += 1
        if status != 200:
            rec.fail(f"{self.name}: HTTP {status}: {str(body)[:200]}")
            return
        if not execute:
            return
        output = self.primed[k].output + tag
        got = body.get("outputs", {}).get(output, {}).get("sum")
        want = self.sums[k]
        if got is None or abs(got - want) > 1e-9 * abs(want):
            rec.fail(f"{self.name}: checksum of {output} is {got}, want {want}")

    async def serve_round(self, rec: Recorder, tracer: Optional[Tracer]) -> Dict[str, float]:
        from repro.server import ReproServer, ServerConfig
        from repro.server.client import arequest

        values: Dict[str, float] = {}
        dirs = self.fresh_dirs()
        rec.add("matmul_ms", self.matmul_ms())
        t = now()
        server = ReproServer(ServerConfig(plan_cache_dir=os.path.join(dirs, "plans")))
        await server.start()
        boot = now() - t
        rec.add("setup_s", boot / 1e9)
        values["server.boot_ms"] = boot / 1e6
        host, port = server.host, server.port
        fresh_tag = iter(f"u{n}" for n in range(10 ** 6))

        async def send(cls: RequestClass, k: int) -> None:
            tag = next(fresh_tag) if cls.never_seen else ""
            body = self.payload(k, tag, cls.execute)
            rec.attempted += 1
            t0 = now()
            status, reply = await arequest(host, port, "POST", cls.path, body)
            t1 = now()
            rec.add(cls.series, (t1 - t0) / cls.ticks_per_unit, str(k))
            if tracer is not None:
                tracer.add(cls.span, t0, t1)
            self.check(rec, k, tag, status, reply, cls.execute)

        try:
            for k in range(len(self.primed)):  # prime: synthesize + execute
                for path, execute in (("/v1/synthesize", False), ("/v1/execute", True)):
                    rec.attempted += 1
                    status, reply = await arequest(
                        host, port, "POST", path, self.payload(k, "", execute)
                    )
                    self.check(rec, k, "", status, reply, execute)
            for _ in range(3):
                t0 = now()
                status, _ = await arequest(host, port, "GET", "/healthz")
                t1 = now()
                if tracer is not None:
                    tracer.add("server.http_floor", t0, t1)

            async def client(number: int) -> None:
                rng = random.Random(f"{self.seed}-{self._round_id}-{number}")
                turn = self.turns[number]
                for _ in range(self.blocks):
                    block = list(BLOCK)
                    rng.shuffle(block)
                    for cls in block:
                        k = turn[cls.series] % len(self.primed)
                        turn[cls.series] += 1
                        await send(cls, k)

            await asyncio.gather(*(client(c) for c in range(T)))
            store = server.plan_cache.stats()
            values.update({
                "store.hits": store["hits"],
                "store.misses": store["misses"],
                "store.evictions": store["evictions"],
                "server.coalesced": server.coalescer.stats()["coalesced"],
                "server.shed_429": server.shed,
                "server.errors_5xx": self.errors_5xx,
            })
        finally:
            await server.stop()
            shutil.rmtree(dirs, ignore_errors=True)
        return values

    def round(self, rec: Recorder) -> None:
        asyncio.run(self.serve_round(rec, None))

    def exact_counts(self, rec: Recorder) -> Dict[str, object]:
        from replay import exact_counts

        merged: Dict[str, object] = {}
        for k, spec in enumerate(self.primed):
            for key, value in exact_counts(synthesize(spec.text)).items():
                merged[f"{key}[{k}]"] = value
        return merged

    def traced_round(self, tracer: Tracer, rec: Recorder) -> Dict[str, float]:
        from replay import replay_compile

        with tracer.span("serve_round"):
            values = asyncio.run(self.serve_round(rec, tracer))
        values["harness.matmul_ms"] = rec.samples["matmul_ms"]["0"][-1]
        # the pipeline layers under the service: replay each primed spec
        dirs = self.fresh_dirs()
        try:
            engine = self.fresh_engine(dirs)
            totals: Dict[str, float] = {}
            for spec in self.primed:
                rep = replay_compile(
                    spec.text, SynthesisConfig(), tracer,
                    self.fresh_cache(dirs), engine,
                )
                for key, value in rep["counts"].items():
                    totals[key] = totals.get(key, 0.0) + value
            values.update(totals)
        finally:
            shutil.rmtree(dirs, ignore_errors=True)
        values.update(self.sparse_sweep(tracer))
        return values

    def traced_summary(self, rec: Recorder) -> Dict[str, object]:
        """Client-observed latency per request class over the traced
        rounds, and the closed-loop throughput it implies."""
        # per-class latency in ms, and its mix-weighted mean
        latency_ms = {
            cls.span: stratified(rec.samples[cls.series], 0.5)
            * (1e3 if cls.series.endswith("_s") else 1.0)
            for cls in CLASSES
        }
        mean_ms = sum(
            latency_ms[cls.span] * cls.per_block / len(BLOCK) for cls in CLASSES
        )
        return {
            "server.synth_hit_ms": latency_ms["server.synth_hit"],
            "server.synth_miss_ms": latency_ms["server.synth_miss"],
            "server.execute_ms": latency_ms["server.execute"],
            "server.throughput_rps": T / (mean_ms / 1e3),
            # too few never-seen executes in the traced rounds: the overhead of
            # tracing is read off the repeated executes
            "_first_result_ms": stratified(rec.samples["exec_ms"], 0.10),
            "_overhead_against": "exec_ms",
            "_stage_specs": len(self.primed),
        }

    def sparse_sweep(self, tracer: Tracer) -> Dict[str, float]:
        """The sparse executor on the served sparse contraction's shape
        (n = 32) at three fills: the fill sweep, as a layer metric."""
        from repro.engine.counters import Counters
        from repro.expr.parser import parse_program
        from repro.opmin.multi_term import optimize_program
        from repro.sparse.executor import run_statements

        values: Dict[str, float] = {}
        flops: Dict[str, int] = {}
        for label, fill in (("fill01", 0.01), ("fill10", 0.10), ("fill50", 0.50), ("dense", 1.0)):
            spec = specs.sparse_mm(32, fill)
            arrays = specs.make_inputs(spec, self.seed)
            statements = optimize_program(parse_program(spec.text))
            counters = Counters()
            t0 = now()
            out = run_statements(statements, arrays, counters=counters)
            t1 = now()
            if not specs.matches(spec, out[spec.output], spec.reference(arrays)):
                raise RuntimeError(f"sparse executor wrong at fill {fill}")
            flops[label] = counters.flops
            if label != "dense":
                tracer.add(f"sparse.join_{label}", t0, t1)
                values[f"sparse.join_ms_{label}"] = (t1 - t0) / 1e6
        values["sparse.op_reduction_fill01"] = flops["dense"] / max(flops["fill01"], 1)
        return values


# -- workload table ---------------------------------------------------------


def make_workload(name: str, seed: int, workdir: str, smoke: bool) -> Workload:
    native = {"codegen": "native", "kernel_threads": T, "fuse_statements": True}
    if name == "ccsd_dense":
        spec = specs.ccsd(12, 4) if smoke else specs.ccsd(48, 12)
        return PipelineWorkload(name, seed, workdir, spec, {}, warm=4, steady=8)
    if name == "fig1_native":
        spec = specs.fig1(8, 4) if smoke else specs.fig1(32, 8)
        return PipelineWorkload(name, seed, workdir, spec, native, warm=4, steady=4)
    if name == "apsp_native":
        spec = specs.apsp(32) if smoke else specs.apsp(256)
        return PipelineWorkload(name, seed, workdir, spec, native, warm=4, steady=5)
    if name == "ccsd_spmd":
        spec = specs.ccsd(6, 3) if smoke else specs.ccsd(16, 6)
        return PipelineWorkload(
            name, seed, workdir, spec, {"processors": T}, warm=4, steady=6,
            spmd=True,
        )
    if name == "serve_mix":
        return ServeWorkload(name, seed, workdir, blocks=1 if smoke else 2)
    raise SystemExit(f"unknown workload {name!r}")


def machine_info() -> Dict[str, object]:
    from repro.autotune.db import machine_signature

    blas = "unknown"
    try:
        blas_info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "signature": machine_signature(),
        "nproc": os.cpu_count() or 1,
        "threads": T,
        "numpy": np.__version__,
        "blas": blas,
        "python": sys.version.split()[0],
        "repro": repro.__version__,
    }


# -- passes -------------------------------------------------------------------


def timed_pass(workload: Workload, seconds: float, smoke: bool) -> Dict[str, object]:
    rec = Recorder()
    rss = None
    durations: List[float] = []
    start = time.perf_counter()
    while True:
        if smoke:
            if rec.rounds >= SMOKE_ROUNDS:
                break
        elif durations:
            # start a round only while a typical one still fits: the median,
            # so that one stalled round does not end the pass (the first
            # round of a process is slow -- page faults, lazy imports)
            typical = quantile(durations[1:] or durations, 0.5)
            if time.perf_counter() - start + typical > seconds:
                break
        t = time.perf_counter()
        try:
            workload.round(rec)
        except Exception as exc:  # a failed operation, not a crashed benchmark
            rec.attempted += 1
            rec.fail(f"{type(exc).__name__}: {exc}")
        durations.append(time.perf_counter() - t)
        rec.rounds += 1
        if rec.rounds == (SMOKE_ROUNDS if smoke else RSS_ROUNDS):
            rss = workload.peak_rss_mb()
    out = pass_result(workload, rec)
    out["rss_mb"] = rss if rss is not None else workload.peak_rss_mb()
    return out


#: per-layer timing <- the span it is read from.  A stage span occurs
#: once per replayed spec and same-named spans add up, so on serve_mix
#: (eight specs replayed) stage timings, like the counts, are totals.
STAGE_METRICS = {
    "expr.parse_ms": "expr.parse",
    "opmin.optimize_ms": "opmin.optimize",
    "opmin.schedule_ms": "opmin.schedule",
    "fusion.memopt_ms": "fusion.memopt",
    "locality.tile_search_ms": "locality.tile_search",
    "parallel.plan_ms": "parallel.plan",
    "codegen.source_ms": "codegen.source",
    "kernels.lower_ms": "kernels.lower",
    "kernels.native_compile_ms": "kernels.native_compile",
    "runtime.plan_key_ms": "runtime.plan_key",
    "runtime.plan_cache_put_ms": "runtime.plan_cache_put",
}
#: spans whose self time counts toward trace.coverage: every stage of
#: the cold compile.  What is left is the replay's own glue.
STAGE_SPANS = set(STAGE_METRICS.values()) | {
    "runtime.plan_cache_get", "codegen.build_fused", "sparse.dispatch",
    "kernels.engine_function",
}
#: repeated operations: the median of the round's spans of that name
REPEATED_METRICS = {
    "kernels.artifact_load_ms": "kernels.artifact_load",
    "kernels.runner_build_ms": "kernels.runner_build",
    "kernels.run_ms": "kernels.run",
    "runtime.plan_cache_mem_hit_ms": "runtime.plan_cache_mem_hit",
    "runtime.plan_cache_disk_hit_ms": "runtime.plan_cache_disk_hit",
    "runtime.spmd_run_ms": "runtime.spmd_run",
    "server.http_floor_ms": "server.http_floor",
}


def traced_pass(workload: Workload) -> Dict[str, object]:
    rec = Recorder()
    tracer = Tracer()
    per_round: List[Dict[str, float]] = []
    for r in range(TRACED_ROUNDS):
        tracer.round = r
        try:
            values = workload.traced_round(tracer, rec)
        except Exception as exc:
            rec.attempted += 1
            rec.fail(f"traced round: {type(exc).__name__}: {exc}")
            continue
        for metric, span in STAGE_METRICS.items():
            values[metric] = sum(tracer.durations_ms(r, span))
        for metric, span in REPEATED_METRICS.items():
            durations = tracer.durations_ms(r, span)
            if durations:
                values[metric] = quantile(durations, 0.5)
        if values.get("kernels.run_ms") and values.get("opmin.ops_optimized"):
            # computed, not counted: modelled operations (a multiply-add
            # is two) over measured time, against the round's own matmul
            gflops = values["opmin.ops_optimized"] / values["kernels.run_ms"] / 1e6
            peak = 2.0 * MATMUL_N ** 3 / values["harness.matmul_ms"] / 1e6
            values["kernels.achieved_gflops"] = gflops
            values["kernels.peak_fraction"] = gflops / peak
        values["_stage_self_ms"] = sum(
            ms for name, ms in tracer.self_ms(r).items() if name in STAGE_SPANS
        )
        values["_first_result_ms"] = sum(tracer.durations_ms(r, "first_result"))
        per_round.append(values)
        rec.rounds += 1
    out = pass_result(workload, rec)
    out["rss_mb"] = workload.peak_rss_mb()
    layer = {
        key: quantile([v[key] for v in per_round if key in v], 0.5)
        for key in sorted({k for values in per_round for k in values})
    }
    for key in ("_stage_self_ms", "_first_result_ms"):
        # compared with low deciles of untraced rounds: take the floor too
        if per_round:
            layer[key] = min(v[key] for v in per_round)
    layer.update(workload.traced_summary(rec))
    out["layer"] = layer
    out["spans"] = tracer.as_dicts()
    return out


def pass_result(workload: Workload, rec: Recorder) -> Dict[str, object]:
    try:
        counts = workload.exact_counts(rec)
    except Exception as exc:
        rec.attempted += 1
        rec.fail(f"exact counts: {type(exc).__name__}: {exc}")
        counts = {}
    return {
        "workload": workload.name,
        "import_s": IMPORT_S,
        "reference_s": workload.reference_s,
        "rounds": rec.rounds,
        "samples": rec.samples,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "errors": rec.errors,
        "counts": counts,
        "machine": machine_info(),
        "rss_end_mb": workload.peak_rss_mb(),
        "arena_allocs_steady": workload.arena_allocs_steady,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("timed", "traced", "import"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--smoke", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    if args.mode == "import":
        result: Dict[str, object] = {"import_s": IMPORT_S}
    else:
        workload = make_workload(args.workload, args.seed, args.workdir, bool(args.smoke))
        reason = workload.skip_reason()
        if reason is not None:
            result = {"workload": args.workload, "skipped": reason}
        elif args.mode == "timed":
            result = timed_pass(workload, args.seconds, bool(args.smoke))
        else:
            result = traced_pass(workload)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
