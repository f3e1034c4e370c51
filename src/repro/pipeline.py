"""The end-to-end synthesis pipeline (paper Fig. 5).

``synthesize`` drives the full chain on a high-level program:

1. **Algebraic transformations** -- operation minimization into a
   formula sequence (:mod:`repro.opmin`);
2. **Memory minimization** -- loop-fusion DP per computation tree
   (:mod:`repro.fusion`);
3. **Space-time transformation** -- if the fused memory still exceeds
   the configured capacity, the fusion/recompute pareto search plus
   tile-size search (:mod:`repro.spacetime`); with feedback to memory
   minimization exactly as in the figure (the tradeoff search subsumes
   the pure-fusion solutions);
4. **Data locality optimization** -- cache blocking of the resulting
   structure (:mod:`repro.locality`);
5. **Data distribution and partitioning** -- the Section-7 DP per
   formula-sequence statement on a processor grid
   (:mod:`repro.parallel`);
6. **Code generation** -- executable Python from the loop IR
   (:mod:`repro.codegen.pygen`).

The result object carries every stage's report, the final loop
structure, the generated source, the compiled kernel plan, and two ways
to evaluate, both validated against the reference einsum executor:
``run`` (the practical one: compiled kernels unless the program is
sparse or does not fit in memory) and ``execute`` (the counted
element-by-element interpreter of the loop structure).

A result is a value once :func:`synthesize` returns: executing it
assigns none of its attributes.  What a run did -- the substrate it
picked and why -- comes back on the :class:`RunOutput` it returns, so
one result may be shared by the plan cache's memory tier and run from
many threads at once.
"""

from __future__ import annotations

import copy
import functools
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.expr.ast import Program, Statement
from repro.expr.parser import parse_program
from repro.engine.machine import MachineModel
from repro.opmin.cost import sequence_op_count, statement_op_count
from repro.opmin.multi_term import optimize_program
from repro.fusion.memopt import minimize_memory
from repro.fusion.tree import build_forest
from repro.spacetime.tiling import search_tile_sizes
from repro.spacetime.tradeoff import tradeoff_search
from repro.locality.tile_search import optimize_locality, tileable_indices
from repro.parallel.commcost import CommModel
from repro.parallel.grid import ProcessorGrid
from repro.parallel.partition import PartitionPlan, optimize_distribution
from repro.codegen.builder import build_fused
from repro.codegen.interp import execute as interp_execute
from repro.codegen.loops import Block, loop_op_count, peak_memory, render, total_memory
from repro.codegen.pygen import compile_loops, generate_source
from repro.engine.counters import Counters
from repro.report import StageReport
from repro.robustness.budget import Budget, BudgetTracker
from repro.robustness.errors import BudgetExceeded, SpecError

#: schema version of :class:`SynthesisResult` as stored in the plan
#: cache.  Bumped whenever the result grows fields that executing code
#: relies on, so a pickled result from an older release is rejected as
#: stale instead of resurfacing as an object missing attributes
#: (version 2: codegen_mode / native_artifacts / native kernel terms;
#: version 3: kernel_threads / fuse_statements config and fused-group
#: kernel plans; version 4: semiring-generalized contractions -- the
#: config carries a semiring id, kernel plans record their algebra, and
#: nest IR moved to v3 with semiring-aware emission; version 6: kernel
#: plans record the input shapes they were compiled for, which
#: ``KernelRunner.run`` checks before any kernel step; version 8: runs
#: report on their return value, and the synthesis-time notes are the
#: ``synthesis_notes`` field).
RESULT_VERSION = 8


class RunOutput(dict):
    """What one ``run()`` / ``run_parallel()`` call of a
    :class:`SynthesisResult` returned: the arrays by name (it *is* the
    ``dict`` callers index), plus :attr:`substrate` -- where they were
    computed -- and :attr:`notes` -- why, and whatever the substrate
    recorded on the way.  Each call's are its own."""

    def __init__(self, arrays, substrate: str, notes: List[str]) -> None:
        super().__init__(arrays)
        #: ``"kernels"`` or ``"interp"`` for :meth:`SynthesisResult.run`,
        #: the backend (``"local"`` or ``"process"``) for ``run_parallel``
        self.substrate = substrate
        self.notes = notes


class _SessionMemo:
    """:meth:`SynthesisResult.spmd_session`'s memo: the plans a session
    was built for and the session, set under a lock.  A result and its
    shallow copies share one; it pickles empty, so a stored result's
    bytes never depend on whether it has run."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.value: Optional[Tuple[Tuple[PartitionPlan, ...], object]] = None

    def __reduce__(self):
        return (_SessionMemo, ())


@dataclass
class SynthesisConfig:
    """Knobs of the pipeline."""

    machine: MachineModel = field(default_factory=MachineModel)
    grid: Optional[ProcessorGrid] = None
    #: alternative to `grid`: give a processor *count* and let the
    #: distribution stage pick the best logical grid shape
    processors: Optional[int] = None
    comm: CommModel = field(default_factory=CommModel)
    bindings: Optional[Mapping[str, int]] = None
    #: memory level the fused computation must fit in before the
    #: space-time stage stops rewriting ('memory' or 'disk')
    capacity_level: str = "memory"
    #: run the (potentially slow) locality tile search
    optimize_cache: bool = True
    locality_max_indices: int = 4
    #: also search loop orders of perfect nests (Section 6's other knob)
    optimize_order: bool = False
    #: apply reverse-distributivity factorization in stage 1
    factorize: bool = True
    #: scale operation-minimization costs by declared fills, so sparsity
    #: annotations influence the chosen formula sequence
    sparse_aware: bool = False
    #: dispatch statements with declared-sparse operands to the sparse
    #: executor (dense statements keep the loop-IR path)
    sparse_execution: bool = True
    #: search budget (deadline and/or node count) shared across every
    #: search stage; on exhaustion each stage degrades to its documented
    #: greedy fallback and the stage report records it (strict budgets
    #: raise :class:`~repro.robustness.errors.BudgetExceeded` instead)
    budget: Optional[Budget] = None
    #: kernel codegen target: ``"gemm"`` (one matmul per binary term on
    #: operand views, einsum fallback), ``"einsum"`` (cached-path einsum everywhere),
    #: ``"native"`` (compiled fused tiled loop nests via
    #: :mod:`repro.kernels.native`, per-term GEMM/einsum fallback when
    #: no nest compiles), or ``"auto"`` (gemm; the autotune stage may
    #: measure and select native).  A machine without any compiler
    #: silently degrades ``"native"`` to ``"gemm"`` and records why.
    codegen: str = "auto"
    #: thread count for compiled native nests (``None`` = sequential).
    #: OpenMP when the probed compiler supports ``-fopenmp``, a portable
    #: chunked-outer-loop thread pool otherwise; either way the result
    #: is bit-identical to the sequential nest.  The autotuner may also
    #: pick a measured count (``tuning.threads``); an explicit value
    #: here wins.
    kernel_threads: Optional[int] = None
    #: fuse consecutive statements that share an output iteration space
    #: into single jointly-parallel kernels (native codegen only; other
    #: modes ignore the flag)
    fuse_statements: bool = False
    #: scalar algebra the contractions evaluate under
    #: (:mod:`repro.semiring`): ``"plus_times"`` is classical linear
    #: algebra; ``"min_plus"``/``"max_plus"``/``"max_times"``/
    #: ``"or_and"`` turn the same tensor programs into shortest-path /
    #: longest-path / max-reliability / reachability engines.  Threaded
    #: through every executor, the kernel planner (GEMM declines
    #: non-default algebras), generated nest IR, and the SPMD runtime;
    #: part of the config fingerprint, so plan-cache entries never
    #: collide across algebras.
    semiring: str = "plus_times"

    def validate(self) -> None:
        """The one range check of these fields: :func:`synthesize`, the
        CLI (exit code 2) and the service (400) all refuse a bad value
        through it, before any stage runs, with the same
        :class:`~repro.robustness.errors.SpecError`.  (A bad capacity
        is :meth:`MachineModel.with_capacities`'s to refuse.)"""
        from repro.semiring import get_semiring

        get_semiring(self.semiring)
        problem = None
        if self.codegen not in ("auto", "native", "gemm", "einsum"):
            problem = (
                f"unknown codegen mode {self.codegen!r} "
                "(use 'auto', 'native', 'gemm', or 'einsum')"
            )
        elif self.kernel_threads is not None and self.kernel_threads < 1:
            problem = f"kernel_threads must be >= 1, got {self.kernel_threads}"
        elif self.grid is not None and self.processors is not None:
            problem = "give either 'grid' or 'processors', not both"
        elif self.processors is not None and self.processors < 1:
            problem = (
                f"processors must be a positive count, got {self.processors}"
            )
        elif self.capacity_level not in ("memory", "disk"):
            problem = (
                "capacity_level must be 'memory' or 'disk', "
                f"got {self.capacity_level!r}"
            )
        if problem is not None:
            raise SpecError(problem, stage="spec")


@dataclass
class SynthesisResult:
    """Everything the pipeline produced."""

    program: Program
    config: SynthesisConfig
    statements: List[Statement]
    structure: Block
    source: str
    reports: List[StageReport]
    partition_plans: Dict[str, PartitionPlan] = field(default_factory=dict)
    locality_tiles: Dict[str, int] = field(default_factory=dict)
    #: mixed dense/sparse plan; set when the program declares sparsity
    #: and ``config.sparse_execution`` is on
    execution_plan: Optional["ExecutionPlan"] = None
    #: per-statement dense-vs-sparse planning estimates (result -> est.)
    sparsity_estimates: Dict[str, "SparsityEstimate"] = field(
        default_factory=dict
    )
    #: the budget tracker that drove the run (None without a budget);
    #: its ``degradations`` list which stages fell back and why
    budget_tracker: Optional[BudgetTracker] = None
    #: what synthesis noted about how the result will execute (native
    #: codegen degraded, artifact recovery, thread strategy); what a
    #: run did is on the :class:`RunOutput` it returns
    synthesis_notes: List[str] = field(default_factory=list)
    #: the formula sequence compiled ahead of time to execution kernels
    #: (:mod:`repro.kernels`): GEMM lowerings, einsum fallback specs,
    #: and buffer liveness, all resolved at synthesis time.  Pickle-safe,
    #: so it rides the plan cache; ``None`` only when lowering was not
    #: applicable (see the Code generation stage report).
    kernel_plan: Optional["KernelPlan"] = None
    #: inert: nothing in the package fills or reads these two (their
    #: one reader, the autotuner's tile dimension, is gone); declared so
    #: callers that still pass the keywords keep constructing
    pre_locality_structure: Optional[Block] = None
    locality_table: List[Dict[str, object]] = field(default_factory=list)
    #: ``(shape, modeled cost)`` rows from the grid-shape search when
    #: ``processors`` was given -- the autotuner's grid candidate pool
    grid_table: List[Tuple[Tuple[int, ...], float]] = field(
        default_factory=list
    )
    #: measured tuning decisions in effect
    #: (:class:`~repro.autotune.stage.TuningDecisions`); ``None`` until
    #: the autotune stage runs
    tuning: Optional["TuningDecisions"] = None
    #: the codegen mode the kernel plan was actually compiled with
    #: (``config.codegen`` after resolving ``"auto"`` and degrading an
    #: unavailable ``"native"``)
    codegen_mode: str = "gemm"
    #: artifact-store keys of the nests precompiled for this plan
    #: (native mode only); warm processes load these without a compiler
    native_artifacts: List[str] = field(default_factory=list)
    #: schema version stamp checked by the plan cache
    #: (:data:`RESULT_VERSION`); results pickled by older releases lack
    #: the attribute entirely and read as stale, never as broken objects
    result_version: int = RESULT_VERSION
    #: :meth:`spmd_session` memo.  Repeated :meth:`run_parallel` calls
    #: neither regenerate a program nor change the text workers key
    #: their compiled programs by.  The plans ride along because the
    #: autotuner measures other ``partition_plans`` on its copy.
    _session_memo: _SessionMemo = field(
        default_factory=_SessionMemo, init=False, repr=False, compare=False
    )

    @property
    def last_run_notes(self) -> List[str]:
        """The synthesis-time notes (:attr:`synthesis_notes`), read-only.
        Kept for readers of the old name; a run's own notes are
        :attr:`RunOutput.notes`."""
        return list(self.synthesis_notes)

    @property
    def degraded_stages(self) -> List[str]:
        """Stage keys that exhausted the budget and used a fallback."""
        if self.budget_tracker is None:
            return []
        return self.budget_tracker.degraded_stages()

    def describe(self) -> str:
        return "\n\n".join(r.render() for r in self.reports)

    def render_structure(self) -> str:
        return render(self.structure)

    def execute(
        self,
        inputs: Mapping[str, np.ndarray],
        functions: Optional[Mapping[str, Callable]] = None,
        counters: Optional[Counters] = None,
        *,
        check_finite: bool = False,
        checkpoint: Optional[str] = None,
    ) -> Dict[str, np.ndarray]:
        """Run the synthesized computation on the *counting oracle*:
        the element-by-element interpreter of the fused/tiled loop
        structure, which tallies flops and accesses into ``counters``
        and is the one substrate that honours the Section-5 memory
        bound.  To just get the result, call :meth:`run`.

        With a mixed :attr:`execution_plan` (program declares sparsity),
        statements with sparse operands run on the nonzero-iterating
        executor and dense statements on the loop-IR interpreter;
        otherwise the whole loop structure is interpreted.

        ``check_finite`` rejects NaN/Inf inputs up front;
        ``checkpoint`` names a directory for checkpoint/restart of the
        loop-IR path (see :func:`repro.codegen.interp.execute`; not
        supported for the mixed sparse execution plan).
        """
        if self.execution_plan is not None:
            from repro.codegen.dispatch import execute_plan

            if checkpoint is not None:
                from repro.robustness.errors import CheckpointError

                raise CheckpointError(
                    "checkpointing is only supported on the loop-IR "
                    "execution path, not the mixed sparse plan",
                    stage="execution",
                )
            return execute_plan(
                self.execution_plan,
                inputs,
                self.config.bindings,
                functions,
                counters,
                semiring=self.config.semiring,
            )
        return interp_execute(
            self.structure,
            inputs,
            self.config.bindings,
            functions,
            counters,
            check_finite=check_finite,
            checkpoint=checkpoint,
            semiring=self.config.semiring,
        )

    def run(
        self,
        inputs: Mapping[str, np.ndarray],
        functions: Optional[Mapping[str, Callable]] = None,
    ) -> RunOutput:
        """Run the synthesized computation the practical way, on the
        substrate picked from what the result already knows:

        * a mixed :attr:`execution_plan` (the program declares
          sparsity) keeps its dense/sparse dispatch on the interpreter
          -- noted ``"mixed sparse plan"``;
        * otherwise the compiled :attr:`kernel_plan` runs when the
          arrays it holds at its peak fit ``config.machine.memory`` --
          noted ``"kernels"``;
        * a program that does not fit runs on the interpreter over the
          fused/tiled structure, the one substrate that honours the
          Section-5 memory bound -- noted ``"interp: peak N elements
          exceeds memory capacity M"``.

        Returns a :class:`RunOutput`: ``inputs`` plus every array a
        program statement names, with ``.substrate`` saying which ran
        (``"kernels"`` or ``"interp"``) and ``.notes`` why, followed by
        whatever the kernel runner noted (native fallbacks).  Kernels
        run on a runner built for this call and dropped after it, so
        the returned arrays are the caller's alone, and concurrent calls
        on one result never see each other's notes.  Results agree with
        :meth:`execute` to floating-point reassociation tolerance
        (~1e-12 relative; exactly, for idempotent semirings).
        """
        # every array the program's own statements name is returned,
        # as execute() does, so the runner keeps them all to the end
        declared = [stmt.result.name for stmt in self.program.statements]
        why = "kernels"
        if self.execution_plan is not None:
            why = "mixed sparse plan"
        elif self.kernel_plan is None:
            why = "interp: no kernel plan was compiled"
        else:
            peak = self.kernel_plan.peak_live_elements(declared)
            capacity = self.config.machine.memory.capacity
            if peak > capacity:
                why = (
                    f"interp: peak {peak} elements exceeds memory "
                    f"capacity {capacity}"
                )
        if why != "kernels":
            return RunOutput(self.execute(inputs, functions), "interp", [why])
        runner = self.kernel_runner(functions, keep=declared)
        out = runner.run(inputs)
        return RunOutput(out, "kernels", [why, *runner.notes])

    def compile(self) -> Callable:
        """Compile the generated Python source to a callable kernel."""
        return compile_loops(
            self.structure, self.config.bindings,
            semiring=self.config.semiring,
        )

    def compile_fast(self) -> Callable:
        """The *formula sequence* as a callable ``kernel(arrays,
        functions=None)`` over :meth:`kernel_runner`.

        This is the kernel path held across calls, under any semiring:
        the compiled :attr:`kernel_plan` (GEMM, compiled nests,
        cached-path einsum; no fusion/tiling -- :meth:`run` is the
        one-shot form that first checks the problem fits in memory).
        Every call returns detached arrays and leaves its inputs
        untouched, after checking each input against the shape the plan
        was compiled for.  Numerically it matches the
        reference executor to floating-point reassociation tolerance
        (~1e-12 relative).
        """
        return functools.partial(self.kernel_runner().run, copy=True)

    def kernel_runner(
        self,
        functions: Optional[Mapping[str, Callable]] = None,
        **kwargs,
    ) -> "KernelRunner":
        """A :class:`~repro.kernels.plan.KernelRunner` over the compiled
        :attr:`kernel_plan` -- the allocation-free repeated-execution
        path (persistent output buffers, arena-recycled temporaries).

        Each call builds a fresh runner (runners own mutable buffers, so
        they are deliberately not stored on the cacheable result); hold
        on to it across executions to get the steady-state behaviour.

        Nest thread count resolution: an explicit ``threads=`` keyword
        wins, then :attr:`SynthesisConfig.kernel_threads`, then the
        autotuner's measured ``tuning.threads``.
        """
        from repro.kernels import compile_kernel_plan
        from repro.kernels.plan import KernelRunner

        if "threads" not in kwargs or kwargs["threads"] is None:
            threads = self.config.kernel_threads
            if threads is None and self.tuning is not None:
                threads = self.tuning.threads
            if threads is not None:
                kwargs["threads"] = threads
        plan = self.kernel_plan
        if plan is None:
            plan = compile_kernel_plan(
                self.statements, self.config.bindings,
                mode=self.codegen_mode,
                fuse=self.config.fuse_statements,
                semiring=self.config.semiring,
            )
        return KernelRunner(plan, functions=functions, **kwargs)

    def spmd_session(self):
        """The formula sequence planned as one resident SPMD session
        (:class:`repro.parallel.session.SessionPlan`): the rank programs
        :meth:`run_parallel` runs, the statements in between that the
        router evaluates itself, and what is shipped and gathered when.
        Planned once per result and set of partition plans; the outputs
        are the program's declared statement results."""
        from repro.parallel.session import plan_session

        plans = tuple(self.partition_plans.values())
        memo = self._session_memo
        with memo.lock:
            held = memo.value
            if (
                held is None
                or len(held[0]) != len(plans)
                or any(a is not b for a, b in zip(held[0], plans))
            ):
                session = plan_session(
                    self.statements, self.partition_plans,
                    self.config.semiring,
                    [s.result.name for s in self.program.statements],
                )
                held = memo.value = (plans, session)
        return held[1]

    def spmd_sources(self) -> Dict[str, str]:
        """Generated per-rank SPMD program source per statement that
        runs as one: the planned contractions, and multi-term combines
        folded over resident operands.

        Empty when no grid was configured.  Generated once per result:
        this is the text :meth:`run_parallel` runs and ``--emit-spmd``
        writes (see :mod:`repro.parallel.session` for the driver).
        """
        if not self.partition_plans:
            return {}
        return {
            stage.name: stage.source
            for stage in self.spmd_session().programs()
        }

    def run_parallel(
        self,
        inputs: Mapping[str, np.ndarray],
        functions: Optional[Mapping[str, Callable]] = None,
        *,
        faults=None,
        max_retries: int = 3,
        max_restarts: int = 3,
        backend: str = "local",
        procs: Optional[int] = None,
        transport: str = "shm",
        pool=None,
        supervisor=None,
    ) -> RunOutput:
        """Execute the whole sequence as one SPMD session; returns a
        :class:`RunOutput` of the inputs plus the program's declared
        statement results (and whatever else the router ended up
        holding), whose ``.substrate`` is ``backend`` and whose
        ``.notes`` say what did not run as planned.

        One call is one session (:mod:`repro.parallel.session`): every
        input is shipped to the ranks once, as the box they read of it;
        a statement's result stays distributed where it was computed and
        later statements redistribute from there; only the declared
        results come back.

        ``backend`` selects where the ranks live: ``"local"`` keeps them
        in this process; ``"process"`` runs the same generated rank
        programs across worker OS processes
        (:mod:`repro.runtime.process`, one pool for the session) with
        bit-identical results.  ``procs`` bounds the worker count:
        one per rank by default, never more than ``os.cpu_count()``
        (:func:`repro.parallel.session.worker_count`; a clamp that bites
        is recorded in the returned notes).
        ``transport`` selects the process backend's ndarray wire:
        ``"shm"`` ships arrays through per-worker shared-memory arenas,
        ``"pipe"`` pickles them into the worker pipes.

        Statements that cannot run on the ranks -- no partition plan and
        not a combine over resident operands, or materializing primitive
        functions -- are evaluated by the router between the rank
        programs (what they read is gathered first); each is recorded in
        the returned notes so callers can tell which statements actually
        ran distributed.

        ``pool`` (process backend only) executes on an existing
        :class:`~repro.runtime.process.SpmdProcessPool` instead of
        spawning one: the serving layer keeps warm pools resident
        across requests.  A caller-provided pool is *not* closed here
        -- its owner decides its lifetime (and must evict it if a
        worker died: see :attr:`SpmdProcessPool.broken`).

        ``faults`` (a :class:`~repro.robustness.faults.FaultSchedule`)
        injects message drops and rank crashes into every statement's
        rank programs; recovery is by bounded retry and statement
        restart (see :func:`repro.parallel.spmd.run_spmd`).

        ``supervisor`` (process backend only, a
        :class:`~repro.runtime.supervisor.PoolSupervisor`) executes the
        session under supervision: dead workers are detected, the pool
        is respawned, and -- the dead worker's resident blocks being
        gone -- the session is replayed on the fresh pool from the
        inputs, with bit-identical results.  The supervisor's recovery
        log (respawns, retries) is merged into the returned notes.
        Mutually exclusive with ``pool`` -- the supervisor owns its pool
        (adopt a warm pool by passing it to the supervisor's constructor
        instead).
        """
        if not self.partition_plans:
            raise ValueError("no partition plans: configure a grid first")
        if backend not in ("local", "process"):
            raise ValueError(
                f"unknown SPMD backend {backend!r} "
                "(use 'local' or 'process')"
            )
        if pool is not None and backend != "process":
            raise ValueError(
                "a worker pool requires backend='process', "
                f"got backend={backend!r}"
            )
        if supervisor is not None and backend != "process":
            raise ValueError(
                "a supervisor requires backend='process', "
                f"got backend={backend!r}"
            )
        if supervisor is not None and pool is not None:
            raise ValueError(
                "pass pool= or supervisor=, not both (a supervisor owns "
                "its pool; adopt a warm pool via PoolSupervisor(pool=...))"
            )
        from repro.parallel.session import run_session

        session = self.spmd_session()
        notes = [
            f"{stage.name}: executed locally -- {stage.reason}"
            for stage in session.local()
        ]

        def run(pool):
            return run_session(
                session, inputs, faults=faults, max_retries=max_retries,
                max_restarts=max_restarts, backend=backend, procs=procs,
                pool=pool, transport=transport, functions=functions,
            )

        # a pool keeps its own transport and worker cap; one made for
        # this call is the session's to close
        out = run(pool) if supervisor is None else supervisor.run_statement(run)
        notes.extend(out.notes)
        if supervisor is not None:
            notes.extend(supervisor.notes)
        return RunOutput(out.arrays, backend, notes)


def synthesize(
    source: "str | Program",
    config: Optional[SynthesisConfig] = None,
    *,
    cache: Optional["PlanCache"] = None,
    autotune: "bool | AutotuneOptions | None" = None,
) -> SynthesisResult:
    """Run the full Fig.-5 pipeline on a program or its source text.

    With a ``cache`` (:class:`repro.runtime.plan_cache.PlanCache`), the
    result is memoized under a content-addressed key of the canonical
    program text, the configuration fingerprint, and the package
    version; a hit skips every search stage.  Either way the caller gets
    a shallow copy of the stored result whose ``reports`` list is its
    own, ending in the ``"Plan cache"`` stage report that records the
    outcome.  The copy shares everything else with the stored result,
    which is safe because nothing assigns a result's attributes once
    this function returns.

    ``autotune`` opts into the empirical tuning stage
    (:mod:`repro.autotune`): ``True`` for defaults or an
    :class:`~repro.autotune.stage.AutotuneOptions` (measurement
    protocol, :class:`~repro.autotune.db.TuningDB`, budget).  The stage
    measures the analytical searches' top candidates on this machine,
    applies the winners to the result, and appends an ``"Autotuning"``
    stage report; it composes with ``cache`` -- a plan-cache hit skips
    synthesis, a TuningDB hit additionally skips all measurement.  The
    tuner applies its winners to the caller's copy, never to the
    stored result.
    """
    config = config or SynthesisConfig()
    config.validate()
    program = (
        parse_program(source) if isinstance(source, str) else source
    )
    result = _synthesize_cached(program, config, cache)
    if autotune:
        from repro.autotune.stage import AutotuneOptions, run_autotune

        options = (
            autotune
            if isinstance(autotune, AutotuneOptions)
            else AutotuneOptions()
        )
        run_autotune(result, config, options)
    return result


def _synthesize_cached(
    program: Program,
    config: SynthesisConfig,
    cache: Optional["PlanCache"],
) -> SynthesisResult:
    """The pipeline behind the plan cache (untuned)."""
    if cache is None:
        return _synthesize_pipeline(program, config)

    from repro.runtime.plan_cache import plan_key

    key = plan_key(program, config)
    cached = cache.get(key)
    if cached is not None:
        stored, outcome = cached
    else:
        stored = _synthesize_pipeline(program, config)
        cache.put(key, stored)
        outcome = "miss (synthesized and stored)"
    # the stored result keeps only the pipeline's own reports; each
    # caller's copy ends in the report of its own lookup
    result = copy.copy(stored)
    result.reports = [
        *stored.reports,
        StageReport(
            "Plan cache",
            {"hit": outcome, "key": key[:16], "stats": cache.stats()},
        ),
    ]
    return result


def _synthesize_pipeline(
    program: Program, config: SynthesisConfig
) -> SynthesisResult:
    """The uncached six-stage pipeline on a parsed program."""
    bindings = config.bindings
    tracker = (
        config.budget.start() if config.budget is not None else None
    )
    reports: List[StageReport] = []

    # -- stage 1: algebraic transformations -------------------------------
    direct_ops = sum(
        statement_op_count(s, bindings) for s in program.statements
    )
    statements = optimize_program(
        program,
        bindings,
        factorize=config.factorize,
        sparse_aware=config.sparse_aware,
        budget=tracker,
    )
    optimized_ops = sequence_op_count(statements, bindings)
    from repro.opmin.schedule import schedule_statements

    scheduled = schedule_statements(statements, bindings)
    statements = scheduled.statements
    stage1 = StageReport(
        "Algebraic transformations",
        {
            "input statements": len(program.statements),
            "formula sequence length": len(statements),
            "direct operation count": direct_ops,
            "optimized operation count": optimized_ops,
            "operation reduction": (
                f"{direct_ops / optimized_ops:,.1f}x"
                if optimized_ops
                else "1x"
            ),
            "peak live memory (scheduled)": (
                f"{scheduled.baseline_peak:,} -> {scheduled.peak_live:,}"
                if scheduled.peak_live < scheduled.baseline_peak
                else f"{scheduled.peak_live:,}"
            ),
        },
    )
    if config.sparse_aware:
        stage1.details["sparse-aware operation count"] = sequence_op_count(
            statements, bindings, sparse_aware=True
        )
        stage1.notes.append(
            "operation minimization used declared fills (sparse_aware)"
        )
    reports.append(stage1)

    # -- stage 2: memory minimization --------------------------------------
    forest = build_forest(statements)
    # roots of non-final trees are shared temporaries or further
    # results: their storage counts toward the memory objective
    fusion_results = [
        minimize_memory(
            root,
            bindings,
            include_output=(k < len(forest) - 1),
            budget=tracker,
        )
        for k, root in enumerate(forest)
    ]
    fused_memory = sum(r.total_memory for r in fusion_results)
    unfused_memory = sum(
        0 if node.is_leaf else node.array_size(bindings)
        for root in forest
        for node in root.subtree()
        if node is not root
    )
    capacity = config.machine.level(config.capacity_level).capacity
    mem_report = StageReport(
        "Memory minimization",
        {
            "computation trees": len(forest),
            "unfused temporary memory": unfused_memory,
            "fused temporary memory": fused_memory,
            f"{config.capacity_level} capacity": capacity,
            "fits": str(fused_memory <= capacity),
        },
    )
    reports.append(mem_report)

    # -- stage 3: space-time transformation -------------------------------
    blocks: List[Block] = []
    if fused_memory <= capacity:
        for result in fusion_results:
            blocks.append(build_fused(result))
        reports.append(
            StageReport(
                "Space-time transformation",
                {"invoked": "no (memory minimization sufficed)"},
            )
        )
    else:
        st_report = StageReport("Space-time transformation", {"invoked": "yes"})
        remaining = capacity
        for root, result in zip(forest, fusion_results):
            if result.total_memory <= remaining // max(1, len(forest)):
                blocks.append(build_fused(result))
                continue
            try:
                frontier = tradeoff_search(
                    root, bindings, memory_limit=capacity, budget=tracker
                )
                solution = min(
                    (s for s in frontier if s.memory <= capacity),
                    key=lambda s: s.ops,
                    default=None,
                )
                if solution is None:
                    raise ValueError(
                        f"no space-time trade-off fits {root.array.name} "
                        f"into {capacity} elements"
                    )
                tiled = search_tile_sizes(
                    solution,
                    memory_limit=capacity,
                    bindings=bindings,
                    budget=tracker,
                )
            except BudgetExceeded as exc:
                tracker.degrade(
                    "spacetime",
                    exc,
                    "fused structure without space-time rewriting",
                )
                blocks.append(build_fused(result))
                st_report.details[f"{root.array.name}: degraded"] = "true"
                continue
            blocks.append(tiled.structure)
            st_report.details[f"{root.array.name}: pareto points"] = len(
                frontier
            )
            st_report.details[f"{root.array.name}: block size"] = (
                tiled.block_size
            )
            st_report.details[f"{root.array.name}: memory"] = tiled.memory
            st_report.details[f"{root.array.name}: ops"] = tiled.ops
        reports.append(st_report)

    structure: Block = tuple(n for blk in blocks for n in blk)
    structure_memory = total_memory(structure, bindings)
    structure_ops = loop_op_count(structure, bindings)

    # -- stage 4: data locality --------------------------------------------
    locality_tiles: Dict[str, int] = {}
    if config.optimize_cache:
        loc_report = StageReport(
            "Data locality optimization",
            {"cache capacity": config.machine.cache.capacity},
        )
        if config.optimize_order:
            from repro.locality.permute import optimize_loop_order

            perm = optimize_loop_order(
                structure, config.machine.cache.capacity, bindings
            )
            structure = perm.structure
            loc_report.details["loop-order modeled misses"] = (
                f"{perm.baseline_cost:,} -> {perm.cost:,}"
            )
        indices = tileable_indices(structure)
        indices = sorted(
            indices, key=lambda i: -i.extent(bindings)
        )[: config.locality_max_indices]
        loc = optimize_locality(
            structure,
            config.machine.cache.capacity,
            bindings,
            indices=indices,
            budget=tracker,
        )
        locality_tiles = {i.name: b for i, b in loc.tile_sizes.items()}
        structure = loc.structure
        loc_report.details.update(
            {
                "baseline modeled misses": loc.baseline_cost,
                "optimized modeled misses": loc.cost,
                "tile sizes": locality_tiles or "none needed",
                "candidates evaluated": loc.evaluated,
            }
        )
        reports.append(loc_report)
    else:
        reports.append(
            StageReport("Data locality optimization", {"invoked": "no"})
        )

    # -- stage 5: data distribution ----------------------------------------
    partition_plans: Dict[str, PartitionPlan] = {}
    grid = config.grid
    grid_note = None
    grid_table: List[Tuple[Tuple[int, ...], float]] = []
    if grid is None and config.processors is not None:
        # let the synthesis system pick the logical view: choose the
        # shape minimizing the whole-sequence (or first plannable
        # statement's) distribution cost
        from repro.parallel.gridsearch import choose_grid
        from repro.parallel.program_plan import sequence_tree

        trees = (
            sequence_tree(seq)
            for seq in [statements, *([stmt] for stmt in statements)]
        )
        tree = next((t for t in trees if t is not None), None)
        if tree is not None:
            choice = choose_grid(
                tree, config.processors, config.comm, bindings,
                budget=tracker,
            )
            grid = choice.grid
            grid_table = [
                (tuple(shape), float(cost)) for shape, cost in choice.table
            ]
            grid_note = (
                f"chose grid {grid} among "
                f"{len(choice.table)} shapes for {config.processors} "
                "processors"
            )
    if grid is not None:
        from repro.parallel.program_plan import plan_sequence

        part_report = StageReport(
            "Data distribution and partitioning",
            {"grid": str(grid), "processors": grid.size},
        )
        if grid_note:
            part_report.notes.append(grid_note)
        seq_plan = plan_sequence(
            statements, grid, config.comm, bindings, budget=tracker
        )
        from repro.expr.ast import Add

        partition_plans = dict(seq_plan.plans)
        planned = {name for name, _ in seq_plan.plans}
        for stmt in statements:
            if stmt.result.name not in planned and isinstance(stmt.expr, Add):
                part_report.notes.append(
                    f"{stmt.result.name}: multi-term combine kept data-local"
                )
        if len(seq_plan.plans) == 1 and len(statements) > 1:
            part_report.notes.append(
                "whole operator tree planned in one Section-7 DP run"
            )
        part_report.details["total modeled cost"] = seq_plan.total_cost
        reports.append(part_report)
    else:
        reports.append(
            StageReport(
                "Data distribution and partitioning",
                {"invoked": "no (sequential target)"},
            )
        )

    # -- sparsity dispatch (statements with declared-sparse operands) ------
    execution_plan = None
    sparsity_estimates: Dict[str, "SparsityEstimate"] = {}
    from repro.sparse.estimate import (
        has_sparse_operands,
        sequence_sparsity_estimates,
    )

    if has_sparse_operands(statements):
        sparsity_estimates = sequence_sparsity_estimates(
            statements, bindings
        )
        sp_report = StageReport(
            "Sparsity dispatch",
            {
                "sparse-aware minimization": str(config.sparse_aware),
            },
        )
        for name, est in sparsity_estimates.items():
            sp_report.details[f"{name}: est ops dense -> sparse"] = (
                f"{est.dense_ops:,} -> {est.sparse_ops:,} "
                f"({est.op_reduction:,.1f}x)"
            )
            sp_report.details[f"{name}: est memory words"] = (
                f"{est.dense_memory:,} -> {est.sparse_memory:,}"
            )
        if config.sparse_execution:
            from repro.codegen.dispatch import plan_execution

            execution_plan = plan_execution(statements, bindings, budget=tracker)
            sp_report.details["sparse-dispatched statements"] = len(
                execution_plan.sparse_statements
            )
            sp_report.details["loop-IR statements"] = len(
                execution_plan.dense_statements
            )
        else:
            sp_report.details["execution dispatch"] = (
                "off (sparse_execution=False); loop-IR path only"
            )
        reports.append(sp_report)

    # -- stage 6: code generation --------------------------------------------
    src = generate_source(structure, bindings, semiring=config.semiring)
    codegen_report = StageReport(
        "Code generation",
        {
            "operation count": structure_ops,
            "temporary memory (elements)": structure_memory,
            "peak memory (elements)": peak_memory(structure, bindings),
            "generated source lines": src.count("\n"),
        },
    )
    # kernel compilation: lower every statement once, at synthesis time,
    # so warm plan-cache hits carry fully planned execution kernels
    from repro.kernels import compile_kernel_plan

    codegen_mode = "gemm" if config.codegen == "auto" else config.codegen
    initial_notes: List[str] = []
    engine = None
    if codegen_mode == "native":
        from repro.kernels import default_engine

        engine = default_engine()
        if not engine.available():
            note = (
                "native codegen requested but "
                f"{engine.unavailable_reason()}; using the gemm lowering"
            )
            codegen_report.notes.append(note)
            initial_notes.append(note)
            codegen_mode = "gemm"
            engine = None

    kernel_plan = None
    native_artifacts: List[str] = []
    kernel_threads = config.kernel_threads or 1
    try:
        kernel_plan = compile_kernel_plan(
            statements, bindings, mode=codegen_mode,
            fuse=config.fuse_statements,
            semiring=config.semiring,
        )
    except (OverflowError, ValueError) as exc:
        codegen_report.notes.append(
            f"kernel plan not compiled ({exc}); execution falls back to "
            "per-call planning"
        )
    if kernel_plan is not None:
        codegen_report.details["codegen mode"] = codegen_mode
        if config.semiring != "plus_times":
            codegen_report.details["semiring"] = config.semiring
        codegen_report.details["kernel terms (gemm/copy/einsum)"] = (
            f"{kernel_plan.gemm_terms}/{kernel_plan.copy_terms}/"
            f"{kernel_plan.einsum_terms}"
        )
        if engine is not None:
            # precompile every distinct nest now, so the first execution
            # (and every warm process sharing the artifact store) never
            # pays a compiler fork at run time
            before = engine.stats()
            nests = [
                term.native
                for sp in kernel_plan.statements
                for term in sp.terms
                if term.native is not None
            ] + [group.spec for group in kernel_plan.fused_groups]
            distinct: Dict[str, object] = {}
            for nest in nests:
                distinct.setdefault(
                    engine.key(nest, np.float64, threads=kernel_threads),
                    nest,
                )

            def load(nest) -> bool:
                return engine.function(
                    nest, np.float64, threads=kernel_threads
                ) is not None

            # one compiler fork per distinct nest, side by side: the
            # engine coalesces per key and the fork releases the GIL
            if len(distinct) > 1:
                from concurrent.futures import ThreadPoolExecutor

                with ThreadPoolExecutor(min(len(distinct), 8)) as pool:
                    loaded = list(pool.map(load, distinct.values()))
            else:
                loaded = [load(nest) for nest in distinct.values()]
            compiled: Dict[str, bool] = dict(zip(distinct, loaded))
            native_artifacts = [k for k, ok in compiled.items() if ok]
            after = engine.stats()
            codegen_report.details["native backend"] = engine.backend
            for note in [engine.target_note()] + [
                engine.recovery(nest, np.float64, threads=kernel_threads)
                for nest in distinct.values()
            ]:
                if note is not None:
                    codegen_report.notes.append(note)
                    initial_notes.append(note)
            if kernel_threads > 1:
                codegen_report.details["kernel threads"] = kernel_threads
                codegen_report.details["parallel strategy"] = (
                    engine.parallel_strategy(kernel_threads)
                )
                par_note = engine.parallel_note(kernel_threads)
                if par_note is not None:
                    codegen_report.notes.append(par_note)
                    initial_notes.append(par_note)
            if kernel_plan.fused_groups:
                codegen_report.details["fused groups (statements)"] = (
                    f"{len(kernel_plan.fused_groups)}"
                    f" ({kernel_plan.fused_statements})"
                )
            codegen_report.details["native nests (compiled/lowered)"] = (
                f"{len(native_artifacts)}/{len(compiled)}"
            )
            codegen_report.details[
                "artifact store (compiles/warm loads)"
            ] = (
                f"{after['compile_invocations'] - before['compile_invocations']}"
                f"/{after['store_loads'] - before['store_loads']}"
            )
            failed = len(compiled) - len(native_artifacts)
            if failed:
                codegen_report.notes.append(
                    f"{failed} nests failed to compile and run on their "
                    "embedded gemm/einsum fallback"
                )
    reports.append(codegen_report)

    if tracker is not None:
        _annotate_degradations(reports, tracker)

    return SynthesisResult(
        program,
        config,
        statements,
        structure,
        src,
        reports,
        partition_plans,
        locality_tiles,
        execution_plan,
        sparsity_estimates,
        tracker,
        kernel_plan=kernel_plan,
        grid_table=grid_table,
        codegen_mode=codegen_mode,
        native_artifacts=native_artifacts,
        synthesis_notes=initial_notes,
    )


#: budget stage key -> pipeline stage report title
_STAGE_TITLES = {
    "opmin": "Algebraic transformations",
    "fusion": "Memory minimization",
    "spacetime": "Space-time transformation",
    "locality": "Data locality optimization",
    "distribution": "Data distribution and partitioning",
}


def _annotate_degradations(
    reports: List[StageReport], tracker: BudgetTracker
) -> None:
    """Record budget fallbacks on the stage reports that took them."""
    by_title = {r.name: r for r in reports}
    for deg in tracker.degradations:
        report = by_title.get(_STAGE_TITLES.get(deg.stage, ""))
        if report is None:
            continue
        report.details["degraded"] = "true"
        report.notes.append(
            f"budget exhausted ({deg.reason}); fell back to {deg.fallback}"
        )
