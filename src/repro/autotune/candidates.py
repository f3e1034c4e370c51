"""Candidate generation: the analytical searches' pareto heads.

The autotuner never invents candidates -- it re-ranks the *top-K* of
what the analytical stages already searched, which is what keeps
measurement cheap (SparseAuto's insight: prune with the model, decide
with the stopwatch).  One :class:`DimensionTuner` per tunable decision:

``kernel``
    the kernel lowering variants -- GEMM lowering vs the cached einsum
    path (:func:`repro.kernels.plan.compile_kernel_plan` modes) --
    timed through a steady-state :class:`~repro.kernels.plan.KernelRunner`;
``grid``
    the Section-7 grid-shape DP's cheapest shapes
    (:func:`repro.parallel.gridsearch.top_shapes`), re-planned and
    timed through the SPMD session;
``threads``
    the native nest thread count (1 / 2 / half / all cores), timed
    through steady-state runners built at each count -- thread scaling
    depends on nest shape and memory bandwidth, which no static model
    here prices.

Each tuner yields :class:`Candidate` objects carrying the analytical
model's cost (for the rank-disagreement report), builds a no-argument
runner per candidate for the :class:`~repro.autotune.measure.Measurer`,
and knows how to apply a winner to the
:class:`~repro.pipeline.SynthesisResult` and how to reconstruct that
application from a persisted decision payload.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

__all__ = [
    "Candidate",
    "DimensionTuner",
    "KernelTuner",
    "GridTuner",
    "ThreadsTuner",
    "build_tuners",
]


@dataclass
class Candidate:
    """One measurable choice within a dimension."""

    label: str
    #: JSON-able decision payload (what the TuningDB stores)
    payload: object
    #: the analytical model's cost for this candidate (rank reporting)
    model_cost: float = 0.0
    #: True for the choice the analytical pipeline already made
    analytical: bool = False


class DimensionTuner:
    """One tunable decision: candidates, runners, application."""

    dimension: str = ""

    def candidates(self) -> List[Candidate]:
        raise NotImplementedError

    def runner(self, cand: Candidate) -> Callable[[], object]:
        raise NotImplementedError

    def apply(self, cand: Candidate) -> None:
        raise NotImplementedError

    def apply_payload(self, payload: object) -> bool:
        """Re-apply a persisted decision; False if it no longer maps."""
        for cand in self.candidates():
            if cand.payload == payload:
                self.apply(cand)
                return True
        return False

    def analytical_candidate(self, cands: List[Candidate]) -> Candidate:
        for cand in cands:
            if cand.analytical:
                return cand
        return min(cands, key=lambda c: c.model_cost)


class KernelTuner(DimensionTuner):
    """Kernel codegen target, per whole sequence: GEMM lowering vs the
    cached einsum path vs compiled native loop nests (the native
    candidate only appears on machines with a working backend, so a
    TuningDB decision for it can never be replayed where it cannot
    run -- and the machine signature's compiler fingerprint keys it)."""

    dimension = "kernel"

    def __init__(self, result, inputs) -> None:
        self.result = result
        self.inputs = inputs
        self._plans: Dict[str, object] = {}
        self._runners: Dict[str, object] = {}

    def active(self) -> bool:
        plan = self.result.kernel_plan
        return plan is not None and plan.gemm_terms > 0

    def _plan(self, mode: str):
        from repro.kernels import compile_kernel_plan

        plan = self._plans.get(mode)
        if plan is None:
            current = self.result.kernel_plan
            if current is not None and current.mode == mode:
                plan = current
            else:
                config = self.result.config
                plan = compile_kernel_plan(
                    self.result.statements,
                    config.bindings,
                    mode=mode,
                    fuse=config.fuse_statements,
                    semiring=config.semiring,
                )
            self._plans[mode] = plan
        return plan

    def candidates(self) -> List[Candidate]:
        from repro.kernels import native_available

        plan = self.result.kernel_plan
        current = plan.mode if plan is not None else "gemm"
        out = [
            Candidate(
                "kernel gemm", "gemm", 0.0, analytical=(current == "gemm")
            ),
            Candidate(
                "kernel einsum", "einsum", 1.0,
                analytical=(current == "einsum"),
            ),
        ]
        if native_available():
            out.append(
                Candidate(
                    "kernel native", "native", 0.5,
                    analytical=(current == "native"),
                )
            )
        return out

    def runner(self, cand: Candidate) -> Callable[[], object]:
        from repro.kernels.plan import KernelRunner

        mode = cand.payload
        runner = self._runners.get(mode)
        if runner is None:
            runner = KernelRunner(self._plan(mode))
            self._runners[mode] = runner
        inputs = self.inputs
        return lambda: runner.run(inputs)

    def apply(self, cand: Candidate) -> None:
        self.result.kernel_plan = self._plan(cand.payload)
        self.result.codegen_mode = cand.payload


class GridTuner(DimensionTuner):
    """Section-7 logical grid shapes, re-ranked by SPMD wall time."""

    dimension = "grid"

    def __init__(self, result, config, inputs, top_k: int) -> None:
        self.result = result
        self.config = config
        self.inputs = inputs
        self.top_k = top_k
        self._plans: Dict[Tuple[int, ...], Dict[str, object]] = {}

    def active(self) -> bool:
        return (
            self.config.processors is not None
            and len(self.result.grid_table) > 1
            and bool(self.result.partition_plans)
        )

    def _plans_for(self, shape: Tuple[int, ...]):
        from repro.parallel.grid import ProcessorGrid
        from repro.parallel.program_plan import plan_sequence

        plans = self._plans.get(shape)
        if plans is None:
            seq_plan = plan_sequence(
                self.result.statements,
                ProcessorGrid(shape),
                self.config.comm,
                self.config.bindings,
            )
            plans = dict(seq_plan.plans)
            self._plans[shape] = plans
        return plans

    def candidates(self) -> List[Candidate]:
        from repro.parallel.gridsearch import top_shapes

        chosen = tuple(
            next(iter(self.result.partition_plans.values())).grid.dims
        )
        costs = {tuple(s): c for s, c in self.result.grid_table}
        out = []
        for shape in top_shapes(self.result.grid_table, self.top_k):
            shape = tuple(shape)
            if not self._plans_for(shape):
                continue
            out.append(
                Candidate(
                    "grid " + "x".join(str(d) for d in shape),
                    list(shape),
                    model_cost=float(costs.get(shape, 0.0)),
                    analytical=(shape == chosen),
                )
            )
        return out

    def runner(self, cand: Candidate) -> Callable[[], object]:
        plans = self._plans_for(tuple(cand.payload))
        result, inputs = self.result, self.inputs

        def run():
            saved = result.partition_plans
            result.partition_plans = plans
            try:
                return result.run_parallel(inputs, backend="local")
            finally:
                result.partition_plans = saved

        return run

    def apply(self, cand: Candidate) -> None:
        self.result.partition_plans = self._plans_for(tuple(cand.payload))


class ThreadsTuner(DimensionTuner):
    """Native nest thread count (1 / 2 / half / all cores).

    Only active when the compiled plan actually carries native nests and
    a backend exists to run them.  Candidates above ``os.cpu_count()``
    are never offered, so a persisted decision replayed on a smaller
    machine falls back to the analytical default (threads=1) instead of
    oversubscribing.  An explicit ``SynthesisConfig.kernel_threads``
    disables the tuner -- the user already decided.
    """

    dimension = "threads"

    def __init__(self, result, inputs) -> None:
        self.result = result
        self.inputs = inputs
        self._runners: Dict[int, object] = {}

    def active(self) -> bool:
        from repro.kernels import native_available

        plan = self.result.kernel_plan
        return (
            plan is not None
            and plan.native_terms > 0
            and self.result.config.kernel_threads is None
            and native_available()
        )

    def candidates(self) -> List[Candidate]:
        ncpu = os.cpu_count() or 1
        counts = sorted(
            t for t in {1, 2, max(1, ncpu // 2), ncpu} if t <= ncpu
        )
        return [
            Candidate(
                f"threads={t}",
                t,
                model_cost=float(t != 1),
                analytical=(t == 1),
            )
            for t in counts
        ]

    def runner(self, cand: Candidate) -> Callable[[], object]:
        from repro.kernels.plan import KernelRunner

        threads = cand.payload
        runner = self._runners.get(threads)
        if runner is None:
            runner = KernelRunner(
                self.result.kernel_plan, threads=threads
            )
            self._runners[threads] = runner
        inputs = self.inputs
        return lambda: runner.run(inputs)

    def apply(self, cand: Candidate) -> None:
        # the decision lands in result.tuning.threads, which
        # kernel_runner() reads as its default; nothing structural
        pass


def build_tuners(result, config, inputs, options) -> List[DimensionTuner]:
    """The active tuners for one synthesis result, in a fixed order."""
    tuners: List[DimensionTuner] = [
        KernelTuner(result, inputs),
        ThreadsTuner(result, inputs),
        GridTuner(result, config, inputs, options.top_k),
    ]
    return [t for t in tuners if t.active()]
