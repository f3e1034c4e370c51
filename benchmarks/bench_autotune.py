"""E20: empirical autotuning vs the analytical choice alone.

Every stopwatch the tuner holds is on code that ships -- a steady-state
``KernelRunner.run`` for the ``kernel`` and ``threads`` dimensions, the
SPMD session for ``grid`` -- so the claim is the one measurement can
actually back: **the measured choice is never slower than the
analytical one** (beyond noise), because the analytical choice is always
in the measured candidate set.  Two workloads, one per sequential
dimension:

* **CCSD doubles GEMM plan** -- the ``kernel`` dimension (compiled GEMM
  lowering vs the cached einsum path vs native nests where a compiler
  exists) is measured per machine instead of assumed;
* **Fig. 1 native nests** -- the ``threads`` dimension (1 / 2 / half /
  all cores) on compiled nests.  Needs a C compiler and two cores; on a
  box without them the leg says "skipped", never "passed".

Plus the persistence claim: a warm :class:`~repro.autotune.db.TuningDB`
hit re-applies the stored decisions with **zero** measurement runs.

Ceiling: ``E20_MAX_SLOWDOWN`` (default 1.25: measured / analytical wall
time; the CI perf smoke relaxes it for shared-runner noise).
"""

from __future__ import annotations

import os
import time

import pytest

from repro import AutotuneOptions, SynthesisConfig, TuningDB, synthesize
from repro.chem.workloads import ccsd_doubles_program, fig1_formula_sequence
from repro.engine.executor import random_inputs
from repro.expr.printer import program_to_source
from repro.kernels import native_available

MAX_SLOWDOWN = float(os.environ.get("E20_MAX_SLOWDOWN", "1.25"))

CCSD_SRC = program_to_source(ccsd_doubles_program(V=16, O=5))
FIG1_SRC = program_to_source(fig1_formula_sequence(V=16, O=4))


def _best(fn, repeats: int = 7) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def _report(result):
    return next(r for r in result.reports if r.name == "Autotuning")


def _analytical_vs_measured(source: str, config: SynthesisConfig):
    """Steady-state runner wall time of the analytical result and of
    the tuned one, and the tuned result."""
    base = synthesize(source, config)
    tuned = synthesize(source, config, autotune=AutotuneOptions(trials=3))
    inputs = random_inputs(base.program, None, seed=0)
    runner_a, runner_t = base.kernel_runner(), tuned.kernel_runner()
    runner_a.run(inputs), runner_t.run(inputs)  # warm
    t_a = _best(lambda: runner_a.run(inputs))
    t_t = _best(lambda: runner_t.run(inputs))
    return t_a, t_t, base, tuned


class TestE20Autotune:
    def test_measured_choice_is_never_slower(self, record_rows):
        """The E20 headline: wall time of the analytical choice vs the
        measured choice, per tuned dimension."""
        rows = []
        metrics = {"max_slowdown_ceiling": MAX_SLOWDOWN}
        ratios = {}

        # -- kernel dimension: CCSD doubles GEMM plan --
        t_a, t_t, base, tuned = _analytical_vs_measured(
            CCSD_SRC, SynthesisConfig()
        )
        ratios["kernel"] = t_t / t_a
        rows.append([
            "kernel", "CCSD doubles (V=16, O=5)",
            base.kernel_plan.mode, tuned.kernel_plan.mode,
            f"{t_a * 1e3:.3f}", f"{t_t * 1e3:.3f}", f"{t_t / t_a:.2f}x",
        ])
        metrics["kernel_analytical_s"] = t_a
        metrics["kernel_measured_s"] = t_t
        metrics["kernel_mode"] = tuned.kernel_plan.mode

        # -- threads dimension: Fig. 1 as native nests --
        if not native_available():
            skipped = "no C compiler"
        elif (os.cpu_count() or 1) < 2:
            skipped = "nproc < 2"
        else:
            skipped = None
        if skipped is None:
            t_a, t_t, base, tuned = _analytical_vs_measured(
                FIG1_SRC, SynthesisConfig(codegen="native")
            )
            ratios["threads"] = t_t / t_a
            rows.append([
                "threads", "Fig. 1 (V=16, O=4) native",
                "1", str(tuned.tuning.threads),
                f"{t_a * 1e3:.3f}", f"{t_t * 1e3:.3f}",
                f"{t_t / t_a:.2f}x",
            ])
            metrics["threads_analytical_s"] = t_a
            metrics["threads_measured_s"] = t_t
            metrics["threads_chosen"] = tuned.tuning.threads
        else:
            rows.append([
                "threads", "Fig. 1 (V=16, O=4) native",
                "1", f"skipped ({skipped})", "-", "-", "-",
            ])
            metrics["threads_skipped"] = skipped

        record_rows(
            "E20: analytical vs measured (autotuned) execution",
            ["dimension", "workload", "analytical", "measured",
             "analytical ms", "measured ms", "measured / analytical"],
            rows,
            metrics=metrics,
        )
        for dimension, ratio in ratios.items():
            assert ratio <= MAX_SLOWDOWN, (
                f"{dimension}: the measured choice ran {ratio:.2f}x the "
                f"analytical one's time (ceiling {MAX_SLOWDOWN}x)"
            )
        if skipped is not None:
            pytest.skip(f"threads dimension not measured: {skipped}")

    def test_warm_db_skips_all_measurement(self, tmp_path, record_rows):
        """Cold run measures and stores; warm run applies the stored
        decisions with zero measurement runs."""
        db = TuningDB(directory=str(tmp_path))

        t0 = time.perf_counter()
        cold = synthesize(
            CCSD_SRC, autotune=AutotuneOptions(trials=3, db=db)
        )
        cold_s = time.perf_counter() - t0
        cold_runs = _report(cold).details["measurement runs"]

        t0 = time.perf_counter()
        warm = synthesize(
            CCSD_SRC, autotune=AutotuneOptions(trials=3, db=db)
        )
        warm_s = time.perf_counter() - t0
        warm_runs = _report(warm).details["measurement runs"]

        record_rows(
            "E20: TuningDB cold vs warm synthesis",
            ["run", "synthesis s", "measurement runs", "decision source"],
            [
                ["cold", f"{cold_s:.3f}", cold_runs, cold.tuning.source],
                ["warm", f"{warm_s:.3f}", warm_runs, warm.tuning.source],
            ],
            metrics={
                "cold_s": cold_s,
                "warm_s": warm_s,
                "cold_measurement_runs": cold_runs,
                "warm_measurement_runs": warm_runs,
                "warm_speedup": cold_s / warm_s if warm_s else float("inf"),
            },
        )
        assert cold_runs > 0
        assert warm_runs == 0
        assert warm.tuning.source.startswith("db:")
        assert warm.tuning.kernel_mode == cold.tuning.kernel_mode
        assert warm.tuning.threads == cold.tuning.threads
