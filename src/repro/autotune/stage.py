"""The autotuning pipeline stage.

:func:`run_autotune` sits after the six analytical stages (an opt-in
seventh box on the paper's Fig. 5): it takes the synthesized result,
measures the analytical searches' top candidates on the actual machine
(:mod:`repro.autotune.candidates` / :mod:`repro.autotune.measure`),
applies the measured winners, and appends an ``"Autotuning"``
:class:`~repro.report.StageReport` recording per-candidate timings, the
analytical-vs-measured rank disagreement, the trial counters, and the
budget status.

With a :class:`~repro.autotune.db.TuningDB`, decisions persist under a
content-addressed key of program + configuration + machine signature:
a warm hit re-applies the stored winners with **zero** measurement runs
(the stage report's ``measurement runs`` counter proves it).

Budgets: measurement charges the ``"tuning"`` stage of a
:class:`~repro.robustness.budget.Budget`.  On exhaustion the stage
keeps whatever winners it already applied, falls back to the analytical
choice for every unmeasured dimension, and reports ``degraded: true``
-- it never raises, even under ``strict`` budgets, because measurement
is advisory: the analytical result is always a correct answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.report import StageReport
from repro.robustness.budget import Budget
from repro.robustness.errors import BudgetExceeded

from repro.autotune.candidates import build_tuners
from repro.autotune.db import TuningDB, machine_signature, tuning_key
from repro.autotune.measure import Measurer

__all__ = ["AutotuneOptions", "TuningDecisions", "run_autotune"]


@dataclass
class AutotuneOptions:
    """Knobs of the autotuning stage.

    ``trials``/``warmup`` set the per-candidate measurement protocol;
    ``top_k`` caps how many analytical candidates per dimension are
    measured; ``db`` enables the persistent
    :class:`~repro.autotune.db.TuningDB`; ``budget`` bounds the whole
    stage (wall clock and/or run count); ``timer`` is injectable for
    deterministic tests; ``seed`` fixes the synthetic measurement
    inputs.
    """

    trials: int = 3
    warmup: int = 1
    top_k: int = 4
    db: Optional[TuningDB] = None
    budget: Optional[Budget] = None
    seed: int = 0
    timer: Callable[[], int] = time.perf_counter_ns


@dataclass
class TuningDecisions:
    """The decisions in effect on a tuned result (pickle-safe).

    ``source`` says where they came from: ``"measured"`` (fresh
    micro-runs), ``"db:memory"``/``"db:disk"`` (TuningDB hit), or
    ``"analytical"`` (nothing measured -- skipped or fully degraded).
    ``None`` fields mean the dimension was not tuned and the analytical
    choice stands.
    """

    source: str = "analytical"
    kernel_mode: Optional[str] = None
    grid: Optional[Tuple[int, ...]] = None
    #: measured native-nest thread count (kernel_runner()'s default
    #: when the config does not pin one)
    threads: Optional[int] = None
    degraded: bool = False

    def as_payload(self) -> Dict[str, object]:
        """JSON-able decision mapping for the TuningDB."""
        out: Dict[str, object] = {}
        if self.kernel_mode is not None:
            out["kernel"] = self.kernel_mode
        if self.grid is not None:
            out["grid"] = list(self.grid)
        if self.threads is not None:
            out["threads"] = self.threads
        return out


def _absorb(decisions: TuningDecisions, dimension: str, payload) -> None:
    if dimension == "kernel":
        decisions.kernel_mode = payload
    elif dimension == "grid":
        decisions.grid = tuple(payload)
    elif dimension == "threads":
        decisions.threads = int(payload)


def _apply_record(result, config, options, record, tier) -> StageReport:
    """Warm-hit path: re-apply stored decisions, measure nothing."""
    decisions = TuningDecisions(source=f"db:{tier}")
    tuners = {
        t.dimension: t
        for t in build_tuners(result, config, None, options)
    }
    applied: List[str] = []
    payloads = record.get("decisions", {})
    for dimension, payload in sorted(payloads.items()):
        tuner = tuners.get(dimension)
        if tuner is not None and tuner.apply_payload(payload):
            _absorb(decisions, dimension, payload)
            applied.append(dimension)
    result.tuning = decisions
    report = StageReport(
        "Autotuning",
        {
            "hit": tier,
            "decisions applied": ", ".join(applied) or "none",
            "measurement runs": 0,
            "degraded": "false",
        },
    )
    if options.db is not None:
        report.details["database"] = options.db.describe()
    return report


def run_autotune(result, config, options: AutotuneOptions) -> StageReport:
    """Tune ``result`` in place; returns the appended stage report.

    ``result`` must be the caller's own: ``synthesize()`` passes the
    copy it is about to return, never the plan cache's stored result,
    so tuning never reaches another caller."""
    report = StageReport("Autotuning")
    signature = machine_signature(config.machine)
    key = tuning_key(result.program, config, signature)
    report.details["key"] = key[:16]

    if options.db is not None:
        hit = options.db.get(key, signature=signature)
        if hit is not None:
            record, tier = hit
            report = _apply_record(result, config, options, record, tier)
            report.details["key"] = key[:16]
            result.reports.append(report)
            return report

    decisions = TuningDecisions(source="measured")
    if any(t.is_function for t in result.program.tensors()):
        decisions.source = "analytical"
        result.tuning = decisions
        report.details["invoked"] = (
            "no (program declares function tensors; cannot synthesize "
            "measurement inputs)"
        )
        report.details["measurement runs"] = 0
        report.details["degraded"] = "false"
        result.reports.append(report)
        return report

    from repro.engine.executor import random_inputs

    inputs = random_inputs(
        result.program, config.bindings, seed=options.seed
    )
    tracker = (
        options.budget.start() if options.budget is not None else None
    )
    measurer = Measurer(
        warmup=options.warmup,
        repeats=options.trials,
        timer=options.timer,
        tracker=tracker,
    )
    tuners = build_tuners(result, config, inputs, options)
    disagreements = 0
    measured_dims = 0
    degraded_dims: List[str] = []
    for tuner in tuners:
        dim = tuner.dimension
        try:
            cands = tuner.candidates()
            if len(cands) < 2:
                report.details[f"{dim}: chosen"] = (
                    f"{cands[0].label} (only candidate)"
                    if cands
                    else "no candidates"
                )
                continue
            timings = []
            for cand in cands:
                m = measurer.measure(cand.label, tuner.runner(cand))
                timings.append((cand, m))
                report.details[f"{dim}: {cand.label}"] = (
                    f"{m.median_ms:.3f} ms"
                    + (f" ({m.rejected} outliers)" if m.rejected else "")
                )
        except BudgetExceeded as exc:
            degraded_dims.append(dim)
            report.details[f"{dim}: chosen"] = (
                "analytical (budget exhausted)"
            )
            report.notes.append(
                f"{dim}: budget exhausted ({exc.message}); "
                "fell back to the analytical choice"
            )
            continue
        winner, winner_m = min(timings, key=lambda t: t[1].median_ns)
        analytical = tuner.analytical_candidate(cands)
        analytical_m = next(
            m for c, m in timings if c is analytical
        )
        tuner.apply(winner)
        _absorb(decisions, dim, winner.payload)
        measured_dims += 1
        if winner is not analytical:
            disagreements += 1
            speedup = (
                analytical_m.median_ns / winner_m.median_ns
                if winner_m.median_ns
                else float("inf")
            )
            report.details[f"{dim}: chosen"] = (
                f"{winner.label} (model ranked {analytical.label}; "
                f"measured {speedup:.2f}x faster)"
            )
        else:
            report.details[f"{dim}: chosen"] = (
                f"{winner.label} (agrees with the model)"
            )

    decisions.degraded = bool(degraded_dims)
    if not measured_dims and not degraded_dims:
        decisions.source = "analytical"
    result.tuning = decisions

    report.details["dimensions measured"] = measured_dims
    report.details["rank disagreements"] = (
        f"{disagreements}/{measured_dims}" if measured_dims else "0/0"
    )
    report.details["measurement runs"] = measurer.total_runs
    report.details["degraded"] = (
        "true" if degraded_dims else "false"
    )
    if tracker is not None:
        report.details["budget nodes charged"] = tracker.nodes

    if (
        options.db is not None
        and measured_dims
        and not degraded_dims
    ):
        from repro import __version__

        options.db.put(
            key,
            {
                "version": __version__,
                "signature": signature,
                "decisions": decisions.as_payload(),
                "protocol": {
                    "warmup": options.warmup,
                    "trials": options.trials,
                    "top_k": options.top_k,
                    "seed": options.seed,
                },
            },
        )
        report.details["hit"] = "miss (measured and stored)"
        report.details["database"] = options.db.describe()
    elif options.db is not None:
        report.details["hit"] = "miss (not stored: degraded or unmeasured)"
        report.details["database"] = options.db.describe()

    result.reports.append(report)
    return report
