"""Empirical autotuning: measure the model's top candidates, remember
the winners.

The code generation and distribution stages pick a kernel lowering, a
thread count and a processor grid from purely analytical rules (the
paper's Section-7 DP, a fixed lowering ladder).  On real hardware those
misrank candidates that differ in GEMM shape, thread scaling, or
message pattern.  This package closes the gap the way SparseAuto and
CoNST do -- analytical candidate generation, empirical selection -- and
every stopwatch is on code that ships (``KernelRunner.run``, the SPMD
session):

* :mod:`repro.autotune.candidates` -- the top-K candidates of each
  analytical search (kernel lowering variants, native thread counts,
  grid shapes), each wrapped as a measurable runner;
* :mod:`repro.autotune.measure` -- timed micro-runs with warmup,
  repetition, median-of-N ``perf_counter_ns`` timing, and outlier
  rejection, charged against a shared search budget;
* :mod:`repro.autotune.db` -- the persistent :class:`TuningDB`:
  content-addressed records (program + config + machine signature)
  in an in-memory LRU over an atomic on-disk JSON tier, so repeat
  syntheses skip measurement entirely;
* :mod:`repro.autotune.stage` -- the opt-in pipeline stage
  (``synthesize(..., autotune=...)``, CLI ``--autotune``) that applies
  measured winners and reports timings, rank disagreements, and
  budget degradation.
"""

from repro.autotune.db import TuningDB, machine_signature, tuning_key
from repro.autotune.measure import Measurement, Measurer
from repro.autotune.stage import (
    AutotuneOptions,
    TuningDecisions,
    run_autotune,
)

__all__ = [
    "AutotuneOptions",
    "Measurement",
    "Measurer",
    "TuningDB",
    "TuningDecisions",
    "machine_signature",
    "run_autotune",
    "tuning_key",
]
