"""Execution substrates: reference evaluator, machine model, counters,
and the out-of-core executor."""

from repro.engine.counters import Counters
from repro.engine.executor import (
    evaluate_expression,
    random_inputs,
    run_statements,
)
from repro.engine.machine import MachineModel
from repro.engine.outofcore import (
    OOCStats,
    PagedBufferPool,
    simulate_out_of_core,
)

__all__ = [
    "Counters",
    "evaluate_expression",
    "random_inputs",
    "run_statements",
    "MachineModel",
    "OOCStats",
    "PagedBufferPool",
    "simulate_out_of_core",
]
