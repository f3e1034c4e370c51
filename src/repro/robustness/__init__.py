"""Robustness layer: error taxonomy, search budgets with graceful
degradation, input validation, checkpoint/restart, and fault injection.

See ``docs/architecture.md`` ("The robustness layer") for how these
pieces thread through the pipeline.
"""

from repro.robustness.budget import (
    Budget,
    BudgetTracker,
    Degradation,
    as_tracker,
)
from repro.robustness.checkpoint import (
    checkpoint_path,
    clear_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.robustness.errors import (
    BudgetExceeded,
    CheckpointError,
    CommFailure,
    DeadlineExceeded,
    InjectedFault,
    PlanError,
    ReproError,
    ShapeError,
    SpecError,
)
from repro.robustness.faults import (
    ChaosSchedule,
    ChaosState,
    FaultSchedule,
    parse_chaos_spec,
    parse_fault_spec,
)
from repro.robustness.validation import (
    expected_input_shapes,
    validate_block_inputs,
    validate_env,
    validate_shapes,
)

__all__ = [
    "Budget",
    "BudgetTracker",
    "BudgetExceeded",
    "ChaosSchedule",
    "ChaosState",
    "CheckpointError",
    "CommFailure",
    "DeadlineExceeded",
    "Degradation",
    "FaultSchedule",
    "InjectedFault",
    "PlanError",
    "ReproError",
    "ShapeError",
    "SpecError",
    "as_tracker",
    "checkpoint_path",
    "clear_checkpoint",
    "expected_input_shapes",
    "load_checkpoint",
    "parse_chaos_spec",
    "parse_fault_spec",
    "save_checkpoint",
    "validate_block_inputs",
    "validate_env",
    "validate_shapes",
]
