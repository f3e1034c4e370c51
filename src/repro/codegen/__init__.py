"""Loop-nest IR and code generation.

The memory-minimization, space-time, and data-locality stages all reason
about *imperfectly nested loop structures* (paper Figs. 1(c), 2, 3, 4).
This package provides:

* :mod:`repro.codegen.loops` -- the loop IR (loops, allocations,
  assignment statements, tiled loop variables) and static analyses
  (operation count, memory usage, distinct-access counts);
* :mod:`repro.codegen.builder` -- construction of loop structures from
  formula sequences, application of fusion configurations and tiling;
* :mod:`repro.codegen.interp` -- an interpreter that executes the IR and
  tallies measured counters;
* :mod:`repro.codegen.pygen` -- Python source generation from the IR;
* :mod:`repro.codegen.dispatch` -- mixed dense/sparse execution plans
  routing statements with declared-sparse operands to the sparse
  executor while dense statements keep the loop-IR path.
"""

from repro.codegen.loops import (
    Access,
    Alloc,
    Assign,
    Block,
    Loop,
    LoopVar,
    Node,
    ZeroArr,
    array_sizes,
    loop_op_count,
    peak_memory,
    render,
    total_memory,
)
from repro.codegen.builder import (
    build_unfused,
    build_fused,
    apply_tiling,
)
from repro.codegen.interp import execute
from repro.codegen.pygen import generate_source, compile_loops
from repro.codegen.dispatch import (
    DenseSegment,
    ExecutionPlan,
    SparseSegment,
    execute_plan,
    plan_execution,
)

__all__ = [
    "Access",
    "Alloc",
    "Assign",
    "Block",
    "Loop",
    "LoopVar",
    "Node",
    "ZeroArr",
    "array_sizes",
    "loop_op_count",
    "peak_memory",
    "total_memory",
    "render",
    "build_unfused",
    "build_fused",
    "apply_tiling",
    "execute",
    "generate_source",
    "compile_loops",
    "ExecutionPlan",
    "DenseSegment",
    "SparseSegment",
    "plan_execution",
    "execute_plan",
]
