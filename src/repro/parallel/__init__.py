"""Data distribution and communication minimization (paper Section 7).

A logical n-dimensional processor grid executes the operator tree one
node at a time (intra-node data parallelism).  Arrays are distributed by
*n-tuples* whose positions name an index variable (that array dimension
is block-distributed along the processor dimension), ``*`` (replicated),
or ``1`` (only processors with coordinate 0 on that dimension hold
data).

Modules:

* :mod:`repro.parallel.grid` -- processor grids and block ranges;
* :mod:`repro.parallel.dist` -- distribution n-tuples, local shapes,
  ownership masks;
* :mod:`repro.parallel.ptree` -- the expression tree with explicit
  multiplication and summation nodes that the Section-7 DP runs on;
* :mod:`repro.parallel.commcost` -- CalcCost / MoveCost / reduction cost
  models (receive-volume semantics) and ``plan_traffic``, the per-rank
  receives and operations of a whole plan;
* :mod:`repro.parallel.partition` -- the dynamic-programming algorithm
  of Section 7 (``Cost(v, alpha)`` tables, ``Dist`` backtrace);
* :mod:`repro.parallel.spmd` / :mod:`repro.parallel.session` -- the
  plan lowered to per-rank SPMD programs and run in bulk-synchronous
  rounds, in process or on worker processes; what it sends plus what
  its input placement spares is ``plan_traffic``'s total receive count.
"""

from repro.parallel.grid import ProcessorGrid, myrange
from repro.parallel.dist import REPLICATED, SINGLE, Distribution
from repro.parallel.ptree import PLeaf, PMul, PNode, PSum, expression_to_ptree
from repro.parallel.commcost import CommModel
from repro.parallel.partition import PartitionPlan, optimize_distribution
from repro.parallel.program_plan import SequencePlan, plan_sequence
from repro.parallel.gridsearch import GridChoice, choose_grid, grid_shapes
from repro.parallel.spmd import (
    LocalComm,
    SpmdRun,
    SpmdSequenceRun,
    compile_schedule,
    generate_spmd_source,
    run_spmd,
)

__all__ = [
    "ProcessorGrid",
    "myrange",
    "REPLICATED",
    "SINGLE",
    "Distribution",
    "PLeaf",
    "PMul",
    "PSum",
    "PNode",
    "expression_to_ptree",
    "CommModel",
    "PartitionPlan",
    "optimize_distribution",
    "SequencePlan",
    "plan_sequence",
    "GridChoice",
    "choose_grid",
    "grid_shapes",
    "LocalComm",
    "SpmdRun",
    "SpmdSequenceRun",
    "compile_schedule",
    "generate_spmd_source",
    "run_spmd",
]
