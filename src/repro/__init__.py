"""repro -- reproduction of the IPPS 2002 Tensor Contraction Engine
performance-optimization framework (Baumgartner, Cociorva, Lam,
Ramanujam: "A Performance Optimization Framework for Compilation of
Tensor Contraction Expressions into Parallel Programs").

Quickstart::

    from repro import synthesize, SynthesisConfig

    result = synthesize('''
        range V = 10;  range O = 4;
        index a, b, c, d, e, f : V;
        index i, j, k, l : O;
        tensor A(a, c, i, k); tensor B(b, e, f, l);
        tensor C(d, f, j, k); tensor D(c, d, e, l);
        S(a, b, i, j) = sum(c, d, e, f, k, l)
            A(a,c,i,k) * B(b,e,f,l) * C(d,f,j,k) * D(c,d,e,l);
    ''')
    print(result.describe())
    print(result.render_structure())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from repro.pipeline import SynthesisConfig, SynthesisResult, synthesize
from repro.engine.machine import MachineModel, MemoryLevel
from repro.parallel.grid import ProcessorGrid
from repro.parallel.commcost import CommModel

__version__ = "1.5.0"

__all__ = [
    "synthesize",
    "SynthesisConfig",
    "SynthesisResult",
    "MachineModel",
    "MemoryLevel",
    "ProcessorGrid",
    "CommModel",
    "__version__",
]

# secondary public surface (stable import points for library users)
from repro.autotune import AutotuneOptions, TuningDB
from repro.runtime.plan_cache import PlanCache
from repro.kernels import BufferArena, KernelPlan, KernelRunner, compile_kernel_plan
from repro.engine.executor import evaluate_expression, random_inputs, run_statements
from repro.engine.counters import Counters
from repro.expr.parser import parse_program
from repro.expr.printer import program_to_source
from repro.opmin.multi_term import optimize_program, optimize_statement
from repro.opmin.schedule import schedule_statements
from repro.semiring import (
    Semiring,
    available_semirings,
    get_semiring,
    semiring_einsum,
)
from repro.validate import verify_result

__all__ += [
    "Semiring",
    "available_semirings",
    "get_semiring",
    "semiring_einsum",
    "AutotuneOptions",
    "TuningDB",
    "PlanCache",
    "BufferArena",
    "KernelPlan",
    "KernelRunner",
    "compile_kernel_plan",
    "evaluate_expression",
    "random_inputs",
    "run_statements",
    "Counters",
    "parse_program",
    "program_to_source",
    "optimize_program",
    "optimize_statement",
    "schedule_statements",
    "verify_result",
]
