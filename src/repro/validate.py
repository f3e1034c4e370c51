"""Cross-validation helpers.

``verify_result`` runs a synthesis result through its execution paths
-- the reference einsum executor on the original program, the substrate
that ships (:meth:`~repro.pipeline.SynthesisResult.run`: compiled
kernels unless the program is sparse or does not fit in memory), the
counting interpreter on the synthesized loop structure, and the
generated Python kernel -- under the result's semiring, and compares
every produced output.  It is the programmatic form of the guarantee
the test suite enforces, exposed for downstream users who synthesize
their own programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional

import numpy as np

from repro.engine.counters import Counters
from repro.engine.executor import random_inputs, run_statements
from repro.pipeline import SynthesisResult


@dataclass
class VerificationReport:
    """Outcome of a cross-validation."""

    outputs: Dict[str, float] = field(default_factory=dict)  # max abs error
    counters: Counters = field(default_factory=Counters)
    max_error: float = 0.0
    ok: bool = True
    #: what :meth:`~repro.pipeline.SynthesisResult.run` executed on
    #: (``"kernels"`` or ``"interp"``)
    substrate: Optional[str] = None

    def __str__(self) -> str:
        status = "OK" if self.ok else "MISMATCH"
        return (
            f"verification {status}: max |error| = {self.max_error:.3e} over "
            f"{len(self.outputs)} output(s) on {self.substrate}; measured "
            f"{self.counters.total_ops:,} ops"
        )


def verify_result(
    result: SynthesisResult,
    inputs: Optional[Mapping[str, np.ndarray]] = None,
    functions: Optional[Mapping[str, Callable]] = None,
    seed: int = 0,
    rtol: float = 1e-8,
) -> VerificationReport:
    """Cross-validate a synthesis result on (random) inputs.

    Compares, for every program output: reference (einsum over the
    original statements) vs :meth:`~repro.pipeline.SynthesisResult.run`
    vs interpreter (synthesized structure, which fills
    ``report.counters``) vs compiled kernel.  Raises nothing on a
    mismatch; inspect ``report.ok``.
    """
    program = result.program
    if inputs is None:
        inputs = random_inputs(program, result.config.bindings, seed=seed)

    reference = run_statements(
        program.statements, inputs, result.config.bindings, functions,
        semiring=result.config.semiring,
    )
    shipped_env = result.run(inputs, functions)
    counters = Counters()
    interp_env = result.execute(inputs, functions, counters)
    compiled_env = result.compile()(inputs, functions or {})

    # only true outputs are comparable: intermediates consumed by later
    # statements may have been dimension-reduced (fused) or tiled away
    consumed = {
        ref.tensor.name
        for stmt in program.statements
        for ref in stmt.expr.refs()
    }
    outputs = [
        stmt
        for stmt in program.statements
        if stmt.result.name not in consumed
    ]

    report = VerificationReport(
        counters=counters, substrate=shipped_env.substrate
    )
    for stmt in outputs:
        name = stmt.result.name
        want = np.asarray(reference[name])
        # an infinite entry (the min_plus / max_plus identity) is a
        # legitimate value: equal entries are zero error, never inf - inf
        finite = np.abs(want[np.isfinite(want)])
        scale = max(1.0, float(finite.max())) if finite.size else 1.0
        for env in (shipped_env, interp_env, compiled_env):
            got = np.asarray(env[name])
            with np.errstate(invalid="ignore"):
                diff = np.where(got == want, 0.0, np.abs(got - want))
            err = float(diff.max()) if want.size else 0.0
            report.outputs[name] = max(report.outputs.get(name, 0.0), err)
            report.max_error = max(report.max_error, err)
            if not err <= rtol * scale:  # a NaN error is a mismatch
                report.ok = False
    return report
