"""Counters collected by the execution substrates.

Every counting substrate (the loop interpreter, the sparse executor,
the mixed sparse plan) reports its work through a :class:`Counters`
instance so that analytic cost models can be validated against
*measured* quantities.  All three sit behind
:meth:`repro.pipeline.SynthesisResult.execute`, the counting oracle;
``run()``'s kernel steps, sparse ones included, count nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class Counters:
    """Mutable tally of work performed by an execution.

    Attributes
    ----------
    flops:
        Arithmetic operations (multiplies + adds), excluding function
        evaluation interiors.
    func_evals:
        Number of primitive-function (integral) element evaluations.
    func_ops:
        Operations spent inside function evaluations
        (``func_evals x compute_cost`` accumulated per call site).
    elements_allocated:
        Total elements of temporaries allocated.
    peak_elements:
        High-water mark of simultaneously-live temporary elements.
    """

    flops: int = 0
    func_evals: int = 0
    func_ops: int = 0
    elements_allocated: int = 0
    peak_elements: int = 0
    _live_elements: int = field(default=0, repr=False)

    @property
    def total_ops(self) -> int:
        """Arithmetic plus function-interior operations."""
        return self.flops + self.func_ops

    def allocate(self, elements: int) -> None:
        self.elements_allocated += elements
        self._live_elements += elements
        if self._live_elements > self.peak_elements:
            self.peak_elements = self._live_elements

    def release(self, elements: int) -> None:
        self._live_elements = max(0, self._live_elements - elements)

    def merge(self, other: "Counters") -> None:
        """Fold another tally into this one (peaks take the max)."""
        self.flops += other.flops
        self.func_evals += other.func_evals
        self.func_ops += other.func_ops
        self.elements_allocated += other.elements_allocated
        self.peak_elements = max(self.peak_elements, other.peak_elements)

    def as_dict(self) -> Dict[str, int]:
        return {
            "flops": self.flops,
            "func_evals": self.func_evals,
            "func_ops": self.func_ops,
            "total_ops": self.total_ops,
            "elements_allocated": self.elements_allocated,
            "peak_elements": self.peak_elements,
        }
