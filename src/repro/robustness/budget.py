"""Search budgets with graceful degradation.

The pipeline chains several worst-case-exponential searches (the opmin
subset DP is ``O(3^n)``, fusion/space-time/distribution are pareto DPs).
A :class:`Budget` bounds them jointly: a wall-clock deadline and/or a
cap on *search nodes* (DP states, candidate evaluations) shared by every
stage.  Each search calls :meth:`BudgetTracker.tick` per node; when the
budget is exhausted the tick raises
:class:`~repro.robustness.errors.BudgetExceeded` and the stage degrades
to its documented greedy fallback:

=====================  ==========================================
stage                  fallback
=====================  ==========================================
operation min.         left-to-right factorization
fusion (memory min.)   no-fusion baseline (full temporaries)
space-time trade-off   fused-but-untiled structure
data locality          best tiling found so far (or untiled)
data distribution      canonical block distribution, 1-D grid
empirical autotuning   the analytical choice, unmeasured
=====================  ==========================================

Every degradation is recorded on the tracker so the pipeline's stage
reports can say ``degraded: true`` with the reason; with
``Budget.strict=True`` degradation is refused and ``BudgetExceeded``
propagates instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.robustness.errors import BudgetExceeded


@dataclass(frozen=True)
class Budget:
    """Declarative search budget (see module docstring).

    ``deadline_ms`` bounds wall-clock time from :meth:`start`;
    ``max_nodes`` bounds the total number of search nodes across all
    stages.  ``None`` means unbounded.  ``strict=True`` turns graceful
    degradation into a hard :class:`BudgetExceeded` failure.
    """

    deadline_ms: Optional[float] = None
    max_nodes: Optional[int] = None
    strict: bool = False

    def start(self) -> "BudgetTracker":
        """Begin tracking: the deadline clock starts now."""
        return BudgetTracker(self)

    def narrowed(
        self,
        deadline_ms: Optional[float] = None,
        max_nodes: Optional[int] = None,
    ) -> "Budget":
        """A budget no looser than this one.

        Each limit becomes the minimum of the existing bound and the
        given one (``None`` keeps the existing bound); ``strict`` is
        preserved.  The serving layer's per-tenant admission control
        uses this to clamp a tenant's per-request budget to whatever
        allowance the tenant has left -- a tenant at zero allowance
        gets ``max_nodes=0``, so every stage degrades gracefully
        instead of failing.
        """

        def tighter(a, b):
            if a is None:
                return b
            if b is None:
                return a
            return min(a, b)

        return Budget(
            deadline_ms=tighter(self.deadline_ms, deadline_ms),
            max_nodes=tighter(self.max_nodes, max_nodes),
            strict=self.strict,
        )


@dataclass
class Degradation:
    """Record of one stage falling back to its greedy plan."""

    stage: str
    reason: str
    fallback: str


class BudgetTracker:
    """Mutable consumption state of one :class:`Budget`.

    Shared across every stage of one ``synthesize`` run; once exhausted,
    every further :meth:`tick` raises immediately so later stages skip
    straight to their fallbacks.
    """

    def __init__(self, budget: Budget) -> None:
        self.budget = budget
        self.nodes = 0
        self.degradations: List[Degradation] = []
        self._deadline = (
            time.monotonic() + budget.deadline_ms / 1000.0
            if budget.deadline_ms is not None
            else None
        )
        self._exhausted_reason: Optional[str] = None

    def tick(self, n: int = 1, stage: Optional[str] = None) -> None:
        """Charge ``n`` search nodes; raise when the budget is gone.  A
        charge that crosses ``max_nodes`` records ``max_nodes + 1``."""
        if self._exhausted_reason is not None:
            raise BudgetExceeded(self._exhausted_reason, stage=stage)
        self.nodes += n
        limit = self.budget.max_nodes
        if limit is not None and self.nodes > limit:
            self.nodes = limit + 1
            self._exhausted_reason = (
                f"node budget exhausted ({self.nodes:,} > {limit:,} "
                "search nodes)"
            )
        elif self._deadline is not None and time.monotonic() > self._deadline:
            self._exhausted_reason = (
                f"deadline exhausted ({self.budget.deadline_ms:g} ms)"
            )
        if self._exhausted_reason is not None:
            raise BudgetExceeded(self._exhausted_reason, stage=stage)

    def exhausted(self) -> bool:
        return self._exhausted_reason is not None

    def remaining_ms(self) -> Optional[float]:
        """Wall-clock milliseconds left before the deadline (clamped at
        0), or ``None`` when the budget has no deadline.  Anytime loops
        (the autotuner's measurement schedule) use this to size the
        work they still attempt."""
        if self._deadline is None:
            return None
        return max(0.0, (self._deadline - time.monotonic()) * 1000.0)

    def degrade(self, stage: str, exc: BudgetExceeded, fallback: str) -> None:
        """Record that ``stage`` fell back to ``fallback``.

        In strict mode the budget failure is re-raised instead -- the
        caller must be prepared for ``BudgetExceeded`` to escape.
        """
        if self.budget.strict:
            raise exc
        self.degradations.append(Degradation(stage, exc.message, fallback))

    def degraded_stages(self) -> List[str]:
        return [d.stage for d in self.degradations]


def as_tracker(
    budget: Union[Budget, BudgetTracker, None],
) -> Optional[BudgetTracker]:
    """Normalize a budget argument: stage entry points accept either a
    declarative :class:`Budget` (a private tracker is started) or a
    shared :class:`BudgetTracker` (the pipeline's), or ``None``."""
    if budget is None:
        return None
    if isinstance(budget, Budget):
        return budget.start()
    return budget
