"""Statement scheduling for peak live memory.

A formula sequence fixes *what* temporaries exist; the order of
statements decides *how many are live at once*.  A temporary is live
from its defining statement to its last use; the peak of summed live
sizes is the footprint the unfused execution actually needs (the fusion
stage then shrinks individual arrays, but scheduling is free and
composes with it).

``schedule_statements`` reorders a sequence, respecting data
dependences, to minimize peak live memory:

* exact branch-and-bound over topological orders for small sequences;
* a greedy best-next heuristic (choose the ready statement minimizing
  the resulting live set, preferring statements that free operands)
  beyond the exact threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.expr.ast import Statement
from repro.expr.indices import Bindings, total_extent


@dataclass
class ScheduleResult:
    """A reordered sequence with its memory profile."""

    statements: List[Statement]
    peak_live: int
    baseline_peak: int
    exact: bool

    @property
    def improvement(self) -> float:
        if self.peak_live == 0:
            return 1.0
        return self.baseline_peak / self.peak_live


def _analyze(
    statements: Sequence[Statement],
    bindings: Optional[Bindings],
) -> Tuple[List[Set[int]], List[int], Dict[str, int]]:
    """(dependences, sizes, last_use) of a sequence.

    dependences[k] = indices of statements k reads from; sizes[k] =
    elements of k's result; produced name -> defining statement index.
    """
    producer: Dict[str, int] = {}
    deps: List[Set[int]] = []
    sizes: List[int] = []
    for k, stmt in enumerate(statements):
        need = set()
        for ref in stmt.expr.refs():
            p = producer.get(ref.tensor.name)
            if p is not None:
                need.add(p)
        if stmt.accumulate and stmt.result.name in producer:
            need.add(producer[stmt.result.name])
        deps.append(need)
        producer[stmt.result.name] = k
        sizes.append(total_extent(stmt.result.indices, bindings))
    return deps, sizes, producer


def peak_live_memory(
    statements: Sequence[Statement],
    bindings: Optional[Bindings] = None,
    outputs: Optional[Set[str]] = None,
) -> int:
    """Peak of summed live temporary sizes over the given order.

    ``outputs`` (default: results never consumed later) stay live to the
    end; inputs are not counted (they pre-exist).
    """
    deps, sizes, producer = _analyze(statements, bindings)
    consumed_by: Dict[int, int] = {}
    for k, need in enumerate(deps):
        for p in need:
            consumed_by[p] = k
    if outputs is None:
        outputs = {
            statements[k].result.name
            for k in range(len(statements))
            if k not in consumed_by
        }
    live = 0
    peak = 0
    dead_at: Dict[int, List[int]] = {}
    for p, last in consumed_by.items():
        if statements[p].result.name not in outputs:
            dead_at.setdefault(last, []).append(p)
    for k in range(len(statements)):
        live += sizes[k]
        peak = max(peak, live)
        for p in dead_at.get(k, ()):
            live -= sizes[p]
    return peak


def schedule_statements(
    statements: Sequence[Statement],
    bindings: Optional[Bindings] = None,
    exact_limit: int = 8,
) -> ScheduleResult:
    """Reorder a formula sequence to minimize peak live memory."""
    statements = list(statements)
    n = len(statements)
    baseline = peak_live_memory(statements, bindings)
    if n <= 1:
        return ScheduleResult(statements, baseline, baseline, True)

    deps, sizes, producer = _analyze(statements, bindings)
    users: List[Set[int]] = [set() for _ in range(n)]
    for k, need in enumerate(deps):
        for p in need:
            users[p].add(k)
    outputs = {k for k in range(n) if not users[k]}

    best_order: Optional[List[int]] = None
    if n <= exact_limit:
        best_peak = [baseline]
        found = [list(range(n))]
        # scheduled set -> lowest peak it was reached with.  The live set
        # is a function of the scheduled set, so a set reached again at
        # no lower peak has only completions already searched, and only
        # a strict improvement replaces the best order.
        reached: Dict[FrozenSet[int], int] = {}

        def search(order: List[int], scheduled: Set[int], live: Set[int],
                   peak: int) -> None:
            if peak > best_peak[0]:
                return
            key = frozenset(scheduled)
            if key in reached and reached[key] <= peak:
                return
            reached[key] = peak
            if len(order) == n:
                if peak < best_peak[0]:
                    best_peak[0] = peak
                    found[0] = list(order)
                return
            for k in range(n):
                if k in scheduled or not deps[k] <= scheduled:
                    continue
                new_live = set(live)
                new_live.add(k)
                new_sched = scheduled | {k}
                new_peak = max(peak, sum(sizes[p] for p in new_live))
                if new_peak > best_peak[0]:
                    continue
                for p in list(new_live):
                    if p not in outputs and users[p] <= new_sched:
                        new_live.discard(p)
                order.append(k)
                search(order, new_sched, new_live, new_peak)
                order.pop()

        search([], set(), set(), 0)
        best_order = found[0]
        exact = True
    else:
        # greedy: among ready statements pick the one minimizing the
        # live total after scheduling it (frees count negatively)
        scheduled: Set[int] = set()
        live: Set[int] = set()
        order: List[int] = []
        while len(order) < n:
            ready = [
                k
                for k in range(n)
                if k not in scheduled and deps[k] <= scheduled
            ]

            def after(k: int) -> int:
                trial = set(live) | {k}
                tsched = scheduled | {k}
                total = sum(sizes[p] for p in trial)
                freed = sum(
                    sizes[p]
                    for p in trial
                    if p not in outputs and users[p] <= tsched
                )
                return total - freed

            k = min(ready, key=lambda k: (after(k), k))
            order.append(k)
            scheduled.add(k)
            live.add(k)
            for p in list(live):
                if p not in outputs and users[p] <= scheduled:
                    live.discard(p)
        best_order = order
        exact = False

    reordered = [statements[k] for k in best_order]
    peak = peak_live_memory(reordered, bindings)
    if peak > baseline:  # never return something worse
        return ScheduleResult(statements, baseline, baseline, exact)
    return ScheduleResult(reordered, peak, baseline, exact)
