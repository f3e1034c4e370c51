"""Whole-sequence distribution planning.

The paper's Section-7 algorithm runs on the *entire* operator tree of a
computation ("Given an operation-optimal operator tree...").  A formula
sequence factors that tree into statements; this module re-assembles the
full tree by inlining each single-consumer temporary's definition into
its use site, runs the DP once, and maps the chosen distributions back
to per-statement plans.

Temporaries with several consumers (CSE products) cannot be inlined into
a tree; they are planned as separate trees whose chosen root
distribution becomes the *fixed initial distribution* of the
corresponding leaf in every consumer (leaf redistribution from that
distribution is then charged, instead of the free-placement rule used
for true inputs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.expr.ast import Add, Expr, Mul, Statement, Sum, TensorRef
from repro.expr.indices import Bindings
from repro.parallel.commcost import CommModel, move_cost_elements
from repro.parallel.dist import Distribution, enumerate_distributions, no_replicate
from repro.parallel.grid import ProcessorGrid
from repro.parallel.partition import (
    PartitionPlan,
    canonical_plan,
    optimize_distribution,
)
from repro.robustness.budget import as_tracker
from repro.robustness.errors import BudgetExceeded
from repro.parallel.ptree import PLeaf, PMul, PNode, PSum, expression_to_ptree


def inline_sequence(statements: Sequence[Statement]) -> Expr:
    """Inline a tree-structured formula sequence into one expression.

    Each temporary must have exactly one consumer; the final statement's
    expression is returned with every temporary reference replaced by
    its (recursively inlined) definition.  Raises :class:`ValueError`
    for shared temporaries, ``+=`` accumulation, or an earlier result
    nothing reads (the sequence is a forest; inlining its last tree
    would drop the others).
    """
    producers: Dict[str, Statement] = {}
    for stmt in statements:
        if stmt.accumulate:
            raise ValueError("cannot inline accumulating statements")
        if stmt.result.name in producers:
            raise ValueError(f"{stmt.result.name} produced twice")
        producers[stmt.result.name] = stmt

    consumers: Dict[str, int] = {}
    for stmt in statements:
        for ref in stmt.expr.refs():
            if ref.tensor.name in producers:
                consumers[ref.tensor.name] = (
                    consumers.get(ref.tensor.name, 0) + 1
                )
    shared = {n for n, c in consumers.items() if c > 1}
    if shared:
        raise ValueError(
            f"temporaries with several consumers cannot be inlined: "
            f"{sorted(shared)}"
        )

    unread = set(producers) - set(consumers) - {statements[-1].result.name}
    if unread:
        raise ValueError(
            f"results no later statement reads are not inlined: {sorted(unread)}"
        )

    def uses_functions(stmt: Statement) -> bool:
        return any(ref.tensor.is_function for ref in stmt.expr.refs())

    def subst(expr: Expr) -> Expr:
        if isinstance(expr, TensorRef):
            stmt = producers.get(expr.tensor.name)
            if stmt is None or stmt is statements[-1] or uses_functions(stmt):
                # function materializations stay array leaves: their
                # elements cannot be fetched from an input array by a
                # distributed program; they are produced locally first
                return expr
            body = subst(stmt.expr)
            # align the definition's indices with the use site's
            from repro.expr.canonical import rename_indices

            mapping = {
                decl: use
                for decl, use in zip(stmt.result.indices, expr.indices)
                if decl != use
            }
            if mapping:
                # bound (summation) indices of the body must not collide
                # with the renamed targets; formula sequences from opmin
                # use globally consistent naming, so plain renaming of
                # the free indices is sound here
                body = rename_indices(body, mapping)
            return body
        if isinstance(expr, Mul):
            return Mul(tuple(subst(f) for f in expr.factors))
        if isinstance(expr, Sum):
            return Sum(expr.indices, subst(expr.body))
        if isinstance(expr, Add):
            return Add(tuple((c, subst(t)) for c, t in expr.terms))
        raise TypeError(f"unknown node {type(expr).__name__}")

    return subst(statements[-1].expr)


@dataclass
class SequencePlan:
    """Distribution plans covering a whole formula sequence."""

    plans: List[Tuple[str, PartitionPlan]]  # (result name, plan), in order
    total_cost: float
    #: chosen distribution of each produced array
    produced_dist: Dict[str, Distribution] = field(default_factory=dict)

    def describe(self) -> str:
        out = [f"total modeled cost {self.total_cost:,.0f}"]
        for name, plan in self.plans:
            out.append(f"--- {name} ---")
            out.append(plan.describe())
        return "\n".join(out)


def sequence_tree(statements: Sequence[Statement]) -> Optional[PNode]:
    """The whole sequence as the one operator tree a Section-7 DP run
    plans, or ``None`` when it is not one (shared or unread results,
    ``+=``, multi-term combines)."""
    try:
        return expression_to_ptree(inline_sequence(statements))
    except (ValueError, TypeError):
        return None


def plan_sequence(
    statements: Sequence[Statement],
    grid: ProcessorGrid,
    model: Optional[CommModel] = None,
    bindings: Optional[Bindings] = None,
    budget=None,
) -> SequencePlan:
    """Plan distributions across a formula sequence.

    Tree-structured sequences are inlined and planned with one run of
    the Section-7 DP (the paper's intended use).  Sequences with shared
    temporaries or multi-term combines fall back to statement order:
    each statement is planned with its already-produced operands pinned
    to their chosen distributions.

    When a ``budget`` runs out the Section-7 DP is replaced by
    :func:`repro.parallel.partition.canonical_plan` per tree -- always
    an executable plan, just not communication-minimal.
    """
    model = model or CommModel()
    tracker = as_tracker(budget)
    tree = sequence_tree(statements)
    if tree is None:
        return _plan_statementwise(statements, grid, model, bindings, tracker)
    try:
        plan = optimize_distribution(tree, grid, model, bindings, budget=tracker)
    except BudgetExceeded as exc:
        tracker.degrade("distribution", exc, "canonical block distribution")
        plan = canonical_plan(tree, grid, model, bindings)
    name = statements[-1].result.name
    return SequencePlan(
        [(name, plan)],
        plan.total_cost,
        {name: plan.dist[id(tree)]},
    )


def _plan_statementwise(
    statements: Sequence[Statement],
    grid: ProcessorGrid,
    model: CommModel,
    bindings: Optional[Bindings],
    tracker=None,
) -> SequencePlan:
    #: result name -> (declared result indices, chosen distribution)
    produced: Dict[str, Tuple[Tuple, Distribution]] = {}
    plans: List[Tuple[str, PartitionPlan]] = []
    total = 0.0

    def held_as(ref: TensorRef) -> Optional[Distribution]:
        """Where an already produced operand lies, in the index names of
        the reference that uses it."""
        held = produced.get(ref.tensor.name)
        if held is None or len(set(ref.indices)) < len(ref.indices):
            # a diagonal is read from a gathered copy, like an input
            return None
        return held[1].renamed(held[0], ref.indices)

    for stmt in statements:
        try:
            tree = expression_to_ptree(stmt.expr)
        except TypeError:
            # multi-term combine: keep every operand where it is; the
            # elementwise addition is local if distributions match --
            # charge the cost of aligning all operands to the first
            # produced one's (what the session's rank-local fold does)
            held = [(ref, held_as(ref)) for ref in stmt.expr.refs()]
            base = next((d for _, d in held if d is not None), None)
            if base is not None:
                for ref, src in held:
                    if src is not None and src != base:
                        total += model.comm_cost * move_cost_elements(
                            tuple(sorted(ref.indices)), src, base, grid,
                            bindings,
                        )
                produced[stmt.result.name] = (tuple(stmt.result.indices), base)
            continue
        plan = _plan_with_pinned_leaves(
            tree, grid, model, bindings, held_as, tracker
        )
        plans.append((stmt.result.name, plan))
        produced[stmt.result.name] = (
            tuple(stmt.result.indices), plan.dist[id(tree)]
        )
        total += plan.total_cost
    return SequencePlan(
        plans, total, {name: dist for name, (_, dist) in produced.items()}
    )


def _plan_with_pinned_leaves(
    tree: PNode,
    grid: ProcessorGrid,
    model: CommModel,
    bindings: Optional[Bindings],
    held_as,
    tracker=None,
) -> PartitionPlan:
    """Run the DP but charge pinned leaves their redistribution cost
    from the distribution they were produced in (``held_as(ref)``,
    ``None`` for a true input)."""
    # cheap approach: run the standard DP, then add the fixed cost of
    # moving each pinned leaf from its produced distribution to the
    # distribution the plan assumed for it (free placement otherwise).
    try:
        plan = optimize_distribution(tree, grid, model, bindings, budget=tracker)
    except BudgetExceeded as exc:
        if tracker is not None:
            tracker.degrade(
                "distribution", exc, "canonical block distribution"
            )
        plan = canonical_plan(tree, grid, model, bindings)
    extra = 0.0
    for node in tree.walk():
        if isinstance(node, PLeaf):
            src = held_as(node.ref)
            if src is None:
                continue
            dst = plan.gamma[id(node)]
            src_eff = src.effective(node.indices)
            if src_eff != dst:
                extra += model.comm_cost * move_cost_elements(
                    node.indices, src_eff, dst, grid, bindings
                )
    plan.total_cost += extra
    return plan
