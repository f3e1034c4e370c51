"""The Section-7 dynamic-programming algorithm.

Implements the paper's three steps verbatim:

1. leaves: ``Cost(v, alpha) = 0`` for non-replicated ``alpha`` (initial
   placement of inputs is free in any block distribution), otherwise the
   cheapest way to reach ``alpha`` from some non-replicated ``beta``;
2. bottom-up, for every internal node and every target distribution
   ``alpha``:

   * multiplication: both children are brought to a common ``gamma``,
     the products are formed locally, the result optionally
     redistributed to ``alpha``;
   * summation over ``i``: the child may have any ``gamma``; if ``i`` is
     distributed, partial sums are either combined onto one processor
     along that dimension or replicated across it (the two options),
     then redistributed;

3. the root's cheapest ``alpha`` wins and choices are traced back
   through the ``Dist`` tables.

Complexity is ``O(q^2 |T|)`` in the number of internal nodes ``|T|`` and
distribution count ``q``; the implementation counts evaluated states so
benchmarks can verify the scaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.expr.indices import Bindings
from repro.parallel.commcost import (
    CommModel,
    calc_mul_elements,
    move_cost_elements,
    partial_sum_elements,
    reduction_comm_elements,
    reduction_result_dist,
)
from repro.parallel.dist import (
    SINGLE,
    Distribution,
    enumerate_distributions,
    no_replicate,
)
from repro.parallel.grid import ProcessorGrid
from repro.parallel.ptree import PLeaf, PMul, PNode, PSum
from repro.robustness.budget import as_tracker


@dataclass
class PartitionPlan:
    """Chosen distributions for every node of the tree."""

    root: PNode
    grid: ProcessorGrid
    model: CommModel
    total_cost: float
    dist: Dict[int, Distribution]  # id(node) -> output distribution
    gamma: Dict[int, Distribution]  # id(node) -> compute distribution
    sum_option: Dict[int, str]  # id(PSum) -> 'combine'|'replicate'|'local'
    states_evaluated: int
    bindings: Optional[Bindings] = None

    # The per-node tables are keyed by ``id(node)``, which does not
    # survive serialization: unpickling (or deep-copying) the tree
    # creates fresh objects with fresh ids.  Re-key the tables by the
    # node's position in the deterministic pre-order walk of ``root``
    # while serialized, and rebuild the id keys against the new tree on
    # the way back in.  This is what makes partition plans (and hence
    # whole synthesis results) storable in the on-disk plan cache.

    def __getstate__(self) -> Dict[str, object]:
        pos = {id(n): k for k, n in enumerate(self.root.walk())}
        state = self.__dict__.copy()
        for table in ("dist", "gamma", "sum_option"):
            state[table] = {
                pos[node_id]: value
                for node_id, value in getattr(self, table).items()
                if node_id in pos
            }
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        nodes = list(self.root.walk())
        for table in ("dist", "gamma", "sum_option"):
            setattr(
                self,
                table,
                {id(nodes[k]): v for k, v in state[table].items()},
            )

    def describe(self) -> str:
        lines: List[str] = [f"grid {self.grid}, total cost {self.total_cost:.0f}"]

        def visit(node: PNode, depth: int) -> None:
            pad = "  " * depth
            extra = ""
            if isinstance(node, PSum):
                extra = f" [{self.sum_option[id(node)]}]"
            gamma = self.gamma.get(id(node))
            gtxt = f" via {gamma}" if gamma is not None else ""
            lines.append(
                f"{pad}{_label(node)} -> {self.dist[id(node)]}{gtxt}{extra}"
            )
            for child in node.children():
                visit(child, depth + 1)

        visit(self.root, 0)
        return "\n".join(lines)


def _label(node: PNode) -> str:
    if isinstance(node, PLeaf):
        return node.ref.tensor.name
    if isinstance(node, PMul):
        return "mul"
    return f"sum_{node.index.name}"


def optimize_distribution(
    root: PNode,
    grid: ProcessorGrid,
    model: Optional[CommModel] = None,
    bindings: Optional[Bindings] = None,
    result_dist: Optional[Distribution] = None,
    budget=None,
) -> PartitionPlan:
    """Run the Section-7 DP; returns the minimal-cost plan.

    ``result_dist`` pins the root's distribution (e.g. when the caller
    needs the output on one processor); by default the cheapest root
    distribution is chosen.

    ``budget`` bounds the DP (every evaluated state ticks); on
    exhaustion :class:`~repro.robustness.errors.BudgetExceeded`
    propagates and callers degrade to :func:`canonical_plan`.
    """
    model = model or CommModel()
    tracker = as_tracker(budget)
    states = 0

    # Cost and Dist tables: per node, keyed by Distribution
    cost_tab: Dict[int, Dict[Distribution, float]] = {}
    back: Dict[int, Dict[Distribution, Tuple]] = {}

    def move(indices, src: Distribution, dst: Distribution) -> float:
        if src == dst:
            return 0.0
        return model.comm_cost * move_cost_elements(
            indices, src, dst, grid, bindings
        )

    def tick(n: int = 1) -> None:
        nonlocal states
        states += n
        if tracker is not None:
            tracker.tick(n, stage="distribution")

    def solve(node: PNode) -> Dict[Distribution, float]:
        hit = cost_tab.get(id(node))
        if hit is not None:
            return hit
        alphas = enumerate_distributions(node.indices, grid)
        table: Dict[Distribution, float] = {}
        trace: Dict[Distribution, Tuple] = {}

        if isinstance(node, PLeaf):
            plains = [a for a in alphas if no_replicate(a)]
            for alpha in alphas:
                tick()
                if no_replicate(alpha):
                    table[alpha] = 0.0
                    trace[alpha] = ("init", alpha)
                else:
                    best, best_beta = None, None
                    for beta in plains:
                        c = move(node.indices, beta, alpha)
                        if best is None or c < best:
                            best, best_beta = c, beta
                    table[alpha] = best
                    trace[alpha] = ("init", best_beta)

        elif isinstance(node, PMul):
            ltab = solve(node.left)
            rtab = solve(node.right)
            gammas = enumerate_distributions(node.indices, grid)
            # precompute per-gamma formation cost
            formed: List[Tuple[Distribution, float]] = []
            for gamma in gammas:
                lcost = ltab[gamma.effective(node.left.indices)]
                rcost = rtab[gamma.effective(node.right.indices)]
                calc = model.flop_cost * calc_mul_elements(
                    node.indices, gamma, grid, bindings
                )
                formed.append((gamma, lcost + rcost + calc))
            for alpha in alphas:
                best, best_gamma = None, None
                for gamma, fcost in formed:
                    tick()
                    c = fcost + move(node.indices, gamma, alpha)
                    if best is None or c < best:
                        best, best_gamma = c, gamma
                table[alpha] = best
                trace[alpha] = ("mul", best_gamma)

        elif isinstance(node, PSum):
            ctab = solve(node.child)
            child = node.child
            options: List[Tuple[Distribution, float, Distribution, str]] = []
            for gamma, ccost in ctab.items():
                partial = model.flop_cost * partial_sum_elements(
                    child.indices, gamma, grid, bindings
                )
                if gamma.position_of(node.index) is None:
                    out_dist = gamma
                    options.append((gamma, ccost + partial, out_dist, "local"))
                else:
                    red = model.comm_cost * reduction_comm_elements(
                        node.indices,
                        gamma,
                        node.index,
                        grid,
                        bindings,
                    )
                    for option in ("combine", "replicate"):
                        out_dist = reduction_result_dist(
                            gamma, node.index, replicate=option == "replicate"
                        )
                        options.append(
                            (gamma, ccost + partial + red, out_dist, option)
                        )
            for alpha in alphas:
                best, best_choice = None, None
                for gamma, fcost, out_dist, option in options:
                    tick()
                    c = fcost + move(node.indices, out_dist, alpha)
                    if best is None or c < best:
                        best = c
                        best_choice = (gamma, out_dist, option)
                table[alpha] = best
                trace[alpha] = ("sum",) + best_choice

        else:  # pragma: no cover - exhaustive
            raise TypeError(f"unknown PNode {type(node).__name__}")

        cost_tab[id(node)] = table
        back[id(node)] = trace
        return table

    root_table = solve(root)
    if result_dist is not None:
        best_alpha, best_cost = result_dist, root_table[result_dist]
    else:
        best_alpha = min(root_table, key=lambda a: root_table[a])
        best_cost = root_table[best_alpha]

    # trace back
    dist: Dict[int, Distribution] = {}
    gamma_map: Dict[int, Distribution] = {}
    sum_option: Dict[int, str] = {}

    def assign(node: PNode, alpha: Distribution) -> None:
        dist[id(node)] = alpha
        choice = back[id(node)][alpha]
        if isinstance(node, PLeaf):
            gamma_map[id(node)] = choice[1]
            return
        if isinstance(node, PMul):
            gamma = choice[1]
            gamma_map[id(node)] = gamma
            assign(node.left, gamma.effective(node.left.indices))
            assign(node.right, gamma.effective(node.right.indices))
            return
        gamma, out_dist, option = choice[1], choice[2], choice[3]
        gamma_map[id(node)] = gamma
        sum_option[id(node)] = option
        assign(node.child, gamma)

    assign(root, best_alpha)
    return PartitionPlan(
        root,
        grid,
        model,
        best_cost,
        dist,
        gamma_map,
        sum_option,
        states,
        bindings,
    )


def canonical_distribution(indices, grid: ProcessorGrid) -> Distribution:
    """The canonical block distribution of an index set: the sorted
    indices fill the grid dimensions in order, surplus dimensions get
    the first-processor marker (never replication)."""
    idxs = sorted(indices)
    entries = tuple(
        idxs[d] if d < len(idxs) else SINGLE
        for d in range(len(grid.dims))
    )
    return Distribution(entries)


def canonical_plan(
    root: PNode,
    grid: ProcessorGrid,
    model: Optional[CommModel] = None,
    bindings: Optional[Bindings] = None,
    result_dist: Optional[Distribution] = None,
) -> PartitionPlan:
    """Budget fallback for :func:`optimize_distribution`: no search.

    Every node computes under the canonical block distribution of its
    own indices; the SPMD lowering inserts redistributions wherever
    adjacent distributions differ, so the plan is always executable --
    it just doesn't minimize communication.  Costs are still charged
    honestly through the Section-7 cost model, so the plan's
    ``total_cost`` is comparable to a searched plan's.
    """
    model = model or CommModel()
    dist: Dict[int, Distribution] = {}
    gamma_map: Dict[int, Distribution] = {}
    sum_option: Dict[int, str] = {}
    total = 0.0
    states = 0

    def move(indices, src: Distribution, dst: Distribution) -> float:
        if src.effective(indices) == dst.effective(indices):
            return 0.0
        return model.comm_cost * move_cost_elements(
            indices, src, dst, grid, bindings
        )

    def visit(node: PNode, want: Optional[Distribution]) -> None:
        nonlocal total, states
        states += 1

        if isinstance(node, PLeaf):
            desired = (
                want
                if want is not None
                else canonical_distribution(node.indices, grid)
            )
            if no_replicate(desired):
                gamma_map[id(node)] = desired
            else:
                # initial placement must be plain; charge the broadcast
                beta = canonical_distribution(node.indices, grid)
                total += move(node.indices, beta, desired)
                gamma_map[id(node)] = beta
            dist[id(node)] = desired
            return

        if isinstance(node, PMul):
            gamma = canonical_distribution(node.indices, grid)
            visit(node.left, gamma.effective(node.left.indices))
            visit(node.right, gamma.effective(node.right.indices))
            total += model.flop_cost * calc_mul_elements(
                node.indices, gamma, grid, bindings
            )
            gamma_map[id(node)] = gamma
            out = want if want is not None else gamma
            total += move(node.indices, gamma, out)
            dist[id(node)] = out
            return

        if isinstance(node, PSum):
            child = node.child
            cgamma = canonical_distribution(child.indices, grid)
            visit(child, cgamma)
            gamma_map[id(node)] = cgamma
            total += model.flop_cost * partial_sum_elements(
                child.indices, cgamma, grid, bindings
            )
            if cgamma.position_of(node.index) is None:
                sum_option[id(node)] = "local"
                cur = cgamma
            else:
                sum_option[id(node)] = "combine"
                total += model.comm_cost * reduction_comm_elements(
                    node.indices,
                    cgamma,
                    node.index,
                    grid,
                    bindings,
                )
                cur = reduction_result_dist(cgamma, node.index, replicate=False)
            out = want if want is not None else cur
            total += move(node.indices, cur, out)
            dist[id(node)] = out
            return

        raise TypeError(f"unknown PNode {type(node).__name__}")

    visit(root, result_dist)
    return PartitionPlan(
        root,
        grid,
        model,
        total,
        dist,
        gamma_map,
        sum_option,
        states,
        bindings,
    )
