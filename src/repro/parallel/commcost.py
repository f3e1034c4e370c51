"""Computation and communication cost models for Section 7.

Cost semantics (the SPMD session of :mod:`repro.parallel.session`
pays exactly these receives, counted there with boxes; :func:`plan_traffic`
counts them here with interval arithmetic):

* **CalcCost** -- parallel compute time of a node: the *maximum* over
  participating processors of local work (elementwise products for a
  multiplication node, partial-sum additions for a summation node),
  weighted by ``flop_cost``.
* **MoveCost** -- redistribution time: the maximum over processors of
  elements *received* (elements needed under the target distribution
  and not already held under the source), weighted by ``comm_cost``.
  The paper's example holds: ``<j,*,1> -> <j,t,1>`` costs nothing
  because every processor already holds a superset of its target block.
* **Reduction** -- a summation over an index distributed on processor
  dimension ``d`` (``p`` processors) forms partial sums locally, then
  either combines them onto coordinate 0 of ``d`` (root receives
  ``(p-1)`` partial blocks; the result has ``1`` at position ``d``) or
  combines-and-broadcasts (replicated result, same maximum receive
  volume, held by all) -- the paper's two options.

:func:`plan_traffic` walks a whole plan under these rules and returns
what every rank receives and computes -- no arrays, only arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.expr.indices import Bindings, Index
from repro.parallel.dist import Distribution, REPLICATED, SINGLE
from repro.parallel.grid import ProcessorGrid
from repro.parallel.ptree import PLeaf, PMul, PNode, PSum

Rank = Tuple[int, ...]


@dataclass(frozen=True)
class CommModel:
    """Relative weights of computation and communication.

    ``comm_cost`` is the time to receive one element in units of one
    arithmetic operation; 8-byte elements over a network that is ~10x
    slower than the FPU give the default of 10.
    """

    flop_cost: float = 1.0
    comm_cost: float = 10.0


def _interval_overlap(a: Tuple[int, int], b: Tuple[int, int]) -> int:
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    return max(0, hi - lo)


def received_elements(
    array_indices: Sequence[Index],
    source: Distribution,
    target: Distribution,
    rank: Tuple[int, ...],
    grid: ProcessorGrid,
    bindings: Optional[Bindings] = None,
) -> int:
    """Elements ``rank`` must receive going from ``source`` to
    ``target`` (exact, by per-dimension interval arithmetic)."""
    tgt = target.local_ranges(array_indices, rank, grid, bindings)
    if tgt is None:
        return 0
    src = source.local_ranges(array_indices, rank, grid, bindings)
    need = 1
    for lo, hi in tgt:
        need *= hi - lo
    if src is None:
        return need
    overlap = 1
    for t, s in zip(tgt, src):
        overlap *= _interval_overlap(t, s)
    return need - overlap


def move_cost_elements(
    array_indices: Sequence[Index],
    source: Distribution,
    target: Distribution,
    grid: ProcessorGrid,
    bindings: Optional[Bindings] = None,
) -> int:
    """Max-over-processors received elements for a redistribution."""
    return max(
        received_elements(array_indices, source, target, rank, grid, bindings)
        for rank in grid.ranks()
    )


def calc_mul_elements(
    result_indices: Sequence[Index],
    dist: Distribution,
    grid: ProcessorGrid,
    bindings: Optional[Bindings] = None,
) -> int:
    """Max per-processor products formed by a multiplication node."""
    return dist.max_local_size(result_indices, grid, bindings)


def partial_sum_elements(
    child_indices: Sequence[Index],
    dist: Distribution,
    grid: ProcessorGrid,
    bindings: Optional[Bindings] = None,
) -> int:
    """Max per-processor additions forming the partial sums."""
    return dist.max_local_size(child_indices, grid, bindings)


def reduction_result_dist(
    dist: Distribution, index: Index, replicate: bool
) -> Distribution:
    """Distribution of the summation result: the summed index's
    processor dimension becomes ``1`` (combine) or ``*`` (replicate)."""
    d = dist.position_of(index)
    if d is None:
        return dist
    entries = list(dist.entries)
    entries[d] = REPLICATED if replicate else SINGLE
    return Distribution(tuple(entries))


def reduction_comm_elements(
    result_indices: Sequence[Index],
    dist: Distribution,
    index: Index,
    grid: ProcessorGrid,
    bindings: Optional[Bindings] = None,
) -> int:
    """Max received elements while combining partial sums over
    ``index``'s processor dimension: everyone sends its partial block to
    the root, which receives ``p - 1`` blocks."""
    d = dist.position_of(index)
    if d is None:
        return 0
    p = grid.dims[d]
    if p == 1:
        return 0
    root_dist = reduction_result_dist(dist, index, replicate=False)
    block = root_dist.max_local_size(result_indices, grid, bindings)
    return (p - 1) * block


def plan_traffic(plan) -> Tuple[Dict[Rank, int], Dict[Rank, int]]:
    """Per-rank received elements and local operations of a
    :class:`~repro.parallel.partition.PartitionPlan`, by arithmetic alone.

    Every node computes under its ``gamma`` and hands its value on under
    its ``dist``; a change of distribution costs each rank
    :func:`received_elements`.  Inputs are placed free.  A product
    counts one operation per local result element, a partial sum one per
    local operand element.  A summation over a distributed index
    combines onto the coordinate-0 root of that processor dimension
    (the root receives ``p - 1`` partial blocks) and, under
    ``"replicate"``, sends the total back to every other member.
    """
    grid, bindings = plan.grid, plan.bindings
    ranks = list(grid.ranks())
    received = dict.fromkeys(ranks, 0)
    ops = dict.fromkeys(ranks, 0)

    def move(indices, src: Distribution, dst: Distribution) -> None:
        if src != dst:
            for r in ranks:
                received[r] += received_elements(
                    indices, src, dst, r, grid, bindings
                )

    def compute(indices, dist: Distribution) -> None:
        for r in ranks:
            ops[r] += dist.local_size(indices, r, grid, bindings)

    def visit(node: PNode) -> Distribution:
        gamma = plan.gamma[id(node)]
        cur = gamma
        if isinstance(node, PMul):
            for child in (node.left, node.right):
                move(child.indices, visit(child), gamma.effective(child.indices))
            compute(node.indices, gamma)
        elif isinstance(node, PSum):
            move(node.child.indices, visit(node.child), gamma)
            compute(node.child.indices, gamma)
            d = gamma.position_of(node.index)
            if d is not None:
                replicate = plan.sum_option[id(node)] == "replicate"
                cur = reduction_result_dist(gamma, node.index, replicate)
                for r in ranks:
                    block = gamma.local_size(node.indices, r, grid, bindings)
                    if r[d] == 0:
                        received[r] += (grid.dims[d] - 1) * block
                    elif replicate:
                        received[r] += block
        elif not isinstance(node, PLeaf):
            raise TypeError(f"unknown PNode {type(node).__name__}")
        out = plan.dist[id(node)]
        move(node.indices, cur, out)
        return out

    visit(plan.root)
    return received, ops
