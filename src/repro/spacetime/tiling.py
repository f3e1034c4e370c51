"""Tile-size search for space-time trade-offs (paper Section 5, step 2).

Given a fusion/recomputation configuration from
:func:`repro.spacetime.tradeoff.tradeoff_search`, the recomputation
indices are split into tiling / intra-tile loop pairs: fusion then
happens at *tile* granularity, so recomputation is performed once per
tiling-loop iteration instead of once per index value, in exchange for
block-sized (``B``-extent) storage for the temporaries whose fused
dimensions were tiled (paper Fig. 4).

``search_tile_sizes`` evaluates candidate block sizes (doubling from 1,
as in Section 6's search-space rule) on the *actual generated loop
structure* -- operation count and memory are measured by the IR
analyses, not estimated -- and returns the cheapest structure within the
memory limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.expr.indices import Bindings, Index
from repro.codegen.builder import apply_tiling, build_fused
from repro.codegen.loops import Block, loop_op_count, total_memory
from repro.fusion.memopt import FusionResult
from repro.locality.tile_search import candidate_sizes
from repro.spacetime.tradeoff import EdgeChoice, TradeoffSolution


def _without(indices, drop) -> frozenset:
    return frozenset(i for i in indices if i not in drop)


def tiled_structure(
    solution: TradeoffSolution,
    tile_sizes: Mapping[Index, int],
) -> Block:
    """Realize ``solution`` with the given indices tiled.

    Tiled indices are removed from every fused set (fusion happens at
    tile granularity through the hoisted tile loops); the remaining
    fusion structure is rebuilt and then tiled with the root output kept
    global.
    """
    drop = set(tile_sizes)
    if not drop:
        return build_fused(solution.decisions())

    edges = {
        key: EdgeChoice(
            _without(choice.fused, drop), _without(choice.redundant, drop)
        )
        for key, choice in solution.edges.items()
    }
    families = {
        key: tuple(
            sorted(
                {s2 for s2 in (_without(s, drop) for s in fams) if s2},
                key=lambda s: (len(s), sorted(i.name for i in s)),
            )
        )
        for key, fams in (solution._families or {}).items()
    }
    reduced = TradeoffSolution(
        solution.root,
        solution.memory,
        solution.ops,
        edges,
        solution.bindings,
    )
    reduced._families = families
    fused = build_fused(reduced.decisions())
    return apply_tiling(
        fused, dict(tile_sizes), keep_global=[solution.root.array.name]
    )


@dataclass
class TileSearchResult:
    """Outcome of the block-size search."""

    block_size: int
    tile_sizes: Dict[Index, int]
    structure: Block
    ops: int
    memory: int
    candidates: List[Dict[str, int]] = field(default_factory=list)


def search_tile_sizes(
    solution: TradeoffSolution,
    memory_limit: Optional[int] = None,
    bindings: Optional[Bindings] = None,
    include_output: bool = False,
    budget=None,
) -> TileSearchResult:
    """Search uniform block sizes (1, 2, 4, ..., N) for the solution's
    recomputation indices; return the minimum-operation structure whose
    total memory fits the limit.

    ``include_output=False`` excludes the root output array from the
    memory measure (it exists in every variant).

    ``budget`` bounds the candidate evaluations; on exhaustion the best
    feasible candidate found so far is returned (anytime search), or
    :class:`~repro.robustness.errors.BudgetExceeded` propagates when
    none was evaluated yet.
    """
    from repro.robustness.budget import as_tracker
    from repro.robustness.errors import BudgetExceeded

    tracker = as_tracker(budget)
    indices = sorted(solution.recomputation_indices())
    if not indices:
        block = tiled_structure(solution, {})
        mem = total_memory(block, bindings)
        if not include_output:
            mem -= _output_size(solution, bindings)
        return TileSearchResult(
            0, {}, block, loop_op_count(block, bindings), mem
        )

    sizes = candidate_sizes(max(i.extent(bindings) for i in indices))

    best: Optional[TileSearchResult] = None
    candidates: List[Dict[str, int]] = []
    for b in sizes:
        if tracker is not None:
            try:
                tracker.tick(1, stage="spacetime")
            except BudgetExceeded as exc:
                if best is None:
                    raise
                tracker.degrade(
                    "spacetime", exc, "best tile size found so far"
                )
                break  # anytime: keep the best candidate found so far
        tiles = {i: min(b, i.extent(bindings)) for i in indices}
        block = tiled_structure(solution, tiles)
        ops = loop_op_count(block, bindings)
        mem = total_memory(block, bindings)
        if not include_output:
            mem -= _output_size(solution, bindings)
        feasible = memory_limit is None or mem <= memory_limit
        candidates.append(
            {"B": b, "ops": ops, "memory": mem, "feasible": int(feasible)}
        )
        if not feasible:
            continue
        if best is None or ops < best.ops or (ops == best.ops and mem < best.memory):
            best = TileSearchResult(b, tiles, block, ops, mem)
    if best is None:
        raise ValueError(
            "no tile size satisfies the memory limit; the space-time "
            "trade-off cannot make this configuration fit"
        )
    best.candidates = candidates
    return best


def _output_size(solution: TradeoffSolution, bindings: Optional[Bindings]) -> int:
    from repro.expr.indices import total_extent

    return total_extent(solution.root.array.indices, bindings)


def refine_tile_sizes(
    solution: TradeoffSolution,
    start: TileSearchResult,
    memory_limit: Optional[int] = None,
    bindings: Optional[Bindings] = None,
    include_output: bool = False,
    max_rounds: int = 4,
) -> TileSearchResult:
    """Coordinate-descent refinement to *per-index* tile sizes.

    Starting from a uniform-B solution (see :func:`search_tile_sizes`),
    each recomputation index's block size is varied over the doubling
    candidates while the others are held fixed, keeping any strict
    improvement in (ops, memory) under the limit.  Converges in a few
    rounds; never returns something worse than ``start``.
    """
    if not start.tile_sizes:
        return start
    best_tiles = dict(start.tile_sizes)
    best_ops, best_mem = start.ops, start.memory
    best_structure = start.structure
    out_size = _output_size(solution, bindings) if not include_output else 0

    improved = True
    rounds = 0
    while improved and rounds < max_rounds:
        improved = False
        rounds += 1
        for idx in sorted(best_tiles):
            for b in candidate_sizes(idx.extent(bindings)):
                if b == best_tiles[idx]:
                    continue
                trial = dict(best_tiles)
                trial[idx] = b
                block = tiled_structure(solution, trial)
                ops = loop_op_count(block, bindings)
                mem = total_memory(block, bindings) - out_size
                if memory_limit is not None and mem > memory_limit:
                    continue
                if ops < best_ops or (ops == best_ops and mem < best_mem):
                    best_tiles = trial
                    best_ops, best_mem = ops, mem
                    best_structure = block
                    improved = True
    return TileSearchResult(
        max(best_tiles.values()),
        best_tiles,
        best_structure,
        best_ops,
        best_mem,
        start.candidates,
    )
