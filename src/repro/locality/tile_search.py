"""Tile-size search for data locality (paper Section 6).

    "We define our tile size search space in the following way: if N_i
    is a loop range, we use a tile size starting from T_i = 1 (no
    tiling), and successively increasing T_i by doubling it until it
    reaches N_i."

The search evaluates the Section-6 cost model on the *actual* tiled loop
structure for every candidate combination.  Blocking for locality must
not change the operation count -- candidates that would re-execute work
(structures where tiling wraps a statement in unrelated tile loops) are
rejected.

Applied with the cache capacity this is cache blocking; with the
physical-memory capacity it is disk-access minimization (the paper uses
the same algorithm for both).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.expr.indices import Bindings, Index
from repro.codegen.builder import apply_tiling
from repro.codegen.loops import Alloc, Block, Loop, loop_op_count, walk
from repro.locality.cost_model import access_cost
from repro.robustness.budget import as_tracker
from repro.robustness.errors import BudgetExceeded


@dataclass
class LocalityResult:
    """Outcome of the locality tile search."""

    tile_sizes: Dict[Index, int]
    cost: int
    baseline_cost: int
    structure: Block
    evaluated: int
    table: List[Dict[str, object]] = field(default_factory=list)
    #: True when the search stopped early on budget exhaustion; the
    #: result is the best candidate evaluated before the cutoff
    degraded: bool = False
    degradation_reason: str = ""

    @property
    def improvement(self) -> float:
        """Miss-count ratio baseline/optimized (>= 1)."""
        return self.baseline_cost / self.cost if self.cost else float("inf")


def top_candidates(
    table: Sequence[Dict[str, object]], k: int
) -> List[Dict[str, object]]:
    """The ``k`` lowest-modeled-cost rows of a search table, untiled
    baseline always included.

    The tile search's ``table`` rows are ``{"tiles": {name: size},
    "cost": int}``.  Ties break toward fewer tiled indices, matching
    the search's own preference.  Nothing in the package calls this any
    more (the autotuner's tile dimension was its reader); it stays for
    ``benchmarks/e2e/replay.py``, which only a benchmark PR may edit.
    """
    ranked = sorted(
        table, key=lambda row: (row["cost"], len(row["tiles"]))
    )
    out = ranked[: max(1, k)]
    if not any(not row["tiles"] for row in out):
        untiled = next(
            (row for row in table if not row["tiles"]), None
        )
        if untiled is not None:
            out.append(untiled)
    return out


def candidate_sizes(extent: int) -> List[int]:
    """1, 2, 4, ..., extent (always including the full extent)."""
    sizes = []
    b = 1
    while b < extent:
        sizes.append(b)
        b *= 2
    sizes.append(extent)
    return sizes


def tileable_indices(block: Block) -> List[Index]:
    """Indices of full (untiled) loops appearing in the structure."""
    out = []
    seen = set()
    for node in walk(block):
        if isinstance(node, Loop) and node.var.role == "full":
            if node.var.index not in seen:
                seen.add(node.var.index)
                out.append(node.var.index)
    return out


def optimize_locality(
    block: Block,
    capacity: int,
    bindings: Optional[Bindings] = None,
    indices: Optional[Sequence[Index]] = None,
    max_combinations: int = 50_000,
    budget=None,
) -> LocalityResult:
    """Find tile sizes minimizing the modeled miss count.

    ``indices`` restricts the tiled loops (default: every full loop in
    the structure).  All arrays keep their global shapes -- this is pure
    iteration-space blocking, so the operation count is checked to be
    unchanged and candidates violating that are discarded.

    The search is *anytime*: when ``budget`` runs out it stops and
    returns the best candidate evaluated so far (the untiled baseline at
    worst), flagged ``degraded``.
    """
    tracker = as_tracker(budget)
    if indices is None:
        indices = tileable_indices(block)
    base_ops = loop_op_count(block, bindings)
    baseline = access_cost(block, capacity, bindings)
    keep_global = [n.array for n in walk(block) if isinstance(n, Alloc)]

    per_index: List[List[int]] = [
        candidate_sizes(i.extent(bindings)) for i in indices
    ]
    total = 1
    for sizes in per_index:
        total *= len(sizes)
    if total > max_combinations:
        raise ValueError(
            f"tile search space has {total} combinations; restrict "
            "`indices` or raise max_combinations"
        )

    best_cost = baseline
    best_tiles: Dict[Index, int] = {}
    best_structure = block
    evaluated = 0
    table: List[Dict[str, object]] = []
    degraded = False
    degradation_reason = ""
    # apply_tiling's legality errors depend on *which* indices are tiled,
    # never on the sizes: a rejected subset is judged once
    rejected = set()
    for combo in itertools.product(*per_index):
        if tracker is not None:
            try:
                tracker.tick(1, stage="locality")
            except BudgetExceeded as exc:
                tracker.degrade(
                    "locality",
                    exc,
                    "best tiling found so far"
                    if best_tiles
                    else "untiled structure",
                )
                degraded = True
                degradation_reason = exc.message
                break
        tiles = {
            idx: size
            for idx, size in zip(indices, combo)
            if size < idx.extent(bindings)
        }
        if not tiles:
            structure = block
            cost = baseline
        else:
            subset = frozenset(tiles)
            if subset in rejected:
                continue
            try:
                structure = apply_tiling(block, tiles, keep_global=keep_global)
            except ValueError:
                # tiling would double-count an accumulation, or reorder
                # a dependence between sibling nests
                rejected.add(subset)
                continue
            if loop_op_count(structure, bindings) != base_ops:
                continue  # blocking must not change the work
            cost = access_cost(structure, capacity, bindings)
        evaluated += 1
        table.append(
            {
                "tiles": {i.name: b for i, b in tiles.items()},
                "cost": cost,
            }
        )
        if cost < best_cost or (
            cost == best_cost and len(tiles) < len(best_tiles)
        ):
            best_cost = cost
            best_tiles = tiles
            best_structure = structure
    return LocalityResult(
        best_tiles,
        best_cost,
        baseline,
        best_structure,
        evaluated,
        table,
        degraded,
        degradation_reason,
    )
