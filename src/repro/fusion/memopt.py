"""Memory-minimization dynamic program (paper Section 5).

Bottom-up DP over the computation tree.  The state at a subtree root is
the *ordered* sequence of indices fused with its parent (outermost
first): the fused loops must be the outermost loops of the node, so any
two fusion sequences meeting at a node must be prefixes of one common
loop order -- equivalently, pairwise one must be a prefix of the other.
The ordering is what rules out partially-overlapping fusion chains (see
:mod:`repro.fusion.fusion_graph`).

For every candidate parent-fusion sequence the DP keeps the minimal
total temporary storage achievable in the subtree, merging child
solution tables under the prefix-chain compatibility condition -- the
paper's "pareto-optimal fusion configurations at each node" with
(constraint, memory) as the two metrics: here the constraint *is* the
key of the solution table, and only memory is minimized per key.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.expr.indices import Bindings, Index, total_extent
from repro.fusion.tree import CompNode
from repro.robustness.budget import as_tracker
from repro.robustness.errors import BudgetExceeded

#: An ordered fusion sequence (outermost fused loop first).
Seq = Tuple[Index, ...]


def _is_prefix(short: Seq, long: Seq) -> bool:
    return len(short) <= len(long) and long[: len(short)] == short


def prefix_chain_compatible(seqs: Sequence[Seq]) -> bool:
    """True if the sequences can all be prefixes of one loop order."""
    ordered = sorted(seqs, key=len)
    for a, b in zip(ordered, ordered[1:]):
        if not _is_prefix(a, b):
            return False
    return True


def ordered_subsets(indices: FrozenSet[Index], cap: int = 50000) -> List[Seq]:
    """All ordered subsets (permutations of subsets) of an index set."""
    items = sorted(indices)
    out: List[Seq] = [()]
    for r in range(1, len(items) + 1):
        for combo in itertools.permutations(items, r):
            out.append(combo)
            if len(out) > cap:
                raise ValueError(
                    f"fusion search space too large ({len(items)} candidate "
                    "indices on one edge)"
                )
    return out


def reduced_size(
    array_indices: Sequence[Index],
    fused: Seq,
    bindings: Optional[Bindings] = None,
) -> int:
    """Array size after eliminating fused dimensions."""
    drop = set(fused)
    return total_extent([i for i in array_indices if i not in drop], bindings)


@dataclass
class FusionDecision:
    """Chosen fusion for one tree node: the sequence on the parent edge
    and, per child, the sequence on that child edge."""

    node: CompNode
    parent_fusion: Seq
    child_fusions: Tuple[Seq, ...]
    loop_order: Tuple[Index, ...] = ()


@dataclass
class FusionResult:
    """Outcome of the DP for one tree."""

    root: CompNode
    total_memory: int
    decisions: Dict[int, FusionDecision]  # keyed by id(node)
    bindings: Optional[Bindings] = None

    def fusion_of(self, node: CompNode) -> Seq:
        return self.decisions[id(node)].parent_fusion

    def array_dims(self, node: CompNode) -> Tuple[Index, ...]:
        """Remaining dimensions of the node's array after fusion."""
        fused = set(self.fusion_of(node))
        return tuple(i for i in node.array.indices if i not in fused)

    def memory_by_array(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for node_key, dec in self.decisions.items():
            node = dec.node
            if node.is_leaf:
                continue
            out[node.array.name] = reduced_size(
                node.array.indices, dec.parent_fusion, self.bindings
            )
        return out


def minimize_memory(
    root: CompNode,
    bindings: Optional[Bindings] = None,
    include_output: bool = False,
    budget=None,
) -> FusionResult:
    """Run the fusion DP; returns the minimal-total-memory configuration.

    ``include_output=False`` (default) excludes the root's result array
    from the objective -- it must be stored anyway; the paper's metric
    is temporary storage.

    ``budget`` bounds the DP (each candidate fusion state ticks); on
    exhaustion the stage degrades to the no-fusion baseline -- every
    temporary at full size, still a correct loop structure.
    """
    tracker = as_tracker(budget)
    try:
        return _minimize_memory_dp(root, bindings, include_output, tracker)
    except BudgetExceeded as exc:
        if tracker is not None:
            tracker.degrade("fusion", exc, "no-fusion baseline")
        return unfused_result(root, bindings, include_output)
    except ValueError as exc:
        # the ordered-subsets cap is a search-space blowup: under a
        # budget it degrades like exhaustion; without one it still fails
        if tracker is None:
            raise
        tracker.degrade(
            "fusion",
            BudgetExceeded(str(exc), stage="fusion"),
            "no-fusion baseline",
        )
        return unfused_result(root, bindings, include_output)


def unfused_result(
    root: CompNode,
    bindings: Optional[Bindings] = None,
    include_output: bool = False,
) -> FusionResult:
    """The no-fusion baseline: empty fusion sequences everywhere, every
    non-leaf temporary stored at its full declared size."""
    decisions: Dict[int, FusionDecision] = {}
    memory = 0
    for node in root.subtree():
        if node.is_leaf:
            decisions[id(node)] = FusionDecision(node, (), ())
            continue
        decisions[id(node)] = FusionDecision(
            node,
            (),
            tuple(() for _ in node.children),
            loop_order=tuple(sorted(node.loop_indices)),
        )
        if node is not root or include_output:
            memory += node.array_size(bindings)
    return FusionResult(root, memory, decisions, bindings)


def _comparable(seqs: Sequence[Seq]):
    """``lookup(seq)``: the positions in ``seqs`` of every sequence
    prefix-comparable with ``seq`` (a prefix of it, or extended by it),
    in ascending order -- the pairs a DP merge can accept."""
    position = {seq: p for p, seq in enumerate(seqs)}
    extended: Dict[Seq, List[int]] = {}
    for p, seq in enumerate(seqs):
        for n in range(len(seq) + 1):
            extended.setdefault(seq[:n], []).append(p)

    def lookup(seq: Seq) -> List[int]:
        longer = extended.get(seq, [])
        shorter = [
            position[seq[:n]] for n in range(len(seq)) if seq[:n] in position
        ]
        return sorted(shorter + longer) if shorter else longer

    return lookup


def _minimize_memory_dp(
    root: CompNode,
    bindings: Optional[Bindings],
    include_output: bool,
    tracker,
) -> FusionResult:
    # indices interned to ints in sorted order, so sequences hash and
    # compare as int tuples and ordered_subsets keeps its order
    interned = sorted(
        {i for n in root.subtree() for i in n.array.indices}
        | {i for n in root.subtree() for i in n.loop_indices}
    )
    code = {index: k for k, index in enumerate(interned)}
    subsets_of: Dict[FrozenSet[int], List[Seq]] = {}

    def subsets(indices) -> List[Seq]:
        key = frozenset(code[i] for i in indices)
        if key not in subsets_of:
            subsets_of[key] = ordered_subsets(key)
        return subsets_of[key]

    # solution tables: per node, {parent_seq: (memory, child_seq_choices)}
    tables: Dict[int, Dict[Seq, Tuple[int, Tuple[Seq, ...]]]] = {}

    def solve(node: CompNode) -> Dict[Seq, Tuple[int, Tuple[Seq, ...]]]:
        cached = tables.get(id(node))
        if cached is not None:
            return cached
        if node.is_leaf:
            # leaves hold no temporary storage and fuse with nothing
            table = {(): (0, ())}
            tables[id(node)] = table
            return table

        child_tables: List[Dict[Seq, Tuple[int, Tuple[Seq, ...]]]] = []
        child_options: List[List[Seq]] = []
        for child, ok in zip(node.children, node.fusible):
            tab = solve(child)
            child_tables.append(tab)
            if not ok or child.is_leaf:
                child_options.append([()])
                continue
            common = node.common_indices(child) & set(
                child.array.indices
            )
            opts = [seq for seq in subsets(common) if seq in tab]
            child_options.append(opts or [()])

        # candidate parent sequences: ordered subsets of the node's
        # array dimensions that are also loops of the node
        parent_cands = subsets(set(node.array.indices) & node.loop_indices)

        # sequential DP over children instead of a cartesian product:
        # any family of sequences meeting at a node must be pairwise
        # prefix-comparable, i.e. all prefixes of the longest one --
        # so "the longest sequence so far" is a sufficient state.  Only
        # comparable pairs are visited, in the order of the full
        # (state, option) product, so ``<`` breaks ties as it would
        # there; the budget is charged for the full product.
        states: Dict[Seq, Tuple[int, Tuple[Seq, ...]]] = {(): (0, ())}
        for k, opts in enumerate(child_options):
            if tracker is not None:
                tracker.tick(len(states) * len(opts), stage="fusion")
            comparable = _comparable(opts)
            new_states: Dict[Seq, Tuple[int, Tuple[Seq, ...]]] = {}
            for longest, (mem, picks) in states.items():
                for p in comparable(longest):
                    seq = opts[p]
                    new_longest = longest if len(seq) <= len(longest) else seq
                    total = mem + child_tables[k][seq][0]
                    cur = new_states.get(new_longest)
                    if cur is None or total < cur[0]:
                        new_states[new_longest] = (total, picks + (seq,))
            states = new_states

        if tracker is not None:
            tracker.tick(len(parent_cands) * len(states), stage="fusion")
        extents = [i.extent(bindings) for i in node.array.indices]
        dims = [code[i] for i in node.array.indices]
        solutions = list(states.values())
        comparable = _comparable(list(states))
        table: Dict[Seq, Tuple[int, Tuple[Seq, ...]]] = {}
        for pseq in parent_cands:
            own = 1
            for dim, extent in zip(dims, extents):
                if dim not in pseq:
                    own *= extent
            for p in comparable(pseq):
                mem, picks = solutions[p]
                total = mem + own
                cur = table.get(pseq)
                if cur is None or total < cur[0]:
                    table[pseq] = (total, picks)
        tables[id(node)] = table
        return table

    root_table = solve(root)
    best_mem, best_children = root_table[()]
    if not include_output:
        best_mem -= total_extent(root.array.indices, bindings)

    # reconstruct decisions top-down
    decisions: Dict[int, FusionDecision] = {}

    def decode(seq: Seq) -> Seq:
        return tuple(interned[k] for k in seq)

    def reconstruct(node: CompNode, pseq: Seq) -> None:
        if node.is_leaf:
            decisions[id(node)] = FusionDecision(node, decode(pseq), ())
            return
        _, child_seqs = tables[id(node)][pseq]
        longest = sorted([pseq, *child_seqs], key=len)[-1]
        rest = sorted(
            code[i] for i in node.loop_indices if code[i] not in longest
        )
        decisions[id(node)] = FusionDecision(
            node,
            decode(pseq),
            tuple(decode(seq) for seq in child_seqs),
            loop_order=decode(longest + tuple(rest)),
        )
        for child, cseq in zip(node.children, child_seqs):
            reconstruct(child, cseq)

    reconstruct(root, ())
    return FusionResult(root, best_mem, decisions, bindings)
