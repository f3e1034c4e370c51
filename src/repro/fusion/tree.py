"""Computation trees over formula sequences.

A formula sequence (the output of operation minimization) is a list of
statements, each evaluated by one perfectly-nested loop nest.  The
*computation tree* makes the producer-consumer structure explicit: the
node for a statement has one child per distinct temporary (or input, or
function evaluation) its right-hand side references.

Fusion reasoning requires a tree: each intermediate must have exactly
one consumer.  Sequences with multi-consumer temporaries (created by
CSE) are still accepted -- the extra consumer edges are simply marked
non-fusible, which is conservative and preserves correctness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.expr.ast import Statement, TensorRef
from repro.expr.canonical import flatten
from repro.expr.indices import Bindings, Index, total_extent
from repro.expr.tensor import Tensor


@dataclass
class CompNode:
    """One node of the computation tree.

    Attributes
    ----------
    stmt:
        The producing statement, or ``None`` for leaves (program inputs
        and primitive function evaluations).
    array:
        The tensor produced (or the input/function tensor itself).
    loop_indices:
        Indices of the node's loop nest: the statement's free indices
        plus its summation indices.  Empty for leaves.
    children:
        Producer nodes of referenced temporaries/inputs, in reference
        order.
    fusible:
        Per-child flag: ``False`` when the child's array has other
        consumers (fusion of that edge is disallowed).
    """

    stmt: Optional[Statement]
    array: Tensor
    loop_indices: FrozenSet[Index]
    children: List["CompNode"] = field(default_factory=list)
    fusible: List[bool] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return self.stmt is None

    @property
    def is_input_leaf(self) -> bool:
        return self.stmt is None and not self.array.is_function

    @property
    def array_indices(self) -> Tuple[Index, ...]:
        return self.array.indices

    def array_size(self, bindings: Optional[Bindings] = None) -> int:
        return total_extent(self.array.indices, bindings)

    def common_indices(self, child: "CompNode") -> FrozenSet[Index]:
        """Indices fusible along the edge to ``child``: loops both nests
        share.  Leaves have no loops, hence nothing to fuse."""
        return self.loop_indices & child.loop_indices

    def subtree(self) -> List["CompNode"]:
        out = [self]
        for child in self.children:
            out.extend(child.subtree())
        return out

    def internal_nodes(self) -> List["CompNode"]:
        return [n for n in self.subtree() if not n.is_leaf]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kids = ",".join(c.array.name for c in self.children)
        return f"CompNode({self.array.name}; loops={{{','.join(sorted(i.name for i in self.loop_indices))}}}; children=[{kids}])"


def _statement_loops(stmt: Statement) -> FrozenSet[Index]:
    """Loop indices of the direct loop nest for a statement."""
    terms = flatten(stmt.expr)
    loops: Set[Index] = set(stmt.expr.free)
    for _, sums, _ in terms:
        loops |= sums
    return frozenset(loops)


def build_forest(statements: Sequence[Statement]) -> List[CompNode]:
    """Build the computation forest of a formula sequence.

    Temporaries consumed by exactly one later statement hang below their
    consumer (a fusible edge).  Temporaries with several consumers (CSE
    products) become roots of their own trees and appear as unfusible
    leaf references in each consumer -- a conservative treatment that
    keeps each tree a genuine tree for the fusion DP while counting the
    shared array's storage exactly once.  A statement no other
    statement reads is a result of the program and roots a tree too.

    Trees come in program order; the final statement's is last.
    """
    if not statements:
        raise ValueError("empty formula sequence")

    producers: Dict[str, Statement] = {}
    for stmt in statements:
        if stmt.result.name in producers:
            raise ValueError(
                f"array {stmt.result.name!r} produced twice; fusion operates "
                "on single-assignment formula sequences"
            )
        producers[stmt.result.name] = stmt

    # a temporary is shared when *distinct statements* consume it, or
    # when one statement references it under different index tuples
    # (positional dimension elimination would be ambiguous then); two
    # identical references within one statement are one consumer nest
    consumer_counts: Dict[str, int] = {}
    renamed: Set[str] = set()
    for stmt in statements:
        tuples_here: Dict[str, set] = {}
        for ref in stmt.expr.refs():
            name = ref.tensor.name
            if name in producers and producers[name] is not stmt:
                tuples_here.setdefault(name, set()).add(tuple(ref.indices))
                # a reference under indices other than the producer's
                # declared output indices (e.g. D(j) consumed as D(i)
                # inside a contraction) is a *transposed/renamed* use:
                # the producer's loops are not the consumer's loops
                # even when the Index objects coincide, so fusing the
                # edge would misalign the nests.  Materialize instead.
                if tuple(ref.indices) != tuple(
                    producers[name].result.indices
                ):
                    renamed.add(name)
        for name, tuples in tuples_here.items():
            consumer_counts[name] = consumer_counts.get(name, 0) + len(tuples)

    shared = {name for name, count in consumer_counts.items() if count > 1}
    shared |= renamed

    def node_for(stmt: Statement) -> CompNode:
        name = stmt.result.name
        node = CompNode(stmt, stmt.result, _statement_loops(stmt))
        seen_children: Set[str] = set()
        for ref in stmt.expr.refs():
            cname = ref.tensor.name
            if cname == name or cname in seen_children:
                continue
            seen_children.add(cname)
            if cname in producers and cname not in shared:
                node.children.append(node_for(producers[cname]))
                node.fusible.append(True)
            else:
                # input array, function evaluation, or shared temporary:
                # an unfusible leaf
                node.children.append(CompNode(None, ref.tensor, frozenset()))
                node.fusible.append(False)
        return node

    return [
        node_for(stmt)
        for stmt in statements[:-1]
        if stmt.result.name in shared
        or stmt.result.name not in consumer_counts
    ] + [node_for(statements[-1])]


def build_tree(statements: Sequence[Statement]) -> CompNode:
    """Build the computation tree of a formula sequence that has no
    multi-consumer temporaries and one result (the common case).  The
    last statement is the root."""
    forest = build_forest(statements)
    if len(forest) != 1:
        raise ValueError(
            "sequence has shared temporaries or several results; use "
            "build_forest instead"
        )
    return forest[0]
