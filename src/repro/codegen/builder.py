"""Construction of loop structures from formula sequences.

Three entry points mirroring the paper's figures:

* :func:`build_unfused` -- one perfect loop nest per statement
  (Fig. 1(b), Fig. 2);
* :func:`build_fused` -- the imperfectly-nested structure realizing a
  fusion configuration from :mod:`repro.fusion.memopt` (Fig. 1(c),
  Fig. 3);
* :func:`apply_tiling` -- split chosen indices into tile/intra-tile loop
  pairs, hoisting the tile loops outermost (Fig. 4).

Correctness rules encoded here:

* a node's array is allocated (and zeroed) at the depth where it is
  fused into its consumer, with the fused dimensions eliminated;
* in tiled code, arrays behind ``keep_global`` (the program outputs)
  keep their full dimensions and are zeroed once, outside the tile
  loops; accumulating statements targeting them must involve every
  tiled index, otherwise contributions would be double-counted --
  :func:`untileable` checks this, and every other reason tiling an
  index is unsound, before anything is built;
* internal (per-tile) arrays index tiled dimensions by the intra-tile
  variable only; external arrays and function evaluations reconstruct
  the global index as ``tile*B + intra``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.expr.ast import Statement, TensorRef
from repro.expr.canonical import flatten
from repro.expr.indices import Bindings, Index
from repro.codegen.loops import (
    Access,
    Alloc,
    Assign,
    Block,
    FuncEval,
    Loop,
    LoopVar,
    Node,
    Sub,
    Term,
    ZeroArr,
    validate,
    walk,
)
from repro.fusion.memopt import FusionResult
from repro.fusion.tree import CompNode


def _full(i: Index) -> Sub:
    return (LoopVar(i),)


def _term_of_ref(ref: TensorRef, dims: Optional[Sequence[Index]] = None) -> Term:
    """Build the RHS term for a reference; ``dims`` restricts to the
    surviving dimensions of a fusion-reduced array."""
    use = tuple(ref.indices if dims is None else dims)
    subs = tuple(_full(i) for i in use)
    if ref.tensor.is_function:
        return FuncEval(ref.tensor, tuple(_full(i) for i in ref.indices))
    return Access(ref.tensor.name, subs)


def _statement_assigns(
    stmt: Statement,
    target_dims: Optional[Sequence[Index]] = None,
    child_dims: Optional[Mapping[str, Tuple[Index, ...]]] = None,
) -> List[Tuple[Tuple[Index, ...], Assign]]:
    """Innermost assignments of one statement.

    Returns ``[(loop_index_set_of_term, Assign)]``.  ``child_dims`` maps
    fusion-reduced array names to their surviving dimensions.
    """
    child_dims = child_dims or {}
    terms = flatten(stmt.expr)
    t_dims = tuple(stmt.result.indices if target_dims is None else target_dims)
    target = Access(stmt.result.name, tuple(_full(i) for i in t_dims))
    out: List[Tuple[Tuple[Index, ...], Assign]] = []
    for coef, sums, refs in terms:
        rhs: List[Term] = []
        for ref in refs:
            dims = child_dims.get(ref.tensor.name)
            rhs.append(_term_of_ref(ref, dims))
        accumulate = bool(sums) or len(terms) > 1 or stmt.accumulate
        loop_set = tuple(sorted(set(stmt.expr.free) | set(sums)))
        out.append(
            (loop_set, Assign(target, tuple(rhs), accumulate, coef))
        )
    return out


def _nest(order: Sequence[Index], inner: Block) -> Block:
    """Wrap ``inner`` in loops over ``order`` (first = outermost)."""
    block = inner
    for idx in reversed(order):
        block = (Loop(LoopVar(idx), block),)
    return block


def build_unfused(
    statements: Sequence[Statement],
    loop_orders: Optional[Mapping[str, Sequence[Index]]] = None,
) -> Block:
    """One perfect loop nest per statement (paper Fig. 1(b) / Fig. 2).

    ``loop_orders`` optionally fixes the loop order per result name;
    the default is result dimensions (declared order) then summation
    indices (sorted).
    """
    out: List[Node] = []
    produced: Set[str] = set()
    for stmt in statements:
        name = stmt.result.name
        if name not in produced:
            out.append(
                Alloc(name, tuple(_full(i) for i in stmt.result.indices))
            )
            produced.add(name)
        assigns = _statement_assigns(stmt)
        needs_zero = any(a.accumulate for _, a in assigns) and not stmt.accumulate
        if needs_zero:
            out.append(ZeroArr(name))
        for loop_set, assign in assigns:
            if loop_orders and name in loop_orders:
                order = [i for i in loop_orders[name] if i in loop_set]
                order += sorted(set(loop_set) - set(order))
            else:
                order = list(stmt.result.indices)
                order += sorted(set(loop_set) - set(order))
            out.extend(_nest(order, (assign,)))
    block = tuple(out)
    validate(block)
    return block


def _needs_zero(stmt: Statement) -> bool:
    """Whether the direct implementation accumulates (target must be
    zeroed first)."""
    terms = flatten(stmt.expr)
    return (
        any(sums for _, sums, _ in terms)
        or len(terms) > 1
        or stmt.accumulate
    )


def build_fused(result: FusionResult) -> Block:
    """Emit the imperfectly-nested structure of a fusion configuration.

    The loops fused along a chain are physically shared: a node whose
    parent-fusion sequence has length ``d`` contributes its allocation,
    zeroing, remaining loops, and statements at depth ``d`` of the shared
    nest.  A child fused on a *shorter* sequence than its consumer's own
    parent fusion is hoisted to the matching shallower depth of an
    ancestor's emission region ("bubbling").
    """
    decisions = result.decisions

    def array_dims(node: CompNode) -> Tuple[Index, ...]:
        dec = decisions[id(node)]
        fused = set(dec.parent_fusion)
        return tuple(i for i in node.array.indices if i not in fused)

    def emit(
        node: CompNode, prefix: Tuple[Index, ...]
    ) -> Tuple[Block, Dict[int, List[Node]]]:
        """Return (block placed at depth len(prefix), pending items for
        shallower depths keyed by absolute depth)."""
        dec = decisions[id(node)]
        order = dec.loop_order
        if order[: len(prefix)] != tuple(prefix):
            raise ValueError(
                f"loop order of {node.array.name} does not extend its "
                "fusion prefix"
            )
        remaining = order[len(prefix):]

        pending: Dict[int, List[Node]] = {}
        local: Dict[int, List[Node]] = {}

        def place(depth: int, items: List[Node]) -> None:
            target = pending if depth < len(prefix) else local
            target.setdefault(depth, []).extend(items)

        for child, cseq in zip(node.children, dec.child_fusions):
            if child.is_leaf:
                continue
            dims = array_dims(child)
            items: List[Node] = [
                Alloc(child.array.name, tuple(_full(i) for i in dims))
            ]
            if _needs_zero(child.stmt):
                items.append(ZeroArr(child.array.name))
            cblock, cpending = emit(child, cseq)
            for depth, its in cpending.items():
                place(depth, its)
            items.extend(cblock)
            place(len(cseq), items)

        child_dims = {
            child.array.name: array_dims(child)
            for child in node.children
            if not child.is_leaf
        }
        assigns = _statement_assigns(node.stmt, array_dims(node), child_dims)
        for loop_set, _ in assigns:
            if set(loop_set) != set(node.loop_indices):
                raise ValueError(
                    f"node {node.array.name}: per-term loop sets differ; "
                    "fuse only single-loop-nest statements"
                )
        place(len(order), [a for _, a in assigns])

        def level(depth: int) -> Block:
            items: List[Node] = list(local.get(depth, []))
            rel = depth - len(prefix)
            if rel < len(remaining):
                # children/assigns at this depth run before deeper loops
                loop_body = level(depth + 1)
                items.append(Loop(LoopVar(remaining[rel]), loop_body))
            return tuple(items)

        return level(len(prefix)), pending

    root = result.root
    dims = tuple(root.array.indices)  # root fusion is empty
    top: List[Node] = [Alloc(root.array.name, tuple(_full(i) for i in dims))]
    if _needs_zero(root.stmt):
        top.append(ZeroArr(root.array.name))
    block_root, pending = emit(root, ())
    if pending:
        raise AssertionError("root emission cannot have pending items")
    top.extend(block_root)
    block = tuple(top)
    validate(block)
    return block


def untileable(
    block: Block,
    indices: Sequence[Index],
    keep_global: Sequence[str] = (),
) -> Dict[Index, str]:
    """The first reason tiling each of ``indices`` for locality is unsound.

    Every reason concerns one index, so a set of indices may be tiled
    together, at any sizes, exactly when none of them is returned.
    Besides what :func:`apply_tiling` rejects, an index is unsound when
    its tile loop would wrap a statement that does not iterate it,
    repeating that statement's work once per tile: blocking for
    locality must not change the operation count.  Nothing is built.
    """
    reasons: Dict[Index, str] = {}
    for bad, message in _hazards(block, set(keep_global), indices, True):
        for idx in bad:
            reasons.setdefault(idx, message.format(idx.name))
    return {i: reasons[i] for i in indices if i in reasons}


def _statements(block: Block, iterated: Set[Index] = frozenset()):
    """Yield every ``(Assign, indices of its enclosing loops)``."""
    for node in block:
        if isinstance(node, Loop):
            yield from _statements(node.body, iterated | {node.var.index})
        elif isinstance(node, Assign):
            yield node, iterated


def _dims(acc: Access) -> Tuple[Index, ...]:
    return tuple(s[0].index for s in acc.subs)


def _hazards(block: Block, keep: Set[str], indices, work: bool):
    """Yield ``(indices, message)`` per reason tiling is unsound, in the
    order :func:`apply_tiling` reports them; ``{}`` in the message stands
    for the index names."""
    # A global array's accumulation runs once per tile, so it must
    # mention every tiled index.
    for node, _ in _statements(block):
        if node.accumulate and node.target.array in keep:
            mentioned = {
                v.index for t in (node.target, *node.terms) for v in t.vars()
            }
            yield tuple(i for i in indices if i not in mentioned), (
                "tiling over {} would double-count the accumulation into "
                f"global array {node.target.array!r}"
            )

    # Hoisting the tile loops outermost interleaves sibling top-level
    # nests tile by tile.  That reorders a producer nest's writes with a
    # later nest's reads of the same array, which is only sound when the
    # reads stay inside the tile that produced them: the consumer must
    # access the array under exactly the producer's target subscripts,
    # and no tiled loop of the producer may fall outside those
    # subscripts (a partial accumulation would be observed mid-stream).
    infos = []
    for top in block:
        loops = {n.var.index for n in walk((top,)) if isinstance(n, Loop)}
        writes: Dict[str, Set[Tuple[Index, ...]]] = {}
        reads: Dict[str, Set[Tuple[Index, ...]]] = {}
        for n, _ in _statements((top,)):
            writes.setdefault(n.target.array, set()).add(_dims(n.target))
            for t in n.terms:
                if isinstance(t, Access):
                    reads.setdefault(t.array, set()).add(_dims(t))
        infos.append((loops, writes, reads))
    for wi, (wloops, wwrites, _) in enumerate(infos):
        for rloops, _, rreads in infos[wi + 1:]:
            for array, wsubs in wwrites.items():
                rsubs = rreads.get(array)
                if not rsubs:
                    continue
                for idx in indices:
                    partial = any(idx not in subs for subs in wsubs)
                    misaligned = idx in rloops and wsubs != rsubs
                    if idx in wloops and (partial or misaligned):
                        yield (idx,), (
                            "tiling over {} would reorder the dependence "
                            f"on {array!r} between sibling loop nests"
                        )

    if any(isinstance(n, Loop) and n.var.role != "full" for n in walk(block)):
        yield tuple(indices), "apply_tiling expects untiled input"

    for node, iterated in _statements(block):
        if work and node.ops_per_iteration():
            yield tuple(i for i in indices if i not in iterated), (
                f"tiling over {{}} would repeat `{node}` once per tile"
            )


def apply_tiling(
    block: Block,
    tiles: Mapping[Index, int],
    keep_global: Sequence[str] = (),
) -> Block:
    """Split the given indices into tile/intra-tile loop pairs.

    Tile loops are hoisted outermost (paper Fig. 4).  Arrays named in
    ``keep_global`` keep full dimensions, are allocated and zeroed once
    outside the tile loops, and their accumulating statements must
    mention every tiled index.  A tiling :func:`untileable` rejects
    raises ``ValueError`` with its first reason, before anything is
    built.
    """
    if not tiles:
        return block
    keep = set(keep_global)

    # internal arrays: allocated in the block and not kept global
    allocated = {n.array for n in walk(block) if isinstance(n, Alloc)}
    unknown = keep - allocated
    if unknown:
        raise ValueError(f"keep_global names not allocated: {sorted(unknown)}")
    internal = allocated - keep

    for bad, message in _hazards(block, keep, sorted(tiles), work=False):
        if bad:
            raise ValueError(
                message.format(", ".join(sorted(i.name for i in bad)))
            )

    def tile_sub(sub: Sub, global_view: bool) -> Sub:
        idx = sub[0].index
        if idx not in tiles:
            return sub
        b = tiles[idx]
        if global_view:
            return (LoopVar(idx, "tile", b), LoopVar(idx, "intra", b))
        return (LoopVar(idx, "intra", b),)

    def tile_access(acc: Access) -> Access:
        global_view = acc.array not in internal
        return Access(
            acc.array, tuple(tile_sub(s, global_view) for s in acc.subs)
        )

    def tile_term(term: Term) -> Term:
        if isinstance(term, FuncEval):
            return FuncEval(
                term.func, tuple(tile_sub(s, True) for s in term.subs)
            )
        return tile_access(term)

    hoisted: List[Node] = []

    def transform(blk: Block) -> Block:
        out: List[Node] = []
        for node in blk:
            if isinstance(node, Loop):
                var = node.var
                body = transform(node.body)
                if var.index in tiles:
                    var = LoopVar(var.index, "intra", tiles[var.index])
                out.append(Loop(var, body))
            elif isinstance(node, Alloc):
                if node.array in keep:
                    hoisted.append(node)
                else:
                    out.append(
                        Alloc(
                            node.array,
                            tuple(tile_sub(s, False) for s in node.dims),
                        )
                    )
            elif isinstance(node, ZeroArr):
                if node.array in keep:
                    hoisted.append(node)
                else:
                    out.append(node)
            elif isinstance(node, Assign):
                out.append(
                    Assign(
                        tile_access(node.target),
                        tuple(tile_term(t) for t in node.terms),
                        node.accumulate,
                        node.coef,
                    )
                )
            else:  # pragma: no cover - exhaustive
                raise TypeError(f"unknown node {type(node).__name__}")
        return tuple(out)

    body = transform(block)
    for idx in sorted(tiles, reverse=True):
        body = (Loop(LoopVar(idx, "tile", tiles[idx]), body),)
    result = tuple(hoisted) + body
    validate(result)
    return result

