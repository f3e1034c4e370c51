"""Imperfectly-nested loop IR with static analyses.

The IR models exactly the code shapes in the paper's figures:

* ``Loop`` -- a for-loop over a :class:`LoopVar`;
* ``Alloc`` -- declaration of a (possibly dimension-reduced) array at a
  given scope; an ``Alloc`` inside a loop denotes one buffer reused per
  iteration (paper Fig. 1(c): ``T1f`` declared inside the ``b, c`` loop);
* ``ZeroArr`` -- zero-initialization of an allocated array;
* ``Assign`` -- an innermost statement
  ``target (=|+=) coef * term * term * ...`` where each term is an array
  access or a primitive-function evaluation.

Tiling (paper Fig. 4) is expressed through :class:`LoopVar` roles: a
program index ``a`` split with block size ``B`` becomes a ``tile``
variable ``a^t`` (extent ``ceil(N/B)``) and an ``intra`` variable ``a``
(extent ``B``); a subscript that needs the original value combines the
two (see :class:`Sub`).

Analyses: operation count, per-array sizes, total/peak memory, and
distinct-element access counts (the basis of the Section-6 locality cost
model).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.expr.indices import Bindings, Index
from repro.expr.tensor import Tensor


@dataclass(frozen=True, order=True)
class LoopVar:
    """A loop variable: a program index or a tile/intra-tile piece of one.

    ``role``:

    * ``"full"`` -- the index itself (extent = index extent);
    * ``"tile"`` -- the inter-tile loop ``a^t`` (extent = ceil(N/B));
    * ``"intra"`` -- the intra-tile loop (extent = B).
    """

    index: Index
    role: str = "full"
    block: int = 0

    def __post_init__(self) -> None:
        if self.role not in ("full", "tile", "intra"):
            raise ValueError(f"bad LoopVar role {self.role!r}")
        if self.role != "full" and self.block <= 0:
            raise ValueError("tile/intra LoopVar needs a positive block size")
        if self.role == "full" and self.block != 0:
            raise ValueError("full LoopVar must not carry a block size")

    def extent(self, bindings: Optional[Bindings] = None) -> int:
        n = self.index.extent(bindings)
        if self.role == "full":
            return n
        if self.role == "tile":
            return -(-n // self.block)  # ceil
        return min(self.block, n)

    @property
    def name(self) -> str:
        if self.role == "full":
            return self.index.name
        suffix = "t" if self.role == "tile" else "i"
        return f"{self.index.name}_{suffix}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


#: A subscript: an outer-to-inner combination of loop variables.  The
#: value is the mixed-radix combination ``((v1*e2 + v2)*e3 + v3)...``
#: where ``e_k`` is the extent of the k-th variable.  A single full
#: variable is the common case; a (tile, intra) pair reconstructs the
#: original index value ``t*B + i``.
Sub = Tuple[LoopVar, ...]


def sub_extent(sub: Sub, bindings: Optional[Bindings] = None) -> int:
    """Number of distinct values the subscript ranges over."""
    if len(sub) == 1:
        return sub[0].extent(bindings)
    # (tile, intra) pair spans the original index extent
    if (
        len(sub) == 2
        and sub[0].role == "tile"
        and sub[1].role == "intra"
        and sub[0].index == sub[1].index
    ):
        return sub[0].index.extent(bindings)
    out = 1
    for var in sub:
        out *= var.extent(bindings)
    return out


@dataclass(frozen=True)
class Access:
    """Read or write of ``array`` at a tuple of subscripts."""

    array: str
    subs: Tuple[Sub, ...]

    def vars(self) -> Set[LoopVar]:
        out: Set[LoopVar] = set()
        for sub in self.subs:
            out.update(sub)
        return out

    def __str__(self) -> str:
        inner = ",".join("+".join(v.name for v in s) for s in self.subs)
        return f"{self.array}[{inner}]" if self.subs else self.array


@dataclass(frozen=True)
class FuncEval:
    """Evaluation of a primitive function at a tuple of subscripts."""

    func: Tensor
    subs: Tuple[Sub, ...]

    def __post_init__(self) -> None:
        if not self.func.is_function:
            raise ValueError(f"{self.func.name} is not a function tensor")

    def vars(self) -> Set[LoopVar]:
        out: Set[LoopVar] = set()
        for sub in self.subs:
            out.update(sub)
        return out

    def __str__(self) -> str:
        inner = ",".join("+".join(v.name for v in s) for s in self.subs)
        return f"{self.func.name}({inner})"


Term = Union[Access, FuncEval]


@dataclass(frozen=True)
class Assign:
    """``target (=|+=) coef * t1 * t2 * ...`` at the innermost level."""

    target: Access
    terms: Tuple[Term, ...]
    accumulate: bool = True
    coef: float = 1.0

    def ops_per_iteration(self) -> int:
        """Arithmetic + function ops of a single execution."""
        muls = max(len(self.terms) - 1, 0)
        if self.coef not in (1.0, -1.0):
            muls += 1
        adds = 1 if self.accumulate else 0
        func = sum(
            t.func.compute_cost for t in self.terms if isinstance(t, FuncEval)
        )
        return muls + adds + func

    def __str__(self) -> str:
        op = "+=" if self.accumulate else "="
        rhs = " * ".join(str(t) for t in self.terms)
        if self.coef != 1.0:
            rhs = f"{self.coef} * {rhs}"
        return f"{self.target} {op} {rhs}"


@dataclass(frozen=True)
class Alloc:
    """Array declaration: name + dimension subscript spaces.

    An ``Alloc`` nested inside loops denotes a single buffer reused per
    iteration of the enclosing loops.
    """

    array: str
    dims: Tuple[Sub, ...]

    def size(self, bindings: Optional[Bindings] = None) -> int:
        out = 1
        for dim in self.dims:
            out *= sub_extent(dim, bindings)
        return out

    def __str__(self) -> str:
        inner = ",".join("+".join(v.name for v in s) for s in self.dims)
        return f"alloc {self.array}[{inner}]"


@dataclass(frozen=True)
class ZeroArr:
    """Zero the named (previously allocated) array."""

    array: str

    def __str__(self) -> str:
        return f"{self.array} = 0"


@dataclass(frozen=True)
class Loop:
    """A for-loop over ``var`` with a body block."""

    var: LoopVar
    body: Tuple["Node", ...]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"for {self.var.name}: ..."


Node = Union[Loop, Alloc, ZeroArr, Assign]
Block = Tuple[Node, ...]


# ---------------------------------------------------------------------------
# traversal helpers
# ---------------------------------------------------------------------------

def walk(block: Block) -> Iterator[Node]:
    """Pre-order traversal of every node."""
    stack = [iter(block)]
    while stack:
        for node in stack[-1]:
            yield node
            if isinstance(node, Loop):
                stack.append(iter(node.body))
                break
        else:
            stack.pop()


def render(block: Block, indent: int = 0) -> str:
    """Pretty-print the loop structure (paper-figure style)."""
    lines: List[str] = []
    pad = "  " * indent
    for node in block:
        if isinstance(node, Loop):
            lines.append(f"{pad}for {node.var.name}:")
            lines.append(render(node.body, indent + 1))
        else:
            lines.append(f"{pad}{node}")
    return "\n".join(l for l in lines if l)


# ---------------------------------------------------------------------------
# analyses
# ---------------------------------------------------------------------------

def loop_op_count(block: Block, bindings: Optional[Bindings] = None) -> int:
    """Total arithmetic + function operations executed by the structure.

    Tile-boundary guards are accounted for exactly: when both the tile
    and the intra-tile loop of one index enclose a statement, the pair
    contributes the index extent (not ``ceil(N/B) * B``) -- matching the
    interpreter's and generated code's skipped iterations.
    """

    def rec(blk: Block, enclosing: Tuple[LoopVar, ...]) -> int:
        total = 0
        for node in blk:
            if isinstance(node, Loop):
                total += rec(node.body, enclosing + (node.var,))
            elif isinstance(node, Assign):
                total += node.ops_per_iteration() * _guarded_iterations(
                    enclosing, bindings
                )
        return total

    return rec(block, ())


def _guarded_iterations(
    enclosing: Sequence[LoopVar], bindings: Optional[Bindings]
) -> int:
    """Executed iterations of a statement under the given loops, with
    (tile, intra) pairs of one index collapsed to the index extent."""
    tiles = {v.index for v in enclosing if v.role == "tile"}
    count = 1
    for var in enclosing:
        if var.role == "tile" and any(
            w.role == "intra" and w.index == var.index for w in enclosing
        ):
            count *= var.index.extent(bindings)
        elif var.role == "intra" and var.index in tiles:
            continue  # counted with its tile loop
        else:
            count *= var.extent(bindings)
    return count


def array_sizes(
    block: Block, bindings: Optional[Bindings] = None
) -> Dict[str, int]:
    """Size (elements) of every allocated array."""
    out: Dict[str, int] = {}
    for node in walk(block):
        if isinstance(node, Alloc):
            if node.array in out:
                raise ValueError(f"array {node.array!r} allocated twice")
            out[node.array] = node.size(bindings)
    return out


def total_memory(block: Block, bindings: Optional[Bindings] = None) -> int:
    """Sum of all allocated temporary sizes (the Section-5 metric)."""
    return sum(array_sizes(block, bindings).values())


def peak_memory(block: Block, bindings: Optional[Bindings] = None) -> int:
    """High-water mark of simultaneously-live allocations.

    An allocation is live from its position to the end of its enclosing
    block (buffers are reused across iterations of enclosing loops, so
    nesting does not multiply their size).
    """

    def rec(blk: Block, live: int) -> int:
        peak = live
        here = live
        for node in blk:
            if isinstance(node, Alloc):
                here += node.size(bindings)
                peak = max(peak, here)
            elif isinstance(node, Loop):
                peak = max(peak, rec(node.body, here))
        return peak

    return rec(block, 0)


def distinct_accesses(
    node: Loop,
    bindings: Optional[Bindings] = None,
) -> int:
    """Distinct array elements + function evaluations touched in the
    scope of ``node`` during one full execution of it (Section 6's
    ``Accesses``).

    Variables of loops *enclosing* ``node`` are fixed: dimensions
    subscripted only by them contribute a factor 1.
    """
    varying: Set[LoopVar] = set()

    def collect(n: Node) -> None:
        if isinstance(n, Loop):
            varying.add(n.var)
            for child in n.body:
                collect(child)

    collect(node)

    per_array: Dict[Tuple, int] = {}
    for inner in walk((node,)):
        if not isinstance(inner, Assign):
            continue
        touched = [inner.target] + [
            t for t in inner.terms if isinstance(t, Access)
        ] + [t for t in inner.terms if isinstance(t, FuncEval)]
        for acc in touched:
            count = 1
            for sub in acc.subs:
                active = [v for v in sub if v in varying]
                if active:
                    ext = 1
                    for v in active:
                        ext *= v.extent(bindings)
                    # a (tile, intra) pair both active spans the index
                    if (
                        len(sub) == 2
                        and all(v in varying for v in sub)
                        and sub[0].role == "tile"
                    ):
                        ext = min(ext, sub[0].index.extent(bindings))
                    count *= ext
            name = acc.array if isinstance(acc, Access) else acc.func.name
            key = (name, acc.subs)
            per_array[key] = max(per_array.get(key, 0), count)
    return sum(per_array.values())


def loop_vars(block: Block) -> Set[LoopVar]:
    """All loop variables appearing in the structure."""
    return {n.var for n in walk(block) if isinstance(n, Loop)}


def validate(block: Block) -> None:
    """Structural sanity checks: every access variable is bound by an
    enclosing loop, every accessed array is allocated or external.

    External arrays (program inputs/outputs) are those accessed but never
    allocated; they are permitted.
    """
    allocated: Set[str] = set()
    for node in walk(block):
        if isinstance(node, Alloc):
            allocated.add(node.array)

    def rec(blk: Block, bound: Set[LoopVar]) -> None:
        for node in blk:
            if isinstance(node, Loop):
                if node.var in bound:
                    raise ValueError(
                        f"loop variable {node.var.name} shadows an "
                        "enclosing loop"
                    )
                rec(node.body, bound | {node.var})
            elif isinstance(node, Assign):
                for term in (node.target, *node.terms):
                    for var in term.vars():
                        if var not in bound:
                            raise ValueError(
                                f"unbound loop variable {var.name} in {term}"
                            )
    rec(block, set())
