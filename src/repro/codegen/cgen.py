"""C (and reference Python) source emission for native loop nests.

The native kernel backend (:mod:`repro.kernels.native`) lowers each
flat term of a formula sequence to a *nest spec* -- loop extents, the
output-dimension prefix, and per-operand axis->loop maps -- and this
module renders that spec as compilable source:

* :func:`c_source` -- a single C function ``kern`` computing
  ``out[...] += coef * sum(prod(operands))`` as a fused loop nest.
  Extents are baked in as compile-time constants (the plan is already
  shape-specialized, exactly like the GEMM lowering), operand offsets
  are constant-folded strides, and summation loops longer than the
  tile size are blocked two-level -- the compiled twin of the paper's
  emitted Fortran nests.
* :func:`py_source` -- the same nest as a Python function over flat
  (raveled) arrays: the compiler-independent semantic reference the
  tests exec directly.
* :func:`c_fused_source` / :func:`py_fused_source` -- one function for
  a whole *fused statement group* (consecutive statements sharing an
  output iteration space): the members' ordinary nests, in statement
  order, inside one kernel.  They emit no loops of their own.
* :func:`render_nest_ir` / :func:`render_fused_ir` -- the
  deterministic text forms that (together with dtype, backend,
  compiler identity, flags, and version) address the compiled
  artifact store.

There are **two loop emitters and one statement of the fold**:

* the *plain walk* (:func:`_plain_walk`), one scalar accumulator per
  output point, written once and rendered through a :class:`_Format`
  table -- :data:`C` or :data:`PY`: loop header, block close,
  declaration, clipped tile bound, cast -- so the reference and the
  compiled form of a nest cannot drift apart;
* the *scheduled nest* (:class:`_ScheduledNest`, C only), packed and
  register-blocked, for every nest with a legal :func:`nest_schedule`
  whose panels fit :data:`PACK_LIMIT`;
* :func:`_fold` -- accumulator init, fold and write-back, the only
  place the semiring and the coefficient enter -- which both call.

What no rendering may change is the order in which one output element
folds its summation (Kovach & Kjolstad's criterion for a correct fused
contraction): scheduled, plain, fused, chunked or Python, it runs tile
loops, then in-tile summation loops, in the same order per element,
multiplies operands left to right, and is compiled with contraction off
(:data:`repro.kernels.native.CC_FLAGS`), so all agree bit for bit.  A
fused group agrees with its statements run one by one *by
construction*: each member is rendered by the function that renders it
alone.  What makes the group legal is that a thread finishes member
*m* on its rows before it starts member *m + 1* (see
:func:`c_fused_source`).

Parallel emission (all three strategies produce bit-identical results
because each output element is computed by exactly one thread in an
unchanged inner order):

* ``parallel="omp"`` -- ``#pragma omp parallel num_threads(N)`` wraps
  the kernel and ``#pragma omp for schedule(static)`` distributes the
  outermost *output* loop; summation tile loops stay outermost and run
  redundantly per thread (index arithmetic only).
* ``parallel="chunk"`` -- the portable fallback when the probed
  compiler has no OpenMP: the kernel gains ``(long lo, long hi)``
  bounds on the outermost output loop and the engine drives one call
  per thread over disjoint slices (ctypes releases the GIL).
* ``simd=True`` -- ``#pragma omp simd`` on the innermost *output*
  loop.  Deliberately not a ``reduction`` over the summation loop:
  vectorizing independent output elements preserves each element's
  accumulation order exactly, while a SIMD reduction would license
  reassociation and break bit-identity with the sequential nest.

The kernel contract, shared by all renderings:

* arrays are C-contiguous and flat; the caller resolves strides;
* the kernel only ever **reduces into** the output (``+=`` under the
  default ``plus_times`` algebra, the semiring's reduce op otherwise);
  the caller fills the output buffer with the semiring's identity
  element before the first term of a statement, which is what makes
  partial folds from tiled summation loops compose (reduce is
  associative with identity);
* repeated loop variables within one operand (diagonals) fold into a
  single offset term, so nests handle the cases GEMM cannot.

The nest *shape* is chosen by a rule, :func:`nest_schedule`, a pure
function of the spec (paper Section 6 blocks loops so operands are
reused from fast memory; Kanakagiri & Solomonik make the nest shape a
cost-driven choice):

* the **vector index** is the output loop that is unit-stride in the
  output; it runs in strips of :data:`VEC_STRIP` elements;
* operands that carry it at another stride are **packed**: before the
  loops that reuse it, the strip is copied into a per-thread panel
  (``p<k>``, on the kernel's stack, at most :data:`PACK_LIMIT` elements
  per kernel) where it *is* unit-stride.  Packing, not strided vector
  loads: a gather costs a load per lane on every use, the panel is
  filled once and read as plain vectors by every row and every
  iteration of the loops inside it;
* operands that do not carry it are **broadcast** -- one scalar serves
  the whole strip;
* the **register-block index** is the innermost output loop no
  vector-carrying operand carries: :data:`ROW_BLOCK` rows share each
  vector load, each row keeping its own strip of accumulators
  ``acc<r>[w]`` across the in-tile summation loops.

The schedule with its block constants, and the spec's semiring id
(``INFINITY`` identities pull in ``math.h`` / ``math.inf``), are part
of the rendered IR, hence of the artifact key.
"""

from __future__ import annotations

import functools
import math
from typing import (
    Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.semiring import get_semiring

__all__ = [
    "Schedule",
    "nest_schedule",
    "render_nest_ir",
    "render_fused_ir",
    "c_source",
    "py_source",
    "c_fused_source",
    "py_fused_source",
]

#: bump to invalidate every stored artifact when the emitted code changes
NEST_IR_VERSION = "nest-ir v4"

#: rows of the register block and elements of the vector strip of a
#: scheduled nest, and the most elements one *kernel* may hold in pack
#: panels (per thread, on its stack): a fused group's members share the
#: bound in statement order, and a member whose panels would take the
#: running total past it renders plain, as a lone nest over it does.
#: Baked into the IR version: they are the emitter's, not a caller's,
#: to choose.
ROW_BLOCK = 4
VEC_STRIP = 16
PACK_LIMIT = 1 << 16

#: accepted values of the ``parallel`` emission strategy
PARALLEL_STRATEGIES = ("none", "omp", "chunk")


def _strides(spec, axes) -> Dict[int, int]:
    """Row-major stride, per loop position, of an array whose axes are
    bound to the loops ``axes``.

    Strides come from the array's own axis extents; axes bound to the
    same loop variable (diagonals) merge into one stride.
    """
    by_pos: Dict[int, int] = {}
    stride = 1
    for pos in reversed(axes):
        by_pos[pos] = by_pos.get(pos, 0) + stride
        stride *= spec.extents[pos]
    return by_pos


def _offset(spec, axes, var) -> str:
    """The flat-index expression of that array in loop variables
    (``var`` maps a loop position to its variable name): an operand is
    ``spec.operands[k]``, the output ``range(spec.nout)``."""
    terms = [
        var(pos) if stride == 1 else f"{var(pos)}*{stride}"
        for pos, stride in sorted(_strides(spec, axes).items())
    ]
    return " + ".join(terms) or "0"


class Schedule(NamedTuple):
    """How a nest's output loops are vectorised and register-blocked."""

    #: output loop vectorised in strips (unit-stride in the output)
    vec: int
    #: output loop register-blocked :data:`ROW_BLOCK` rows at a time
    rblock: int
    #: operands copied into panels where ``vec`` is unit-stride
    packed: Tuple[int, ...]


def nest_schedule(spec) -> Optional[Schedule]:
    """The loop-nest shape of ``spec``, a pure function of the spec.

    The *vector index* is the last output loop, the one that is
    unit-stride in the output.  Operands that carry it at another
    stride are *packed*; operands that do not carry it are broadcast.
    The *register-block index* is the innermost output loop that no
    vector-carrying operand carries, so one vector load serves every
    row of the block and one broadcast serves the whole strip.

    ``None`` -- and the one-accumulator-per-point rendering -- when no
    such pair exists: fewer than two output loops, no operand (or every
    operand) carrying the vector index.
    """
    if spec.nout < 2:
        return None
    vec = spec.nout - 1
    carriers = [k for k, axes in enumerate(spec.operands) if vec in axes]
    if not carriers or len(carriers) == len(spec.operands):
        return None
    carried = {p for k in carriers for p in spec.operands[k]}
    rows = [p for p in range(vec) if p not in carried]
    if not rows:
        return None
    packed = tuple(
        k for k in carriers if _strides(spec, spec.operands[k])[vec] != 1
    )
    return Schedule(vec, rows[-1], packed)


def _panel_size(dims: List[Tuple[int, int]]) -> int:
    """Elements of one pack panel: a :data:`VEC_STRIP` row per in-tile
    summation point."""
    return VEC_STRIP * math.prod(extent for _, extent in dims)


def _pack_panels(
    spec, sched: Schedule, tile: int, room: int
) -> Optional[Dict[int, List[Tuple[int, int]]]]:
    """Per packed operand, the ``(summation loop, in-tile extent)``
    dimensions of its panel, or ``None`` when the panels of this nest
    would take more than ``room`` elements under ``tile``."""
    panels = {
        k: [
            (p, min(spec.extents[p], tile) if tile else spec.extents[p])
            for p in sorted(set(spec.operands[k]))
            if p >= spec.nout
        ]
        for k in sched.packed
    }
    total = sum(_panel_size(dims) for dims in panels.values())
    return panels if total <= room else None


def render_nest_ir(spec) -> str:
    """Deterministic text form of a nest spec (artifact-key content)."""
    lines = [
        NEST_IR_VERSION,
        "names=" + ",".join(spec.names),
        "extents=" + ",".join(str(e) for e in spec.extents),
        f"nout={spec.nout}",
        f"semiring={get_semiring(spec.semiring).name}",
    ]
    for k, axes in enumerate(spec.operands):
        lines.append(f"op{k}=" + ",".join(str(a) for a in axes))
    sched = nest_schedule(spec)
    if sched is None:
        lines.append("schedule=none")
    else:
        lines.append(
            f"schedule=vec:{sched.vec} rows:{sched.rblock}x{ROW_BLOCK} "
            f"strip:{VEC_STRIP} pack:"
            + (",".join(str(k) for k in sched.packed) or "-")
            + f" limit:{PACK_LIMIT}"
        )
    return "\n".join(lines)


def render_fused_ir(fspec) -> str:
    """Deterministic text form of a fused statement group.

    Embeds each member's nest IR plus the group geometry (shared output
    extents, the output slot each member accumulates into, and whether
    a member reads another member's output -- which drops ``restrict``
    from the emitted pointers), so fusion grouping is part of artifact
    identity.  The ``form`` line names how a group is emitted: it is
    what separates these kernels' keys from those of the per-point
    member loops earlier versions published under the same IR version.
    """
    lines = [
        NEST_IR_VERSION,
        f"fused nout={fspec.nout}",
        "form=member nests in sequence",
        "out_extents=" + ",".join(str(e) for e in fspec.out_extents),
        "slots=" + ",".join(str(s) for s in fspec.out_slots),
        f"aliased={int(fspec.aliased)}",
    ]
    for m, member in enumerate(fspec.members):
        lines.append(f"member{m}:")
        lines.append(member.ir())
    return "\n".join(lines)


def _nest_structure(spec, tile: int):
    """Shared loop-structure planning: which sum loops get blocked."""
    n = len(spec.extents)
    out_loops = list(range(spec.nout))
    sum_loops = list(range(spec.nout, n))
    tiled = [p for p in sum_loops if tile and spec.extents[p] > tile]
    return out_loops, sum_loops, tiled


def _check_parallel(parallel: str, nout: int) -> None:
    if parallel not in PARALLEL_STRATEGIES:
        raise ValueError(
            f"unknown parallel strategy {parallel!r} "
            f"(use one of {PARALLEL_STRATEGIES})"
        )
    if parallel != "none" and nout == 0:
        raise ValueError(
            "parallel nests need at least one output loop to distribute"
        )


# -- the format tables and the fold ------------------------------------------


class _Format(NamedTuple):
    """How one target language spells what the emitters write: one walk,
    one table per target (SNIPPETS.md snippet 1, FFC's ``format``)."""

    #: one level of indentation
    step: str
    #: statement terminator
    end: str
    #: the line that closes a block (``None``: the dedent does)
    close: Optional[str]
    #: ``(var, lo, hi, step=1)`` -> loop header
    loop: Callable[..., str]
    #: ``(type, name, value)`` -> declaration of a local
    decl: Callable[[str, str, str], str]
    #: ``(loop, tile, extent)`` -> the statements before the loop over
    #: one summation tile, and the bound that clips it to the extent
    clip: Callable[[int, int, int], Tuple[List[str], str]]
    #: element type -> the coefficient, cast to it
    coef: Callable[[str], str]
    #: what a ``(+, x)`` accumulator starts at
    zero: str
    #: ``(semiring, element type)`` -> its reduce identity and its
    #: ``(a, b)`` -> combine / reduce expression builders
    algebra: Callable[..., Tuple[str, Callable, Callable]]


def _c_loop(var: str, lo, hi, step: int = 1) -> str:
    inc = f"++{var}" if step == 1 else f"{var} += {step}"
    return f"for (long {var} = {lo}; {var} < {hi}; {inc}) {{"


def _c_clip(p: int, tile: int, extent: int) -> str:
    return f"t{p} + {tile} < {extent} ? t{p} + {tile} : {extent}"


def _py_loop(var: str, lo, hi, step: int = 1) -> str:
    if step != 1:
        return f"for {var} in range({lo}, {hi}, {step}):"
    return f"for {var} in range({hi if lo == 0 else f'{lo}, {hi}'}):"


C = _Format(
    step="  ",
    end=";",
    close="}",
    loop=_c_loop,
    decl=lambda ctype, name, value: f"{ctype} {name} = {value};",
    clip=lambda p, tile, e: (
        [f"long e{p} = {_c_clip(p, tile, e)};"], f"e{p}"
    ),
    coef=lambda ctype: f"({ctype})coef",
    zero="0",
    algebra=lambda sr, ctype: (sr.c_zero(ctype), sr.c_combine, sr.c_reduce),
)

PY = _Format(
    step="    ",
    end="",
    close=None,
    loop=_py_loop,
    decl=lambda ctype, name, value: f"{name} = {value}",
    clip=lambda p, tile, e: ([], f"min(t{p} + {tile}, {e})"),
    coef=lambda ctype: "coef",
    zero="0.0",
    algebra=lambda sr, ctype: (
        sr.py_zero(), sr.py_expr_combine, sr.py_expr_reduce
    ),
)


def _fold(spec, fmt: _Format, ctype: str):
    """Accumulator init, fold and write-back of ``spec``'s nest: the one
    statement of the per-element fold.  Both emitters (hence every
    member of a fused group) render through it, and it is the only
    place the semiring and the coefficient enter emitted code.

    Returns ``(zero, step, store)``: what an accumulator starts at;
    ``step(acc, factors, type, tmp)``, the statements folding the
    product of ``factors``, left to right, into ``acc``; ``store(dst,
    acc)``, the statement reducing a finished accumulator into its
    output element.  ``(+, x)`` keeps ``+=`` and the coefficient; every
    other algebra reduces -- through a temporary ``tmp`` of ``type``,
    then into the output -- and the planner admits only coefficient-1
    terms under it.
    """
    sr = get_semiring(spec.semiring)
    if sr.is_default:
        return (
            fmt.zero,
            lambda acc, factors, ctype_, tmp: [
                f"{acc} += {' * '.join(factors)}{fmt.end}"
            ],
            lambda dst, acc: f"{dst} += {fmt.coef(ctype)} * {acc}{fmt.end}",
        )
    identity, combine, reduce = fmt.algebra(sr, ctype)
    return (
        identity,
        lambda acc, factors, ctype_, tmp: [
            fmt.decl(ctype_, tmp, functools.reduce(combine, factors)),
            f"{acc} = {reduce(acc, tmp)}{fmt.end}",
        ],
        lambda dst, acc: f"{dst} = {reduce(dst, acc)}{fmt.end}",
    )


# -- the two loop emitters ---------------------------------------------------


def _plain_walk(
    lines: List[str], indent: str, spec, tile: int, fmt: _Format,
    ctype: str = "", omp: bool = False, chunk: bool = False,
    simd: bool = False,
) -> None:
    """The unscheduled nest, one scalar accumulator per output point,
    in ``fmt``'s language (the pragmas and ``chunk`` bounds are C's)."""
    out_loops, sum_loops, tiled = _nest_structure(spec, tile)
    zero, step, store = _fold(spec, fmt, ctype)
    var = "v{}".format

    def put(text: str) -> None:
        lines.append(indent + text)

    def enter(header: str) -> None:
        nonlocal indent
        put(header)
        indent += fmt.step

    def leave(loops: int) -> None:
        nonlocal indent
        for _ in range(loops):
            indent = indent[: -len(fmt.step)]
            if fmt.close is not None:
                put(fmt.close)

    # outermost: tile loops over the blocked summation dimensions (run
    # redundantly per thread under omp -- index arithmetic only; the
    # implicit barrier of each `omp for` keeps tiles in lockstep)
    for p in tiled:
        enter(fmt.loop(f"t{p}", 0, spec.extents[p], tile))
    for i, p in enumerate(out_loops):
        innermost = i == len(out_loops) - 1
        if i == 0 and omp:
            put(
                "#pragma omp for simd schedule(static)" if innermost and simd
                else "#pragma omp for schedule(static)"
            )
        elif innermost and simd:
            put("#pragma omp simd")
        if i == 0 and chunk:
            enter(fmt.loop(var(p), "lo", "hi"))
        else:
            enter(fmt.loop(var(p), 0, spec.extents[p]))
    put(fmt.decl(ctype, "acc", zero))
    for p in sum_loops:
        if p in tiled:
            before, bound = fmt.clip(p, tile, spec.extents[p])
            for line in before:
                put(line)
            enter(fmt.loop(var(p), f"t{p}", bound))
        else:
            enter(fmt.loop(var(p), 0, spec.extents[p]))
    factors = [
        f"x{k}[{_offset(spec, axes, var)}]"
        for k, axes in enumerate(spec.operands)
    ]
    for line in step("acc", factors, ctype, "w"):
        put(line)
    leave(len(sum_loops))
    put(store(f"out[{_offset(spec, out_loops, var)}]", "acc"))
    leave(len(out_loops) + len(tiled))


class _ScheduledNest:
    """Emitter of one packed, register-blocked nest (see :func:`nest_schedule`).

    Loop order, outermost first: summation tile loops; the output loops
    a packed operand carries; the vector-strip loop; the pack of every
    packed operand's panel; the remaining output loops, the
    register-block loop among them stepping :data:`ROW_BLOCK` rows; the
    in-tile summation loops; one loop over the strip that updates every
    row's accumulators.  Without a packed operand the strip loop sits
    innermost of the output loops, so the work-shared ``v0`` loop stays
    outside it.  Extents that do not divide a block get a remainder
    rendering of everything below the loop that does not divide: rows
    one at a time, the last strip at its own constant width.
    """

    def __init__(
        self, lines: List[str], spec, sched: Schedule,
        panels: Dict[int, List[Tuple[int, int]]], ctype: str, tile: int,
        omp: bool, chunk: bool, simd: bool,
    ) -> None:
        self.lines = lines
        self.spec = spec
        self.sched = sched
        self.panels = panels
        self.ctype = ctype
        self.tile = tile
        self.fold = _fold(spec, C, ctype)
        self.omp = omp
        self.chunk = chunk
        self.simd = simd
        _, self.sum_loops, self.tiled = _nest_structure(spec, tile)
        vec = sched.vec
        carried = sorted(
            {p for k in sched.packed for p in spec.operands[k]
             if p < vec}
        )
        rest = [p for p in range(vec) if p not in carried]
        levels = [("tile", p) for p in self.tiled]
        if sched.packed:
            levels += [("out", p) for p in carried]
            levels += [("strip", vec), ("pack", vec)]
            levels += [("out", p) for p in rest]
        else:
            levels += [("out", p) for p in rest] + [("strip", vec)]
        self.levels = levels

    def emit(self, indent: str) -> None:
        for k, dims in self.panels.items():
            self.lines.append(
                f"{indent}{self.ctype} p{k}[{_panel_size(dims)}] "
                "__attribute__((aligned(64)));"
            )
        self._level(0, indent, 1, 0)

    # -- loop levels ---------------------------------------------------

    def _level(self, i: int, indent: str, rows: int, width: int) -> None:
        if i == len(self.levels):
            self._body(indent, rows, width)
            return
        kind, p = self.levels[i]
        put = self.lines.append
        e = self.spec.extents[p]
        if kind == "tile":
            put(indent + C.loop(f"t{p}", 0, e, self.tile))
            put(f"{indent}  const long e{p} = {_c_clip(p, self.tile, e)};")
            self._level(i + 1, indent + "  ", rows, width)
            put(f"{indent}}}")
        elif kind == "pack":
            self._pack(indent, width)
            self._level(i + 1, indent, rows, width)
        elif kind == "strip":
            full = min(VEC_STRIP, e)

            def lone(start: int, width: int) -> None:
                put(f"{indent}{{")
                put(f"{indent}  const long s{p} = {start};")
                self._level(i + 1, indent + "  ", rows, width)
                put(f"{indent}}}")

            if e >= 2 * full:
                put(indent + C.loop(f"s{p}", 0, e - full + 1, full))
                self._level(i + 1, indent + "  ", rows, full)
                put(f"{indent}}}")
            else:
                lone(0, full)
            if e % full:  # the last strip, at its own constant width
                lone(e - e % full, e % full)
        else:
            self._out_loop(i, p, indent, rows, width)

    def _out_loop(
        self, i: int, p: int, indent: str, rows: int, width: int
    ) -> None:
        """One output loop; the register-block loop runs its full
        blocks, then the rows a block does not cover one at a time."""
        put = self.lines.append
        e = self.spec.extents[p]
        bounds = p == 0 and self.chunk
        lo, hi = ("lo", "hi") if bounds else ("0", str(e))
        block = min(ROW_BLOCK, e) if p == self.sched.rblock else 1
        # nowait: a static schedule gives one thread the same rows at
        # every encounter of a loop with these bounds, so each output
        # element stays with one thread, in program order, without a
        # barrier per encounter (an enclosing loop makes many of them)
        shared = f"{indent}#pragma omp for schedule(static) nowait"
        if block > 1:
            if p == 0 and self.omp:
                put(shared)
            end = f"hi - {block - 1}" if bounds else str(e - block + 1)
            put(indent + C.loop(f"v{p}", lo, end, block))
            self._level(i + 1, indent + "  ", block, width)
            put(f"{indent}}}")
            if not bounds and e % block == 0:
                return
            lo = (
                f"lo + (hi - lo) / {block} * {block}" if bounds
                else str(e - e % block)
            )
            rows = 1
        if p == 0 and self.omp:
            put(shared)
        put(indent + C.loop(f"v{p}", lo, hi))
        self._level(i + 1, indent + "  ", rows, width)
        put(f"{indent}}}")

    # -- pack and body -------------------------------------------------

    def _sum_loop(self, p: int, indent: str) -> str:
        if p in self.tiled:
            return indent + C.loop(f"v{p}", f"t{p}", f"e{p}")
        return indent + C.loop(f"v{p}", 0, self.spec.extents[p])

    def _panel_offset(self, k: int) -> str:
        """Start of the current summation point's strip in panel ``k``
        (row-major over the operand's in-tile summation loops, one
        :data:`VEC_STRIP`-element row each)."""
        terms = []
        stride = VEC_STRIP
        for p, extent in reversed(self.panels[k]):
            at = f"(v{p} - t{p})" if p in self.tiled else f"v{p}"
            terms.append(f"{at}*{stride}")
            stride *= extent
        return " + ".join(reversed(terms)) if terms else "0"

    def _pack(self, indent: str, width: int) -> None:
        """Copy the strip of every packed operand into its panel, so the
        vector index is unit-stride where the body reads it."""
        put = self.lines.append
        vec = self.sched.vec
        at = lambda p: f"(s{vec} + w)" if p == vec else f"v{p}"  # noqa: E731
        for k, dims in self.panels.items():
            inner = indent
            for p, _ in dims:
                put(self._sum_loop(p, inner))
                inner += "  "
            put(f"{inner}for (int w = 0; w < {width}; ++w)")
            put(
                f"{inner}  p{k}[{self._panel_offset(k)} + w] = "
                f"x{k}[{_offset(self.spec, self.spec.operands[k], at)}];"
            )
            for _ in dims:
                inner = inner[:-2]
                put(f"{inner}}}")

    def _body(self, indent: str, rows: int, width: int) -> None:
        put = self.lines.append
        spec, ctype = self.spec, self.ctype
        zero, step, store = self.fold
        vec, rblock = self.sched.vec, self.sched.rblock
        strip = f"for (int w = 0; w < {width}; ++w)"

        def at_row(r: int):
            def var(p: int) -> str:
                if p == vec:
                    return f"s{vec}"
                if p == rblock and r:
                    return f"(v{p} + {r})"
                return f"v{p}"
            return var

        put(
            f"{indent}{ctype} "
            + ", ".join(f"acc{r}[{width}]" for r in range(rows)) + ";"
        )
        put(
            f"{indent}{strip} {{ "
            + " ".join(f"acc{r}[w] = {zero};" for r in range(rows))
            + " }"
        )
        inner = indent
        for p in self.sum_loops:
            put(self._sum_loop(p, inner))
            inner += "  "
        # row r, lane w multiplies its operands left to right exactly as
        # the unscheduled nest does; only where each value is read from
        # differs (a unit-stride strip, or one scalar per row)
        factors: List[List[str]] = [[] for _ in range(rows)]
        for k, axes in enumerate(spec.operands):
            if vec in axes:
                src = (
                    f"p{k} + {self._panel_offset(k)}" if k in self.panels
                    else f"x{k} + {_offset(spec, axes, at_row(0))}"
                )
                put(f"{inner}const {ctype}* a{k} = {src};")
                for r in range(rows):
                    factors[r].append(f"a{k}[w]")
                continue
            per_row = rows if rblock in axes else 1
            for r in range(per_row):
                put(
                    f"{inner}const {ctype} b{k}_{r} = "
                    f"x{k}[{_offset(spec, axes, at_row(r))}];"
                )
            for r in range(rows):
                factors[r].append(f"b{k}_{r if per_row > 1 else 0}")
        if self.simd:
            put(f"{inner}#pragma omp simd")
        put(f"{inner}{strip} {{")
        for r in range(rows):
            for line in step(
                f"acc{r}[w]", factors[r], f"const {ctype}", f"q{r}"
            ):
                put(f"{inner}  {line}")
        put(f"{inner}}}")
        for _ in self.sum_loops:
            inner = inner[:-2]
            put(f"{inner}}}")
        if self.simd:
            put(f"{indent}#pragma omp simd")
        put(f"{indent}{strip} {{")
        for r in range(rows):
            dst = f"out[{_offset(spec, range(spec.nout), at_row(r))} + w]"
            put(f"{indent}  {store(dst, f'acc{r}[w]')}")
        put(f"{indent}}}")


# -- kernels: one nest, or a fused group's nests in sequence -----------------


def _c_kernel(
    ir: str, args: List[str], members: Sequence, ctype: str, tile: int,
    threads: int, parallel: str, simd: bool,
) -> str:
    """One C function ``kern(args)`` holding the nests of ``members``,
    ``(bindings, spec)`` pairs, in order: a lone nest binds nothing; a
    fused group's member gets a block that first declares its
    ``bindings`` (see :func:`_group_members`).  Each nest is scheduled
    when :func:`nest_schedule` accepts it and its pack panels fit what
    is left of the kernel's :data:`PACK_LIMIT`, else walked plainly."""
    _check_parallel(parallel, members[0][1].nout)
    omp = parallel == "omp" and threads > 1
    chunk = parallel == "chunk"
    if chunk:
        args = args[:1] + ["long lo, long hi"] + args[1:]
    lines = [
        f"/* generated by repro.codegen.cgen ({NEST_IR_VERSION}) */",
        "/* " + ir.replace("\n", "; ") + " */",
    ]
    headers = [
        h for _, spec in members
        for h in get_semiring(spec.semiring).c_includes
    ]
    lines += [f"#include <{h}>" for h in dict.fromkeys(headers)]
    lines += [f"void kern({', '.join(args)})", "{"]
    indent = "  "
    if omp:
        lines += [
            f"{indent}#pragma omp parallel num_threads({threads})",
            f"{indent}{{",
        ]
        indent += "  "
    room = PACK_LIMIT
    for m, (bindings, spec) in enumerate(members):
        if m and omp:
            lines.append(f"{indent}#pragma omp barrier")
        inner = indent
        if bindings:
            lines.append(f"{indent}{{")
            inner += "  "
            lines += [inner + C.decl(*binding) for binding in bindings]
        sched = nest_schedule(spec)
        panels = _pack_panels(spec, sched, tile, room) if sched else None
        if panels is None:
            _plain_walk(lines, inner, spec, tile, C, ctype, omp, chunk, simd)
        else:
            _ScheduledNest(
                lines, spec, sched, panels, ctype, tile, omp, chunk, simd
            ).emit(inner)
            room -= sum(_panel_size(dims) for dims in panels.values())
        if bindings:
            lines.append(f"{indent}}}")
    if omp:
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _py_kernel(
    name: str, args: List[str], members: Sequence, tile: int
) -> str:
    """The same kernel as a Python function: per member its bindings,
    then the plain walk (Python has no block scope to open)."""
    lines = []
    if any(
        "math." in get_semiring(spec.semiring).py_zero()
        for _, spec in members
    ):
        lines.append("import math")
    lines.append(f"def {name}({', '.join(args)}):")
    for bindings, spec in members:
        lines += [PY.step + PY.decl(*binding) for binding in bindings]
        _plain_walk(lines, PY.step, spec, tile, PY)
    return "\n".join(lines) + "\n"


def c_source(
    spec,
    ctype: str = "double",
    tile: int = 64,
    threads: int = 1,
    parallel: str = "none",
    simd: bool = False,
) -> str:
    """Render the nest spec as one C function ``kern``.

    ``ctype`` is the element type (``double``/``float``); ``coef`` is
    always a double (the plan stores coefficients as Python floats).
    Summation loops longer than ``tile`` are blocked: the tile loops sit
    outermost and the output accumulates one partial sum per tile,
    which is correct because the kernel contract is ``+=`` into a
    caller-zeroed buffer.

    A nest with a legal :func:`nest_schedule` whose pack panels fit
    :data:`PACK_LIMIT` under ``tile`` is rendered packed and
    register-blocked (see the module docstring); every other nest keeps
    the one-accumulator-per-output-point form.  Both fold each output
    element's summation in the same order, so which form a nest gets
    never shows in its result.

    With ``parallel="omp"`` the whole nest runs inside one
    ``#pragma omp parallel num_threads(threads)`` region and the first
    output loop is an ``omp for schedule(static)``; the redundant tile
    loops plus the static schedule keep every output element on one
    thread with contributions in ascending tile order, so the result is
    bit-identical to the sequential nest.  With ``parallel="chunk"``
    the signature becomes ``kern(coef, lo, hi, ...)`` and the first
    output loop covers ``[lo, hi)`` -- the caller threads over disjoint
    slices.  ``simd=True`` adds ``#pragma omp simd`` on the innermost
    output loop (see the module docstring for why not a reduction).
    """
    args = ["double coef"]
    args += [
        f"const {ctype}* restrict x{k}" for k in range(len(spec.operands))
    ]
    args.append(f"{ctype}* restrict out")
    return _c_kernel(
        render_nest_ir(spec), args, [((), spec)],
        ctype, tile, threads, parallel, simd,
    )


def py_source(spec, tile: int = 64, name: str = "kern") -> str:
    """The same nest as a Python function over flat (raveled) arrays.

    ``kern(coef, x0, ..., out)`` accumulates exactly like the C
    rendering (plain loops, flat indexing, no Python objects): it is
    the semantic reference every compiled rendering is tested
    ``np.array_equal`` to.
    """
    args = ["coef"] + [f"x{k}" for k in range(len(spec.operands))] + ["out"]
    return _py_kernel(name, args, [((), spec)], tile)


# -- fused statement groups --------------------------------------------------


def _group_args(fspec, coefs: str, operand: str = "", slot: str = ""):
    """A group kernel's arguments: the members' coefficients, every
    member's operands in member order (``g0..``), one output per slot
    (``o0..``)."""
    nops = sum(len(member.operands) for member in fspec.members)
    return (
        [coefs]
        + [f"{operand}g{n}" for n in range(nops)]
        + [f"{slot}o{s}" for s in range(fspec.nslots)]
    )


def _group_members(fspec, operand: str = "", slot: str = ""):
    """``(bindings, member)`` per member of a fused group, in statement
    order: the ``(type, name, value)`` declarations that name, among the
    group kernel's arguments, the member's own ``coef``, ``x0..`` and
    ``out`` -- the names a lone nest's loops are written over."""
    members, first = [], 0
    for m, member in enumerate(fspec.members):
        nops = len(member.operands)
        bindings = [("const double", "coef", f"coefs[{m}]")]
        bindings += [(operand, f"x{k}", f"g{first + k}") for k in range(nops)]
        bindings.append((slot, "out", f"o{fspec.out_slots[m]}"))
        members.append((bindings, member))
        first += nops
    return members


def c_fused_source(
    fspec,
    ctype: str = "double",
    tile: int = 64,
    threads: int = 1,
    parallel: str = "none",
    simd: bool = False,
) -> str:
    """One C function for a whole fused statement group.

    ``kern(coefs, g0, ..., o0, ...)`` is the members' ordinary nests in
    statement order, each in a block that names its own arguments
    ``coef``, ``x0..`` and ``out`` and is then rendered by the function
    that renders a lone nest for :func:`c_source` -- scheduled, packed
    and summation-tiled exactly as it would be alone, so fused and
    unfused execution agree bit for bit by construction.  What a group
    buys is one foreign call and one parallel region for all its
    statements, and rows consumed by the thread that just produced them.

    A thread finishes member *m* on its rows before it starts member
    *m + 1*.  That is what makes reading an earlier member's output
    legal (the fusion pass admits such a read only at the output point
    being written, and then ``restrict`` is dropped): under ``chunk``
    one call runs every member over its ``[lo, hi)`` rows; under
    ``omp`` a barrier separates consecutive members, always -- a
    register-blocked member and a plain one partition the rows
    differently, and two terms of one statement fold into one slot.

    The members' pack panels live in disjoint block scopes but count
    against one :data:`PACK_LIMIT`; ``parallel``/``threads``/``simd``
    behave exactly as in :func:`c_source`.
    """
    rq = "" if fspec.aliased else " restrict"
    operand, slot = f"const {ctype}*{rq}", f"{ctype}*{rq}"
    args = _group_args(
        fspec, f"const double*{rq} coefs", f"{operand} ", f"{slot} "
    )
    return _c_kernel(
        render_fused_ir(fspec), args, _group_members(fspec, operand, slot),
        ctype, tile, threads, parallel, simd,
    )


def py_fused_source(fspec, tile: int = 64, name: str = "kern") -> str:
    """The fused group as a Python function over flat arrays.

    ``kern(coefs, g0, ..., o0, ...)`` mirrors :func:`c_fused_source`
    (``coefs`` arrives as a float64 array): per member, the bindings
    and then the nest :func:`py_source` renders.
    """
    return _py_kernel(
        name, _group_args(fspec, "coefs"), _group_members(fspec), tile
    )
