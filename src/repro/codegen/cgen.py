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
  emitted Fortran nests.  A nest with a legal *schedule*
  (:func:`nest_schedule`) is rendered packed and register-blocked.
* :func:`py_source` -- the same nest as a Python function over flat
  (raveled) arrays: the compiler-independent semantic reference the
  tests exec directly.
* :func:`c_fused_source` / :func:`py_fused_source` -- one function for
  a whole *fused statement group*: consecutive statements sharing an
  output iteration space run as one jointly-parallel nest over the
  shared output loops, each member folding its full summation per
  output point.  Intermediates a later member reads are written by an
  earlier member in the same iteration, so values stay in cache and
  the parallel region is entered once per group instead of once per
  statement.
* :func:`render_nest_ir` / :func:`render_fused_ir` -- the
  deterministic text forms that (together with dtype, backend,
  compiler identity, flags, and version) address the compiled
  artifact store.

Parallel emission (all three strategies produce bit-identical results
because each output element is computed by exactly one thread in an
unchanged inner order):

* ``parallel="omp"`` -- ``#pragma omp parallel num_threads(N)`` wraps
  the nest and ``#pragma omp for schedule(static)`` distributes the
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

Nest IR v4 -- scheduled nests.  The nest *shape* is chosen by a rule,
:func:`nest_schedule`, a pure function of the spec (paper Section 6
blocks loops so operands are reused from fast memory; Kanakagiri &
Solomonik make the nest shape a cost-driven choice):

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

What the schedule may *not* change is the order in which one output
element folds its summation (Kovach & Kjolstad's criterion for a
correct fused contraction): every rendering -- scheduled, plain, fused,
chunked, ``py_source`` -- runs tile loops, then in-tile summation loops,
in the same order per element, multiplies operands left to right, and
is compiled with contraction off (:data:`repro.kernels.native.CC_FLAGS`),
so they agree bit for bit.  The schedule, with its block constants, is
part of the rendered IR, hence of the artifact key.

Nest IR v3: every spec carries a ``semiring`` id (see
:mod:`repro.semiring`).  Non-default algebras swap ``acc += a*b`` for
``acc = reduce(acc, combine(a, b))``, initialize accumulators with the
reduce identity (``INFINITY`` pulls in ``math.h`` / ``math.inf``), and
reduce into the output instead of adding -- scalar coefficients are a
``plus_times`` notion and the planner only admits coefficient-1 terms
elsewhere.  The semiring id is part of the rendered IR, hence of the
artifact key.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

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
#: scheduled nest, and the most elements one kernel may hold in pack
#: panels (per thread, on its stack).  Baked into the IR version: they
#: are the emitter's, not a caller's, to choose.
ROW_BLOCK = 4
VEC_STRIP = 16
PACK_LIMIT = 1 << 16

#: accepted values of the ``parallel`` emission strategy
PARALLEL_STRATEGIES = ("none", "omp", "chunk")


def _operand_strides(spec, k: int) -> Dict[int, int]:
    """Row-major stride of operand ``k`` per loop position.

    Strides come from the operand's own axis extents; axes bound to the
    same loop variable (diagonals) merge into one stride.
    """
    axes = spec.operands[k]
    by_pos: Dict[int, int] = {}
    stride = 1
    for pos in reversed(axes):
        by_pos[pos] = by_pos.get(pos, 0) + stride
        stride *= spec.extents[pos]
    return by_pos


def _operand_offset(spec, k: int, var) -> str:
    """The flat-index expression of operand ``k`` in loop variables.

    ``var`` maps a loop position to its variable name.
    """
    by_pos = _operand_strides(spec, k)
    terms = []
    for pos in sorted(by_pos):
        stride = by_pos[pos]
        terms.append(var(pos) if stride == 1 else f"{var(pos)}*{stride}")
    return " + ".join(terms) if terms else "0"


def _out_offset(spec, var) -> str:
    """Flat-index expression of the output (row-major over out dims)."""
    shape = list(spec.extents[: spec.nout])
    strides = [1] * len(shape)
    for j in range(len(shape) - 2, -1, -1):
        strides[j] = strides[j + 1] * shape[j + 1]
    terms = [
        var(p) if strides[p] == 1 else f"{var(p)}*{strides[p]}"
        for p in range(spec.nout)
    ]
    return " + ".join(terms) if terms else "0"


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
        k for k in carriers if _operand_strides(spec, k)[vec] != 1
    )
    return Schedule(vec, rows[-1], packed)


def _pack_panels(
    spec, sched: Schedule, tile: int
) -> Optional[Dict[int, List[Tuple[int, int]]]]:
    """Per packed operand, the ``(summation loop, in-tile extent)``
    dimensions of its panel -- one :data:`VEC_STRIP` row per in-tile
    summation point -- or ``None`` when the panels of this nest would
    exceed :data:`PACK_LIMIT` under ``tile``."""
    panels: Dict[int, List[Tuple[int, int]]] = {}
    total = 0
    for k in sched.packed:
        panels[k] = [
            (p, min(spec.extents[p], tile) if tile else spec.extents[p])
            for p in sorted(set(spec.operands[k]))
            if p >= spec.nout
        ]
        total += VEC_STRIP * math.prod(extent for _, extent in panels[k])
    return panels if total <= PACK_LIMIT else None


def _spec_semiring(spec):
    """The spec's :class:`~repro.semiring.Semiring` (default algebra
    for pre-v3 specs that never carried the field)."""
    from repro.semiring import get_semiring

    return get_semiring(getattr(spec, "semiring", "plus_times"))


def render_nest_ir(spec) -> str:
    """Deterministic text form of a nest spec (artifact-key content)."""
    lines = [
        NEST_IR_VERSION,
        "names=" + ",".join(spec.names),
        "extents=" + ",".join(str(e) for e in spec.extents),
        f"nout={spec.nout}",
        f"semiring={_spec_semiring(spec).name}",
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
    identity.
    """
    lines = [
        NEST_IR_VERSION,
        f"fused nout={fspec.nout}",
        "out_extents=" + ",".join(str(e) for e in fspec.out_extents),
        "slots=" + ",".join(str(s) for s in fspec.out_slots),
        f"aliased={int(fspec.aliased)}",
    ]
    for m, member in enumerate(fspec.members):
        lines.append(f"member{m}:")
        lines.append(member.ir() if hasattr(member, "ir")
                     else render_nest_ir(member))
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
    _check_parallel(parallel, spec.nout)
    sr = _spec_semiring(spec)
    args = ", ".join(
        [f"const {ctype}* restrict x{k}" for k in range(len(spec.operands))]
        + [f"{ctype}* restrict out"]
    )
    if parallel == "chunk":
        args = f"long lo, long hi, {args}"
    lines: List[str] = [
        f"/* generated by repro.codegen.cgen ({NEST_IR_VERSION}) */",
        "/* " + render_nest_ir(spec).replace("\n", "; ") + " */",
    ]
    for header in sr.c_includes:
        lines.append(f"#include <{header}>")
    lines += [
        f"void kern(double coef, {args})",
        "{",
    ]
    indent = "  "
    omp = parallel == "omp" and threads > 1
    if omp:
        lines.append(f"{indent}#pragma omp parallel num_threads({threads})")
        lines.append(f"{indent}{{")
        indent += "  "
    sched = nest_schedule(spec)
    panels = _pack_panels(spec, sched, tile) if sched is not None else None
    if panels is None:
        _plain_loops(lines, indent, spec, ctype, tile, sr, omp, parallel, simd)
    else:
        _ScheduledNest(
            lines, spec, sched, panels, ctype, tile, sr, omp, parallel, simd
        ).emit(indent)
    if omp:
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _plain_loops(
    lines: List[str], indent: str, spec, ctype: str, tile: int, sr,
    omp: bool, parallel: str, simd: bool,
) -> None:
    """The unscheduled nest: one scalar accumulator per output point."""
    out_loops, sum_loops, tiled = _nest_structure(spec, tile)
    var = lambda p: f"v{p}"  # noqa: E731 - tiny local naming helper
    # outermost: tile loops over the blocked summation dimensions (run
    # redundantly per thread under omp -- index arithmetic only; the
    # implicit barrier of each `omp for` keeps tiles in lockstep)
    for p in tiled:
        e = spec.extents[p]
        lines.append(
            f"{indent}for (long t{p} = 0; t{p} < {e}; t{p} += {tile}) {{"
        )
        indent += "  "
    for i, p in enumerate(out_loops):
        e = spec.extents[p]
        innermost = i == len(out_loops) - 1
        if i == 0 and omp:
            if innermost and simd:
                lines.append(f"{indent}#pragma omp for simd schedule(static)")
            else:
                lines.append(f"{indent}#pragma omp for schedule(static)")
        elif innermost and simd:
            lines.append(f"{indent}#pragma omp simd")
        if i == 0 and parallel == "chunk":
            lines.append(
                f"{indent}for (long v{p} = lo; v{p} < hi; ++v{p}) {{"
            )
        else:
            lines.append(
                f"{indent}for (long v{p} = 0; v{p} < {e}; ++v{p}) {{"
            )
        indent += "  "
    if sr.is_default:
        lines.append(f"{indent}{ctype} acc = 0;")
    else:
        lines.append(f"{indent}{ctype} acc = {sr.c_zero(ctype)};")
    for p in sum_loops:
        e = spec.extents[p]
        if p in tiled:
            lines.append(
                f"{indent}long e{p} = t{p} + {tile} < {e} ? "
                f"t{p} + {tile} : {e};"
            )
            lines.append(
                f"{indent}for (long v{p} = t{p}; v{p} < e{p}; ++v{p}) {{"
            )
        else:
            lines.append(
                f"{indent}for (long v{p} = 0; v{p} < {e}; ++v{p}) {{"
            )
        indent += "  "
    operands_c = [
        f"x{k}[{_operand_offset(spec, k, var)}]"
        for k in range(len(spec.operands))
    ]
    if sr.is_default:
        lines.append(f"{indent}acc += {' * '.join(operands_c)};")
    else:
        combined = operands_c[0]
        for nxt in operands_c[1:]:
            combined = sr.c_combine(combined, nxt)
        lines.append(f"{indent}{ctype} w = {combined};")
        lines.append(f"{indent}acc = {sr.c_reduce('acc', 'w')};")
    for _ in sum_loops:
        indent = indent[:-2]
        lines.append(f"{indent}}}")
    off = _out_offset(spec, var)
    if sr.is_default:
        lines.append(f"{indent}out[{off}] += ({ctype})coef * acc;")
    else:
        # coefficient-1 contract (enforced by the planner): pure reduce
        lines.append(
            f"{indent}out[{off}] = {sr.c_reduce(f'out[{off}]', 'acc')};"
        )
    for _ in out_loops + tiled:
        indent = indent[:-2]
        lines.append(f"{indent}}}")


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
        sr, omp: bool, parallel: str, simd: bool,
    ) -> None:
        self.lines = lines
        self.spec = spec
        self.sched = sched
        self.panels = panels
        self.ctype = ctype
        self.tile = tile
        self.sr = sr
        self.omp = omp
        self.chunk = parallel == "chunk"
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
            size = VEC_STRIP * math.prod(extent for _, extent in dims)
            self.lines.append(
                f"{indent}{self.ctype} p{k}[{size}] "
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
            t = self.tile
            put(f"{indent}for (long t{p} = 0; t{p} < {e}; t{p} += {t}) {{")
            put(
                f"{indent}  const long e{p} = t{p} + {t} < {e} ? "
                f"t{p} + {t} : {e};"
            )
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
                put(
                    f"{indent}for (long s{p} = 0; s{p} < {e - full + 1}; "
                    f"s{p} += {full}) {{"
                )
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
            put(
                f"{indent}for (long v{p} = {lo}; v{p} < {end}; "
                f"v{p} += {block}) {{"
            )
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
        put(f"{indent}for (long v{p} = {lo}; v{p} < {hi}; ++v{p}) {{")
        self._level(i + 1, indent + "  ", rows, width)
        put(f"{indent}}}")

    # -- pack and body -------------------------------------------------

    def _sum_loop(self, p: int, indent: str) -> str:
        if p in self.tiled:
            return f"{indent}for (long v{p} = t{p}; v{p} < e{p}; ++v{p}) {{"
        return (
            f"{indent}for (long v{p} = 0; v{p} < {self.spec.extents[p]}; "
            f"++v{p}) {{"
        )

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
                f"x{k}[{_operand_offset(self.spec, k, at)}];"
            )
            for _ in dims:
                inner = inner[:-2]
                put(f"{inner}}}")

    def _body(self, indent: str, rows: int, width: int) -> None:
        put = self.lines.append
        spec, sr, ctype = self.spec, self.sr, self.ctype
        vec, rblock = self.sched.vec, self.sched.rblock
        strip = f"for (int w = 0; w < {width}; ++w)"
        zero = "0" if sr.is_default else sr.c_zero(ctype)

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
            + " ".join(f"acc{r}[w] = {zero};" for r in range(rows)) + " }"
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
                    else f"x{k} + {_operand_offset(spec, k, at_row(0))}"
                )
                put(f"{inner}const {ctype}* a{k} = {src};")
                for r in range(rows):
                    factors[r].append(f"a{k}[w]")
                continue
            per_row = rows if rblock in axes else 1
            for r in range(per_row):
                put(
                    f"{inner}const {ctype} b{k}_{r} = "
                    f"x{k}[{_operand_offset(spec, k, at_row(r))}];"
                )
            for r in range(rows):
                factors[r].append(f"b{k}_{r if per_row > 1 else 0}")
        if self.simd:
            put(f"{inner}#pragma omp simd")
        put(f"{inner}{strip} {{")
        for r in range(rows):
            if sr.is_default:
                put(f"{inner}  acc{r}[w] += {' * '.join(factors[r])};")
            else:
                combined = factors[r][0]
                for nxt in factors[r][1:]:
                    combined = sr.c_combine(combined, nxt)
                put(f"{inner}  const {ctype} q{r} = {combined};")
                put(
                    f"{inner}  acc{r}[w] = "
                    f"{sr.c_reduce(f'acc{r}[w]', f'q{r}')};"
                )
        put(f"{inner}}}")
        for _ in self.sum_loops:
            inner = inner[:-2]
            put(f"{inner}}}")
        if self.simd:
            put(f"{indent}#pragma omp simd")
        put(f"{indent}{strip} {{")
        for r in range(rows):
            dst = f"out[{_out_offset(spec, at_row(r))} + w]"
            if sr.is_default:
                put(f"{indent}  {dst} += ({ctype})coef * acc{r}[w];")
            else:
                # coefficient-1 contract (enforced by the planner)
                put(
                    f"{indent}  {dst} = "
                    f"{sr.c_reduce(dst, f'acc{r}[w]')};"
                )
        put(f"{indent}}}")


def py_source(spec, tile: int = 64, name: str = "kern") -> str:
    """The same nest as a Python function over flat (raveled) arrays.

    ``kern(coef, x0, ..., out)`` accumulates exactly like the C
    rendering (plain loops, flat indexing, no Python objects): it is
    the semantic reference every compiled rendering is tested
    ``np.array_equal`` to.
    """
    sr = _spec_semiring(spec)
    out_loops, sum_loops, tiled = _nest_structure(spec, tile)
    var = lambda p: f"v{p}"  # noqa: E731 - tiny local naming helper
    args = ", ".join(
        [f"x{k}" for k in range(len(spec.operands))] + ["out"]
    )
    lines = []
    if "math." in sr.py_zero():
        lines.append("import math")
    lines.append(f"def {name}(coef, {args}):")
    indent = "    "
    for p in tiled:
        e = spec.extents[p]
        lines.append(f"{indent}for t{p} in range(0, {e}, {tile}):")
        indent += "    "
    for p in out_loops:
        lines.append(f"{indent}for v{p} in range({spec.extents[p]}):")
        indent += "    "
    if sr.is_default:
        lines.append(f"{indent}acc = 0.0")
    else:
        lines.append(f"{indent}acc = {sr.py_zero()}")
    for p in sum_loops:
        e = spec.extents[p]
        if p in tiled:
            lines.append(
                f"{indent}for v{p} in range(t{p}, "
                f"min(t{p} + {tile}, {e})):"
            )
        else:
            lines.append(f"{indent}for v{p} in range({e}):")
        indent += "    "
    operands_py = [
        f"x{k}[{_operand_offset(spec, k, var)}]"
        for k in range(len(spec.operands))
    ]
    if sr.is_default:
        lines.append(f"{indent}acc += {' * '.join(operands_py)}")
    else:
        combined = operands_py[0]
        for nxt in operands_py[1:]:
            combined = sr.py_expr_combine(combined, nxt)
        lines.append(f"{indent}w = {combined}")
        lines.append(f"{indent}acc = {sr.py_expr_reduce('acc', 'w')}")
    indent = "    " * (1 + len(tiled) + len(out_loops))
    off = _out_offset(spec, var)
    if sr.is_default:
        lines.append(f"{indent}out[{off}] += coef * acc")
    else:
        lines.append(
            f"{indent}out[{off}] = {sr.py_expr_reduce(f'out[{off}]', 'acc')}"
        )
    return "\n".join(lines) + "\n"


# -- fused statement groups --------------------------------------------------


def _member_var(nout: int, m: int) -> Callable[[int], str]:
    """Loop-variable naming of fused member ``m``: shared output
    variables ``v0..v{nout-1}``, member-private summation variables
    ``m{m}v{p}`` (each member owns its summation loop positions)."""
    return lambda p: f"v{p}" if p < nout else f"m{m}v{p}"


def c_fused_source(
    fspec,
    ctype: str = "double",
    tile: int = 64,
    threads: int = 1,
    parallel: str = "none",
    simd: bool = False,
) -> str:
    """One C function for a whole fused statement group.

    ``kern(coefs, x0, ..., o0, ...)`` walks the *shared* output loops
    once; inside, each member folds its full summation into a private
    accumulator and adds ``coefs[m] * acc`` to its output slot.  A
    member whose operand is another member's output reads the value
    written earlier in the same iteration (the fusion pass only admits
    such reads when the operand walks the output space identically), so
    the intermediate never round-trips through memory -- and
    ``restrict`` is dropped when that aliasing exists.  Summation-loop
    tiling does not apply here: a member's sum is completed per output
    point, which is what makes the in-iteration dependence legal.

    ``parallel``/``threads``/``simd`` behave exactly as in
    :func:`c_source`; the parallel region is entered once per group
    call instead of once per statement.
    """
    _check_parallel(parallel, fspec.nout)
    nout = fspec.nout
    rq = "" if fspec.aliased else " restrict"
    nops = sum(len(member.operands) for member in fspec.members)
    args = [f"const double*{rq} coefs"]
    if parallel == "chunk":
        args.append("long lo, long hi")
    args += [f"const {ctype}*{rq} x{g}" for g in range(nops)]
    args += [f"{ctype}*{rq} o{s}" for s in range(fspec.nslots)]
    lines: List[str] = [
        f"/* generated by repro.codegen.cgen ({NEST_IR_VERSION}) */",
        "/* fused group: "
        + render_fused_ir(fspec).replace("\n", "; ")
        + " */",
    ]
    headers: List[str] = []
    for member in fspec.members:
        for header in _spec_semiring(member).c_includes:
            if header not in headers:
                headers.append(header)
    for header in headers:
        lines.append(f"#include <{header}>")
    lines += [
        f"void kern({', '.join(args)})",
        "{",
    ]
    indent = "  "
    omp = parallel == "omp" and threads > 1
    if omp:
        lines.append(f"{indent}#pragma omp parallel num_threads({threads})")
        lines.append(f"{indent}{{")
        indent += "  "
    for i in range(nout):
        e = fspec.out_extents[i]
        innermost = i == nout - 1
        if i == 0 and omp:
            if innermost and simd:
                lines.append(f"{indent}#pragma omp for simd schedule(static)")
            else:
                lines.append(f"{indent}#pragma omp for schedule(static)")
        elif innermost and simd:
            lines.append(f"{indent}#pragma omp simd")
        if i == 0 and parallel == "chunk":
            lines.append(
                f"{indent}for (long v{i} = lo; v{i} < hi; ++v{i}) {{"
            )
        else:
            lines.append(
                f"{indent}for (long v{i} = 0; v{i} < {e}; ++v{i}) {{"
            )
        indent += "  "
    g = 0
    for m, member in enumerate(fspec.members):
        sr = _spec_semiring(member)
        var = _member_var(nout, m)
        sum_loops = list(range(nout, len(member.extents)))
        lines.append(f"{indent}{{")
        inner = indent + "  "
        if sr.is_default:
            lines.append(f"{inner}{ctype} acc = 0;")
        else:
            lines.append(f"{inner}{ctype} acc = {sr.c_zero(ctype)};")
        for p in sum_loops:
            e = member.extents[p]
            lines.append(
                f"{inner}for (long {var(p)} = 0; {var(p)} < {e}; "
                f"++{var(p)}) {{"
            )
            inner += "  "
        operands_c = [
            f"x{g + k}[{_operand_offset(member, k, var)}]"
            for k in range(len(member.operands))
        ]
        if sr.is_default:
            lines.append(f"{inner}acc += {' * '.join(operands_c)};")
        else:
            combined = operands_c[0]
            for nxt in operands_c[1:]:
                combined = sr.c_combine(combined, nxt)
            lines.append(f"{inner}{ctype} w = {combined};")
            lines.append(f"{inner}acc = {sr.c_reduce('acc', 'w')};")
        for _ in sum_loops:
            inner = inner[:-2]
            lines.append(f"{inner}}}")
        slot = fspec.out_slots[m]
        dst = f"o{slot}[{_out_offset(member, var)}]"
        if sr.is_default:
            lines.append(f"{inner}{dst} += ({ctype})coefs[{m}] * acc;")
        else:
            lines.append(f"{inner}{dst} = {sr.c_reduce(dst, 'acc')};")
        lines.append(f"{indent}}}")
        g += len(member.operands)
    for _ in range(nout):
        indent = indent[:-2]
        lines.append(f"{indent}}}")
    if omp:
        indent = indent[:-2]
        lines.append(f"{indent}}}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def py_fused_source(fspec, tile: int = 64, name: str = "kern") -> str:
    """The fused group as a Python function over flat arrays.

    ``kern(coefs, x0, ..., o0, ...)`` mirrors :func:`c_fused_source`
    exactly (``coefs`` arrives as a float64 array).
    """
    nout = fspec.nout
    nops = sum(len(member.operands) for member in fspec.members)
    args = ["coefs"]
    args += [f"x{g}" for g in range(nops)]
    args += [f"o{s}" for s in range(fspec.nslots)]
    lines = []
    if any("math." in _spec_semiring(m).py_zero() for m in fspec.members):
        lines.append("import math")
    lines.append(f"def {name}({', '.join(args)}):")
    indent = "    "
    for i in range(nout):
        lines.append(f"{indent}for v{i} in range({fspec.out_extents[i]}):")
        indent += "    "
    for m, member in enumerate(fspec.members):
        sr = _spec_semiring(member)
        var = _member_var(nout, m)
        sum_loops = list(range(nout, len(member.extents)))
        if sr.is_default:
            lines.append(f"{indent}acc = 0.0")
        else:
            lines.append(f"{indent}acc = {sr.py_zero()}")
        inner = indent
        for p in sum_loops:
            e = member.extents[p]
            lines.append(f"{inner}for {var(p)} in range({e}):")
            inner += "    "
        operands_py = [
            f"x{sum(len(mm.operands) for mm in fspec.members[:m]) + k}"
            f"[{_operand_offset(member, k, var)}]"
            for k in range(len(member.operands))
        ]
        if sr.is_default:
            lines.append(f"{inner}acc += {' * '.join(operands_py)}")
        else:
            combined = operands_py[0]
            for nxt in operands_py[1:]:
                combined = sr.py_expr_combine(combined, nxt)
            lines.append(f"{inner}w = {combined}")
            lines.append(f"{inner}acc = {sr.py_expr_reduce('acc', 'w')}")
        slot = fspec.out_slots[m]
        dst = f"o{slot}[{_out_offset(member, var)}]"
        if sr.is_default:
            lines.append(f"{indent}{dst} += coefs[{m}] * acc")
        else:
            lines.append(f"{indent}{dst} = {sr.py_expr_reduce(dst, 'acc')}")
    return "\n".join(lines) + "\n"
