"""Emitted-text stability of single nests.

The C text of a lone nest is what the artifact store addresses (through
the nest IR) and what every benchmark workload runs; ``py_source`` is
the reference every compiled rendering is tested against.  Both are
pinned here by digest, the C text once per vector unit the native
engine's probe can report, so a refactor of ``codegen.cgen`` that moves
one byte of either says so.  The 256-bit unit's double-precision code
is also pinned against the emitter of nest IR v4, which had one fixed
4 x 16-element tile: below its two comment lines it is that code, byte
for byte.

Regenerate (only when a change of emitted text is intended, together
with a ``NEST_IR_VERSION`` bump)::

    PYTHONPATH=src:. python -c \
        "import tests.test_cgen_stability as t; t.show()"
"""

import functools
import hashlib
import random

import numpy as np

from repro.codegen.cgen import UNITS, NEST_IR_VERSION, c_source, py_source
from repro.kernels import NativeEngine, NativeSpec, artifact_key
from repro.pipeline import SynthesisConfig, synthesize
from repro.semiring import available_semirings

# benchmarks/e2e's two native workloads: Fig. 1 at V=32, O=8 and
# min_plus all-pairs shortest paths at n=256 (8 squarings, one nest)
FIG1 = """
range V = 32; range O = 8;
index a, b, c, d, e, f : V;
index i, j, k, l : O;
tensor A(a, c, i, k); tensor B(b, e, f, l);
tensor C(d, f, j, k); tensor D(c, d, e, l);
S(a, b, i, j) = sum(c, d, e, f, k, l)
    A(a,c,i,k) * B(b,e,f,l) * C(d,f,j,k) * D(c,d,e,l);
"""

APSP = "range N = 256;\nindex i, j, k : N;\ntensor W(i, j);\n" + "".join(
    f"{cur}(i, j) = sum(k) {prev}(i, k) * {prev}(k, j);\n"
    for prev, cur in zip(
        ["W"] + [f"S{t}" for t in range(1, 8)],
        [f"S{t}" for t in range(1, 8)] + ["D"],
    )
)

EXTENTS = (1, 3, 9, 17, 70)
TILES = (0, 4, 64)

PINNED = {
    "workload IR": (
        "fcb75803018dbf1346e42e6c7955cf8001e2afc9b20a3f4f35bae27458af9400"
    ),
    "corpus py": (
        "b552beb64063692f7584a31f93e37b6206cc3690ae1adbded5ce7538d0153b96"
    ),
    "workload C 128/16": (
        "ea0a1f6443f844c5f7d0a665b70460fc7b6a7744ababce95c36b977bb2c09f4d"
    ),
    "corpus C 128/16": (
        "5788524d70bb5c9a4b202b2284d01021b7387c5d2dd25f0f673a575803e6ecc2"
    ),
    "workload C 256/16": (
        "6d6fd70ec7f76e01be245019d3252e398513486008dce6ccde838fa79e07e6fb"
    ),
    "corpus C 256/16": (
        "824918e59db2087518d6f8e1597427904aa0f4feb4dbb00756bdd2b0df836661"
    ),
    "workload C 512/32": (
        "dcdde99f64ecd9ad5dedea650bca94aa94769dca5723afb29cb05cc4efd8c16d"
    ),
    "corpus C 512/32": (
        "30f4a242beef8784c3f7e79126de88a9e1f7edbd0eca49ad4fa446952ea8359c"
    ),
}

#: the double-precision C of the 256-bit unit below each text's two
#: comment lines (version banner and nest IR), as the nest IR v4 emitter
#: rendered it
V4_BODIES = {
    "workload": (
        "76fe36afbf169918e5aef88cb15c2269fea87c081a2bb3de7444ece6e042d57f"
    ),
    "corpus": (
        "3bd282a415911a2a92347f045ae0f86a1402cd464ff174df5f4c4518d0058b2a"
    ),
}


@functools.lru_cache(maxsize=None)
def workload_nests():
    """Every native nest the two workloads lower to, in statement
    order, with ``fuse_statements`` as the benchmark worker sets it."""
    nests = []
    for text, semiring in ((FIG1, "plus_times"), (APSP, "min_plus")):
        result = synthesize(
            text,
            SynthesisConfig(
                codegen="native", fuse_statements=True, semiring=semiring,
                optimize_cache=False,
            ),
        )
        plan = result.kernel_plan
        assert plan.fused_groups == ()
        nests += [
            t.native for sp in plan.statements for t in sp.terms
            if t.native is not None
        ]
    return tuple(nests)


def corpus(count=150, seed=20):
    """A fixed pseudo-random corpus of nest specs: 0-3 output loops,
    1-3 operands with repeated loops (diagonals), extents around the
    4-row block, the 16-element strip and the 64-element tile, every
    registered semiring in turn.  ``random.Random`` integer draws are
    stable across Python versions."""
    rng = random.Random(seed)
    semirings = available_semirings()
    specs = []
    for n in range(count):
        nloops = rng.randrange(1, 6)
        extents = [EXTENTS[rng.randrange(len(EXTENTS))] for _ in range(nloops)]
        nout = min(rng.randrange(4), nloops)
        operands = [
            [rng.randrange(nloops) for _ in range(rng.randrange(1, 4))]
            for _ in range(rng.randrange(1, 4))
        ]
        for p in range(nloops):  # every loop is carried by some operand
            if not any(p in axes for axes in operands):
                operands[rng.randrange(len(operands))].append(p)
        specs.append(
            NativeSpec(
                names=tuple(f"i{p}" for p in range(nloops)),
                extents=tuple(extents),
                nout=nout,
                operands=tuple(tuple(axes) for axes in operands),
                semiring=semirings[n % len(semirings)],
            )
        )
    return specs


def _renderings(spec, unit, ctypes=("double", "float")):
    """Every C rendering of one nest for ``unit``: tile x strategy x
    simd x type."""
    strategies = ("none", "omp", "chunk") if spec.nout else ("none",)
    for tile in TILES:
        for parallel in strategies:
            for simd in (False, True):
                for ctype in ctypes:
                    yield c_source(
                        spec, ctype, tile,
                        threads=3, parallel=parallel, simd=simd, unit=unit,
                    )


def _digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def digests():
    nests = workload_nests()
    assert len(nests) == 11
    specs = corpus()
    found = {
        "workload IR": _digest(s.ir() for s in nests),
        "corpus py": _digest(
            py_source(s, tile=tile) for s in specs for tile in TILES
        ),
    }
    for unit in UNITS:
        found[f"workload C {unit}"] = _digest(
            t for s in nests for t in _renderings(s, unit)
        )
        found[f"corpus C {unit}"] = _digest(
            t for s in specs for t in _renderings(s, unit)
        )
    return found


def show():
    for name, value in digests().items():
        print(f'    "{name}": "{value}",')


def test_corpus_covers_both_emitters_and_every_algebra():
    from repro.codegen.cgen import nest_schedule

    specs = corpus()
    scheduled = [s for s in specs if nest_schedule(s) is not None]
    assert 10 < len(scheduled) < len(specs) - 10
    assert {s.semiring for s in scheduled} == set(available_semirings())
    assert {s.nout for s in specs} == {0, 1, 2, 3}
    assert any(
        len(set(axes)) < len(axes) for s in specs for axes in s.operands
    )


def test_emitted_text_is_byte_identical_to_the_pinned_emitter():
    assert NEST_IR_VERSION == "nest-ir v5"
    assert digests() == PINNED


def test_the_256_bit_unit_keeps_the_v4_code():
    """An AVX2 machine compiles exactly the nests it compiled before the
    unit was probed: only the banner and the IR comment moved."""
    def bodies(specs):
        return _digest(
            text.split("\n", 2)[2]
            for s in specs for text in _renderings(s, UNITS[1], ("double",))
        )

    assert {
        "workload": bodies(workload_nests()),
        "corpus": bodies(corpus()),
    } == V4_BODIES


def test_single_nest_keys_are_the_ir_and_the_flags_nothing_else():
    """``engine.key`` of a lone nest is ``artifact_key`` over exactly
    the pinned IR text, the dtype, the backend, the compiler and the
    engine's flags -- with the IR digest pinned above, a single-nest
    key can only move with the machine."""
    engine = NativeEngine()
    for spec in workload_nests():
        for threads in (1, 2):
            flags = engine.flags(threads, spec)
            assert flags[-3:] == (
                "tile=64", f"threads={threads}",
                f"par={engine.parallel_strategy(threads)}",
            )
            assert engine.key(spec, np.float64, threads) == artifact_key(
                spec.ir(), "<f8", engine.backend or "none",
                engine.compiler_identity(), flags,
            )
