"""Emitted-text stability of single nests.

The C text of a lone nest is what the artifact store addresses (through
the nest IR) and what every benchmark workload runs; ``py_source`` is
the reference every compiled rendering is tested against.  Both are
pinned here by digest, the C text once per vector unit the native
engine's probe can report, so a refactor of ``codegen.cgen`` that moves
one byte of either says so.  The 256-bit unit's double-precision code
is also pinned against the emitter of nest IR v4, which had one fixed
4 x 16-element tile: below its two comment lines it is that code, byte
for byte, except that since nest IR v6 a pack panel's row is clipped
to the vector loop's extent (its declared size and its offsets).

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
        "6ffa2b6915a834cf48803fb0639f71a091ff2d10aaf0c6ec2cd69cde7673eed5"
    ),
    "corpus py": (
        "b552beb64063692f7584a31f93e37b6206cc3690ae1adbded5ce7538d0153b96"
    ),
    "workload C 128/16": (
        "5f28fa635b129978836b376af250d32b74aa133d7d95f2aec17533ce60902ca2"
    ),
    "corpus C 128/16": (
        "c0d1a13da036037c00cde2a54421d8b9852ce6a1063a3f1c5c496e5d7d853c9c"
    ),
    "workload C 256/16": (
        "3c858c1b06112e7f710e81b60fa5829fa93a9d6dd1ea63a71775747bb47ae248"
    ),
    "corpus C 256/16": (
        "6147fea60865decc673c66fe51413d99ca3555ec77c4ba6c22a7c3c5d771457f"
    ),
    "workload C 512/32": (
        "73b9b1e34270d905347c84c35a6e8f705ac4160907ca8e9501f285b4bf860bf5"
    ),
    "corpus C 512/32": (
        "e5e62c162a9454c4c7102b30515751984ea3fb3f5483f038cb915baa40efbace"
    ),
}

#: the double-precision C of the 256-bit unit below each text's two
#: comment lines (version banner and nest IR), as the nest IR v4 emitter
#: rendered it with v6's clipped panel rows
V4_BODIES = {
    "workload": (
        "3efd559eef05371be65ae439d7f6efb7d70d2dd43e350b1cfba4e330a8504e68"
    ),
    "corpus": (
        "799c38f30968c73e67df6dcf9d21cc476a23bd07ea2877d372ccfe07ec62022a"
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
    assert NEST_IR_VERSION == "nest-ir v6"
    assert digests() == PINNED


def test_the_256_bit_unit_keeps_the_v4_code():
    """An AVX2 machine compiles the nests it compiled before the unit
    was probed: only the banner, the IR comment and (v6) the panel rows
    of a strip wider than its vector loop moved."""
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
