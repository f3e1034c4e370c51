"""Emitted-text stability of single nests.

The C text of a lone nest is what the artifact store addresses (through
the nest IR) and what every benchmark workload runs; ``py_source`` is
the reference every compiled rendering is tested against.  Both are
pinned here by digest -- recorded from the emitter as of PR 19, before
the plain walk moved onto a format table -- so a refactor of
``codegen.cgen`` that moves one byte of either says so.

Regenerate (only when a change of emitted text is intended, together
with a ``NEST_IR_VERSION`` bump)::

    PYTHONPATH=src:. python -c \
        "import tests.test_cgen_stability as t; t.show()"
"""

import functools
import hashlib
import random

import numpy as np

from repro.codegen.cgen import NEST_IR_VERSION, c_source, py_source
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
    "workload C": (
        "cf7a6df07a0ce5a7cae099d27b34d2389f043e1009b1f5411070974979d030db"
    ),
    "workload IR": (
        "2595da9d43f5990a8e650518495ac81d62b58580ea17144bffd2c76a8676a79c"
    ),
    "corpus C": (
        "62120a2b82737c675683baf626b6af8babaf9e41be45674ece9daf4379c6337e"
    ),
    "corpus py": (
        "b552beb64063692f7584a31f93e37b6206cc3690ae1adbded5ce7538d0153b96"
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


def _renderings(spec):
    """Every C rendering of one nest: tile x strategy x simd x type."""
    strategies = ("none", "omp", "chunk") if spec.nout else ("none",)
    for tile in TILES:
        for parallel in strategies:
            for simd in (False, True):
                for ctype in ("double", "float"):
                    yield c_source(
                        spec, ctype, tile,
                        threads=3, parallel=parallel, simd=simd,
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
    return {
        "workload C": _digest(t for s in nests for t in _renderings(s)),
        "workload IR": _digest(s.ir() for s in nests),
        "corpus C": _digest(t for s in specs for t in _renderings(s)),
        "corpus py": _digest(
            py_source(s, tile=tile) for s in specs for tile in TILES
        ),
    }


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
    assert NEST_IR_VERSION == "nest-ir v4"
    assert digests() == PINNED


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
