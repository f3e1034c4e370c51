"""E25: semiring-generalized contractions as a graph engine.

The semiring layer (:mod:`repro.semiring`) swaps the scalar algebra of
every contraction, so the pipeline's compiled native nests run graph
dynamic programming directly: all-pairs shortest paths is
``ceil(log2(n-1))`` matrix squarings over ``min_plus``
(:mod:`repro.graphs`).  This experiment measures that against the
textbook alternative -- a pure-Python Bellman-Ford relaxation from
every source -- and pins the cross-substrate parity story:

* **speedup**: native ``min_plus`` APSP vs ``bellman_ford`` from all
  ``n`` sources.  The compiled nest does O(n^3 log n) fused min/add
  ops; the reference does O(n^3)-ish interpreted Python.  Floor:
  ``E25_MIN_SPEEDUP`` (default 5).
* **parity**: the same APSP program, bit-identical across the loop-IR
  interpreter, the einsum/gemm/native kernel runners, and the local +
  process SPMD backends (idempotent ``min`` makes every legal
  evaluation order produce identical bits), and equal to a pure-Python
  Floyd-Warshall oracle to 1e-12.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.graphs import (
    apsp_program,
    bellman_ford,
    floyd_warshall,
    random_weight_matrix,
    squaring_steps,
)
from repro.kernels import native_available
from repro.parallel.grid import ProcessorGrid
from repro.pipeline import SynthesisConfig, synthesize

MIN_SPEEDUP = float(os.environ.get("E25_MIN_SPEEDUP", "5.0"))
RTOL = ATOL = 1e-12


def _best(fn, repeats: int = 3, inner: int = 1) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - t0) / inner)
    return min(times)


@pytest.mark.skipif(
    not native_available(),
    reason="no native backend (a C compiler) on this machine",
)
def test_apsp_native_vs_bellman_ford(record_rows):
    """Native min_plus repeated squaring vs all-sources Bellman-Ford."""
    n = 64
    weights = random_weight_matrix(n, density=0.3, seed=0)
    source, res = apsp_program(n)
    result = synthesize(
        source, SynthesisConfig(semiring="min_plus", codegen="native")
    )
    runner = result.kernel_runner()
    inputs = {"W": weights}

    native_out = runner.run(inputs, copy=True)[res]
    reference = np.stack(
        [bellman_ford(weights, source=s) for s in range(n)]
    )
    assert np.allclose(native_out, reference, rtol=RTOL, atol=ATOL)

    native_s = _best(lambda: runner.run(inputs), repeats=5, inner=3)
    python_s = _best(
        lambda: [bellman_ford(weights, source=s) for s in range(n)],
        repeats=2,
    )
    speedup = python_s / native_s
    record_rows(
        "E25: APSP over min_plus -- native nests vs pure-Python "
        "Bellman-Ford (all sources)",
        ["engine", "algorithm", "time (s)", "speedup"],
        [
            [
                "python loops",
                f"bellman_ford x{n} sources",
                f"{python_s:.4f}",
                "1.0x",
            ],
            [
                "native nests",
                f"{squaring_steps(n)} min_plus squarings",
                f"{native_s:.4f}",
                f"{speedup:.1f}x",
            ],
        ],
        metrics={
            "n": n,
            "python_s": python_s,
            "native_s": native_s,
            "speedup": speedup,
            "floor": MIN_SPEEDUP,
        },
    )
    assert speedup >= MIN_SPEEDUP


def test_parity_across_substrates(record_rows):
    """One APSP program, every substrate, identical bits."""
    n = 10
    weights = random_weight_matrix(n, density=0.4, seed=1)
    source, res = apsp_program(n)
    inputs = {"W": weights}
    oracle = floyd_warshall(weights)

    outputs = {}
    interp_result = synthesize(source, SynthesisConfig(semiring="min_plus"))
    outputs["interp"] = interp_result.execute(inputs)[res]

    modes = ["einsum", "gemm"] + (["native"] if native_available() else [])
    for mode in modes:
        result = synthesize(
            source, SynthesisConfig(semiring="min_plus", codegen=mode)
        )
        outputs[f"kernel/{mode}"] = result.kernel_runner().run(
            inputs, copy=True
        )[res]

    grid_result = synthesize(
        source,
        SynthesisConfig(semiring="min_plus", grid=ProcessorGrid((2,))),
    )
    outputs["spmd/local"] = grid_result.run_parallel(inputs)[res]
    outputs["spmd/process"] = grid_result.run_parallel(
        inputs, backend="process", procs=2
    )[res]

    base = outputs["interp"]
    rows = []
    for name, out in outputs.items():
        identical = bool(np.array_equal(out, base))
        close = bool(np.allclose(out, oracle, rtol=RTOL, atol=ATOL))
        rows.append(
            [name, "yes" if identical else "NO", "yes" if close else "NO"]
        )
        assert identical, f"{name} diverges from the interpreter"
        assert close, f"{name} diverges from floyd_warshall"
    record_rows(
        "E25: min_plus APSP parity -- substrates vs interpreter bits "
        "and the Floyd-Warshall oracle",
        ["substrate", "bit-identical", "oracle 1e-12"],
        rows,
        metrics={"n": n, "substrates": len(rows)},
    )
