"""E23: compiled native fused tiled loop nests vs the numpy lowering.

The native codegen layer (:mod:`repro.kernels.native`) lowers each
kernel-plan step to a single fused tiled C loop nest, compiled once and
cached in a content-addressed artifact store.  At small-to-moderate
extents -- the regime of the paper's spatial-orbital examples -- every
numpy term pays fixed per-call overhead (permute + reshape + matmul
dispatch for the GEMM lowering, einsum dispatch for multi-operand
terms) that dwarfs the arithmetic; the fused nest replaces all of it
with one compiled call per term.  This experiment measures that win on
two workloads:

* a single fused three-operand contraction, which the GEMM lowering can
  only run as one ``np.einsum`` call while the native backend emits one
  fused nest with a tiled summation;
* a binary contraction whose operand layouts force the GEMM lowering
  through permute + reshape before the ``np.matmul`` call -- the
  "beats numpy GEMM" comparison -- while the fused nest reads both
  operands in place;
* small CCSD doubles end to end (recorded for context, no floor: its
  mix of term shapes makes the ratio machine-sensitive).

Floor: ``E23_MIN_SPEEDUP`` (default 1.1 -- deliberately conservative,
the point is overhead removal at small extents, not peak FLOPs; CI
relaxes to 1.05 to tolerate shared-runner noise).  At large extents
BLAS wins and the autotuner keeps the GEMM plan; that crossover is by
design and not asserted here.  Timings are min-of-repeats.

The warm-artifact test also pins the store contract: a fresh engine
pointed at a populated artifact directory serves every nest with zero
compiler invocations.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro import random_inputs, synthesize
from repro.chem.workloads import ccsd_doubles_program
from repro.engine.executor import run_statements
from repro.expr.ast import Mul, Statement, Sum, TensorRef
from repro.expr.indices import Index, IndexRange
from repro.expr.tensor import Tensor
from repro.kernels import (
    ArtifactStore,
    KernelRunner,
    NativeEngine,
    compile_kernel_plan,
    native_available,
)
from repro.pipeline import SynthesisConfig

pytestmark = pytest.mark.skipif(
    not native_available(),
    reason="no native backend (a C compiler) on this machine",
)

# Workload extents: small enough that per-call numpy overhead is the
# dominant cost (the regime the native backend targets), large enough
# that timings stay out of jitter territory.
FUSED_EXTENTS = {"a": 8, "b": 8, "i": 6, "j": 6, "k": 6}
BINARY_EXTENTS = {"a": 6, "b": 6, "i": 6, "j": 6, "k": 8}
CCSD_V, CCSD_O = 6, 3
MIN_SPEEDUP = float(os.environ.get("E23_MIN_SPEEDUP", "1.1"))


def _best(fn, repeats: int = 5, inner: int = 10) -> float:
    """Min-of-repeats wall time per call."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - t0) / inner)
    return min(times)


def _fused_statement() -> Statement:
    """S(a,b,j) = sum(i,k) A(a,i) B(i,j,k) C(k,b) -- one three-operand
    term that the GEMM lowering cannot split (it is handed the statement
    as-is) and therefore runs as a single einsum call."""
    idx = {
        name: Index(name, IndexRange("R" + name, extent))
        for name, extent in FUSED_EXTENTS.items()
    }
    a, b, i, j, k = (idx[n] for n in "abijk")
    A = Tensor("A", (a, i))
    B = Tensor("B", (i, j, k))
    C = Tensor("C", (k, b))
    S = Tensor("S", (a, b, j))
    return Statement(
        S,
        Sum(
            (i, k),
            Mul(
                (
                    TensorRef(A, (a, i)),
                    TensorRef(B, (i, j, k)),
                    TensorRef(C, (k, b)),
                )
            ),
        ),
    )


def _fused_inputs(seed: int = 0):
    rng = np.random.default_rng(seed)
    e = FUSED_EXTENTS
    return {
        "A": rng.standard_normal((e["a"], e["i"])),
        "B": rng.standard_normal((e["i"], e["j"], e["k"])),
        "C": rng.standard_normal((e["k"], e["b"])),
    }


def _binary_statement() -> Statement:
    """S(a,b,i,j) = sum(k) T(k,a,i) U(j,k,b) -- a single binary term
    the GEMM lowering runs as a genuine ``np.matmul``, but only after
    permuting and reshaping both operands (and the output) because the
    contracted axis sits first in one operand and in the middle of the
    other.  The fused nest indexes both layouts in place."""
    idx = {
        name: Index(name, IndexRange("R" + name, extent))
        for name, extent in BINARY_EXTENTS.items()
    }
    a, b, i, j, k = (idx[n] for n in "abijk")
    T = Tensor("T", (k, a, i))
    U = Tensor("U", (j, k, b))
    S = Tensor("S", (a, b, i, j))
    return Statement(
        S,
        Sum(
            (k,),
            Mul((TensorRef(T, (k, a, i)), TensorRef(U, (j, k, b)))),
        ),
    )


def _binary_inputs(seed: int = 0):
    rng = np.random.default_rng(seed)
    e = BINARY_EXTENTS
    return {
        "T": rng.standard_normal((e["k"], e["a"], e["i"])),
        "U": rng.standard_normal((e["j"], e["k"], e["b"])),
    }


@pytest.fixture(scope="module")
def ccsd():
    prog = ccsd_doubles_program(V=CCSD_V, O=CCSD_O)
    gemm = synthesize(prog, SynthesisConfig(codegen="gemm"))
    native = synthesize(prog, SynthesisConfig(codegen="native"))
    inputs = random_inputs(prog, None, seed=0)
    return gemm, native, inputs


class TestE23NativeCodegen:
    def test_native_matches_reference(self, ccsd):
        gemm, native, inputs = ccsd
        assert native.codegen_mode == "native"
        assert native.kernel_plan.native_terms > 0
        ref = run_statements(
            native.statements, inputs, None, None, path_cache=False
        )
        got = native.kernel_runner().run(inputs)
        np.testing.assert_allclose(got["R"], ref["R"], rtol=1e-10, atol=1e-10)

    def test_fused_nest_vs_einsum_term(self, record_rows):
        st = _fused_statement()
        inputs = _fused_inputs()
        gemm_runner = KernelRunner(compile_kernel_plan([st], mode="gemm"))
        native_runner = KernelRunner(compile_kernel_plan([st], mode="native"))
        base_out = gemm_runner.run(inputs)["S"]
        fast_out = native_runner.run(inputs)["S"]
        np.testing.assert_allclose(fast_out, base_out, rtol=1e-10, atol=1e-10)
        assert not native_runner.notes, native_runner.notes

        base = _best(lambda: gemm_runner.run(inputs))
        fast = _best(lambda: native_runner.run(inputs))
        speedup = base / fast

        shape = "x".join(str(FUSED_EXTENTS[n]) for n in "abijk")
        record_rows(
            f"E23: fused 3-operand contraction ({shape})",
            ["path", "us/run", "speedup"],
            [
                ["einsum term (gemm lowering)", f"{base * 1e6:.1f}", "1.00x"],
                ["compiled fused tiled nest", f"{fast * 1e6:.1f}",
                 f"{speedup:.2f}x"],
            ],
            metrics={
                "extents": dict(FUSED_EXTENTS),
                "einsum_term_s": base,
                "native_nest_s": fast,
                "speedup": speedup,
                "min_speedup_floor": MIN_SPEEDUP,
            },
        )
        assert speedup >= MIN_SPEEDUP, (
            f"fused nest only {speedup:.2f}x over the einsum term "
            f"(floor {MIN_SPEEDUP}x)"
        )

    def test_fused_nest_vs_numpy_gemm(self, record_rows):
        st = _binary_statement()
        inputs = _binary_inputs()
        gemm_plan = compile_kernel_plan([st], mode="gemm")
        assert gemm_plan.gemm_terms == 1  # the baseline really is matmul
        gemm_runner = KernelRunner(gemm_plan)
        native_runner = KernelRunner(compile_kernel_plan([st], mode="native"))
        base_out = gemm_runner.run(inputs)["S"]
        fast_out = native_runner.run(inputs)["S"]
        np.testing.assert_allclose(fast_out, base_out, rtol=1e-10, atol=1e-10)
        assert not native_runner.notes, native_runner.notes

        base = _best(lambda: gemm_runner.run(inputs))
        fast = _best(lambda: native_runner.run(inputs))
        speedup = base / fast

        shape = "x".join(str(BINARY_EXTENTS[n]) for n in "abijk")
        record_rows(
            f"E23: binary contraction with layout mismatch ({shape})",
            ["path", "us/run", "speedup"],
            [
                ["numpy GEMM (permute+reshape+matmul)",
                 f"{base * 1e6:.1f}", "1.00x"],
                ["compiled fused tiled nest", f"{fast * 1e6:.1f}",
                 f"{speedup:.2f}x"],
            ],
            metrics={
                "extents": dict(BINARY_EXTENTS),
                "gemm_term_s": base,
                "native_nest_s": fast,
                "speedup": speedup,
                "min_speedup_floor": MIN_SPEEDUP,
            },
        )
        assert speedup >= MIN_SPEEDUP, (
            f"fused nest only {speedup:.2f}x over the numpy GEMM term "
            f"(floor {MIN_SPEEDUP}x)"
        )

    def test_native_vs_gemm_on_ccsd(self, ccsd, record_rows):
        """End-to-end context row: whole CCSD doubles plan, native vs
        GEMM.  Recorded but not floored -- the mix of term shapes makes
        the end-to-end ratio machine-sensitive (parity is asserted)."""
        gemm, native, inputs = ccsd
        gemm_runner = gemm.kernel_runner()
        native_runner = native.kernel_runner()
        np.testing.assert_allclose(
            native_runner.run(inputs)["R"],
            gemm_runner.run(inputs)["R"],
            rtol=1e-10,
            atol=1e-10,
        )
        assert not native_runner.notes, native_runner.notes

        base = _best(lambda: gemm_runner.run(inputs))
        fast = _best(lambda: native_runner.run(inputs))
        speedup = base / fast

        plan = native.kernel_plan
        record_rows(
            f"E23: CCSD doubles (V={CCSD_V}, O={CCSD_O}) native vs GEMM plan",
            ["path", "us/run", "speedup"],
            [
                ["GEMM plan (permute+reshape+matmul)",
                 f"{base * 1e6:.1f}", "1.00x"],
                ["native fused nests", f"{fast * 1e6:.1f}",
                 f"{speedup:.2f}x"],
            ],
            metrics={
                "V": CCSD_V,
                "O": CCSD_O,
                "gemm_plan_s": base,
                "native_plan_s": fast,
                "speedup": speedup,
                "native_terms": plan.native_terms,
            },
        )

    def test_warm_artifacts_need_no_compiler(self, tmp_path, record_rows):
        st = _fused_statement()
        inputs = _fused_inputs(seed=1)
        plan = compile_kernel_plan([st], mode="native")

        cold_engine = NativeEngine(
            store=ArtifactStore(directory=str(tmp_path))
        )
        cold = KernelRunner(plan, engine=cold_engine)
        cold_out = cold.run(inputs)["S"]
        assert cold_engine.stats()["compile_invocations"] >= 1

        warm_engine = NativeEngine(
            store=ArtifactStore(directory=str(tmp_path))
        )
        warm = KernelRunner(plan, engine=warm_engine)
        warm_out = warm.run(inputs)["S"]
        stats = warm_engine.stats()

        np.testing.assert_array_equal(warm_out, cold_out)
        record_rows(
            "E23: warm artifact store",
            ["engine", "compile invocations", "store loads"],
            [
                ["cold", cold_engine.stats()["compile_invocations"],
                 cold_engine.stats()["store_loads"]],
                ["warm", stats["compile_invocations"],
                 stats["store_loads"]],
            ],
            metrics={
                "warm_compile_invocations": stats["compile_invocations"],
                "warm_store_loads": stats["store_loads"],
            },
        )
        assert stats["compile_invocations"] == 0
        assert stats["store_loads"] >= 1
