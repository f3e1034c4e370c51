"""The kernel plan's sparse step against the nonzero-iterating reference.

A term that reads a declared-sparse operand lowers to a ``"sparse"``
term (:class:`repro.kernels.plan.SparseSpec`): join the sparse operands'
stored entries, gather the dense operands there, combine with one
einsum over the rows, scatter-reduce into the output.  The suite runs
it on small programs -- one and two sparse operands, a repeated index,
a function factor, ``+=``, coefficients, a dense statement in between
-- at stored-entry fills 0, 0.01 and 1, under every algebra, and checks
it against :func:`repro.sparse.executor.run_statements`: ``plus_times``
to 1e-12, the idempotent algebras exactly (their data is integer
valued, so no sum is rounded).

It also pins that ``run()``, ``compile_fast()`` and ``execute()`` give
a program that declares sparsity one meaning, that ``run()`` reads
sparse containers, and that ``sparse_execution=False`` ignores the
declarations on every path.
"""

import math

import numpy as np
import pytest

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a tier-1 dep
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro.engine.executor import random_inputs
from repro.expr.parser import parse_program
from repro.kernels import KernelRunner, compile_kernel_plan
from repro.pipeline import SynthesisConfig, synthesize
from repro.robustness.errors import ShapeError
from repro.semiring import get_semiring
from repro.sparse.executor import random_sparse_inputs, run_statements
from repro.sparse.formats import COOTensor, CSFTensor

N = 5
HEADER = f"range N = {N};\nindex i, j, k, l : N;\n"

#: name -> (program body, sparse terms in its kernel plan, whether it
#: carries a coefficient other than 1 -- plus_times only)
PROGRAMS = {
    "one sparse": (
        "tensor A(i, k) sparse(0.3); tensor B(k, j);\n"
        "C(i, j) = sum(k) A(i, k) * B(k, j);",
        1, False,
    ),
    "two sparse": (
        "tensor A(i, k) sparse(0.3); tensor D(k, j) sparse(0.3);\n"
        "C(i, j) = sum(k) A(i, k) * D(k, j);",
        1, False,
    ),
    "two sparse around a dense": (
        "tensor A(i, k) sparse(0.3); tensor B(k, l);\n"
        "tensor D(l, j) sparse(0.3);\n"
        "C(i, j) = sum(k, l) A(i, k) * B(k, l) * D(l, j);",
        1, False,
    ),
    "self join to a scalar": (
        "tensor A(i, j) sparse(0.3);\n"
        "E() = sum(i, j) A(i, j) * A(i, j);",
        1, False,
    ),
    "repeated index": (
        "tensor A(i, k) sparse(0.3); tensor B(i, j);\n"
        "C(i, j) = A(i, i) * B(i, j);",
        1, False,
    ),
    "repeated dense index": (
        "tensor A(i, j) sparse(0.3); tensor B(i, k);\n"
        "y(j) = sum(i) B(i, i) * A(i, j);",
        1, False,
    ),
    "function factor": (
        "tensor A(i, k) sparse(0.3); function f(k, j) cost 1;\n"
        "C(i, j) = sum(k) A(i, k) * f(k, j);",
        1, False,
    ),
    "accumulate": (
        "tensor A(i, k) sparse(0.3); tensor B(k, j);\n"
        "C(i, j) = sum(k) A(i, k) * B(k, j);\n"
        "C(i, j) += sum(k) B(i, k) * A(k, j);",
        2, False,
    ),
    "dense statement first": (
        "tensor A(i, k) sparse(0.3); tensor B(k, j);\n"
        "T(k, j) = sum(l) B(k, l) * B(l, j);\n"
        "C(i, j) = sum(k) A(i, k) * T(k, j);",
        1, False,
    ),
    "coefficients": (
        "tensor A(i, j) sparse(0.3); tensor B(j, k);\n"
        "C(i, k) = 2.5 * sum(j) A(i, j) * B(j, k) - A(i, k);",
        2, True,
    ),
}

SEMIRINGS = ("plus_times", "min_plus", "max_plus", "or_and")
FUNCTIONS = {"f": lambda k, j: ((k + 2 * j) % 3 == 0).astype(np.float64)}


def _values(rng, shape, sr):
    """Entries exactly representable in ``sr``'s carrier: normals under
    plus_times, small integers under the tropical algebras, 1 under
    or_and."""
    if sr.is_default:
        return rng.standard_normal(shape)
    if sr.name == "or_and":
        return np.ones(shape)
    return rng.integers(-4, 5, shape).astype(np.float64)


def _inputs(program, sr, fill: float, container: str, seed: int):
    """Inputs of ``program``: a declared-sparse one stores
    ``ceil(fill * size)`` entries (the rest is the algebra's zero),
    handed over as a dense array or a COO/CSF container."""
    rng = np.random.default_rng(seed)
    out = {}
    for tensor in program.inputs():
        shape = tensor.shape()
        if tensor.fill < 1.0:
            value = np.full(shape, sr.zero)
            flat = value.reshape(-1)
            stored = rng.choice(
                flat.size, math.ceil(fill * flat.size), replace=False
            )
            flat[stored] = _values(rng, len(stored), sr)
            if container == "coo":
                value = COOTensor.from_dense(value)
            elif container == "csf":
                value = CSFTensor.from_dense(value)
        elif sr.name == "or_and":
            value = rng.integers(0, 2, shape).astype(np.float64)
        else:
            value = _values(rng, shape, sr)
        out[tensor.name] = value
    return out


def _assert_agree(got, want, sr):
    if sr.is_default:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    else:
        np.testing.assert_array_equal(got, want)


@settings(
    max_examples=120, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    name=st.sampled_from(sorted(PROGRAMS)),
    semiring=st.sampled_from(SEMIRINGS),
    fill=st.sampled_from((0.0, 0.01, 1.0)),
    container=st.sampled_from(("dense", "coo", "csf")),
    seed=st.integers(0, 2**16),
)
def test_sparse_step_matches_the_reference(
    name, semiring, fill, container, seed
):
    body, _, coefficients = PROGRAMS[name]
    if coefficients and semiring != "plus_times":
        semiring = "plus_times"
    sr = get_semiring(semiring)
    program = parse_program(HEADER + body)
    inputs = _inputs(program, sr, fill, container, seed)
    plan = compile_kernel_plan(program.statements, semiring=semiring)
    names = [stmt.result.name for stmt in program.statements]
    got = KernelRunner(plan, functions=FUNCTIONS, keep=names).run(inputs)
    want = run_statements(
        program.statements, inputs, functions=FUNCTIONS, semiring=semiring
    )
    for name in names:
        _assert_agree(got[name], want[name], sr)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_sparse_term_counts(name):
    body, count, _ = PROGRAMS[name]
    statements = parse_program(HEADER + body).statements
    for mode in ("gemm", "einsum", "native"):
        plan = compile_kernel_plan(statements, mode=mode)
        assert plan.sparse_terms == count
        assert f"{count} sparse terms" in plan.describe()
        assert all(
            t.native is None
            for sp in plan.statements for t in sp.terms if t.kind == "sparse"
        )
    dense = compile_kernel_plan(statements, sparse_execution=False)
    assert dense.sparse_terms == 0
    assert not any(
        t.kind == "sparse" for sp in dense.statements for t in sp.terms
    )


def test_mixed_plan_keeps_its_dense_steps():
    """Only the term that reads a sparse operand changes kind."""
    body = PROGRAMS["dense statement first"][0]
    plan = compile_kernel_plan(parse_program(HEADER + body).statements)
    assert [t.kind for sp in plan.statements for t in sp.terms] == [
        "gemm", "sparse",
    ]


# -- one meaning on every entry point --------------------------------------

INF_MATMUL = """
range N = 4;
index i, j, k : N;
tensor A(i, k) sparse(0.2);
tensor B(k, j);
C(i, j) = sum(k) A(i, k) * B(k, j);
"""


def _inf_inputs():
    """One stored entry ``A[0, 1] = 2``; ``B[3, 0]`` is inf, which a
    dense product multiplies by A's absent zeros into NaN."""
    a = np.zeros((4, 4))
    a[0, 1] = 2.0
    b = np.ones((4, 4))
    b[3, 0] = np.inf
    return {"A": a, "B": b}


def test_run_compile_fast_and_execute_agree_on_a_sparse_program():
    result = synthesize(INF_MATMUL, SynthesisConfig(optimize_cache=False))
    inputs = _inf_inputs()
    ran = result.run(inputs)
    fast = result.compile_fast()(inputs)
    oracle = result.execute(inputs)
    assert ran.substrate == "kernels" and ran.notes[0] == "kernels"
    assert ran["C"][0, 0] == 2.0
    np.testing.assert_array_equal(ran["C"], oracle["C"])
    np.testing.assert_array_equal(fast["C"], oracle["C"])


def test_sparse_execution_off_ignores_declarations_everywhere():
    """With the setting off a declared-sparse operand is read densely
    by the kernel plan and the interpreter alike: both multiply inf by
    A's zeros."""
    config = SynthesisConfig(optimize_cache=False, sparse_execution=False)
    result = synthesize(INF_MATMUL, config)
    assert result.execution_plan is None
    assert result.kernel_plan.sparse_terms == 0
    inputs = _inf_inputs()
    with np.errstate(invalid="ignore"):
        ran = result.run(inputs)
        oracle = result.execute(inputs)
        fast = result.compile_fast()(inputs)
    assert ran.substrate == "kernels"
    assert np.isnan(ran["C"][0, 0])
    np.testing.assert_array_equal(ran["C"], oracle["C"])
    np.testing.assert_array_equal(fast["C"], ran["C"])


# -- sparse containers through run() ----------------------------------------

BDCA = """
range N = 6;
index a, b, c, d, e, f, i, j, k, l : N;
tensor A(a, c, i, k) sparse(0.1); tensor B(b, e, f, l);
tensor C(d, f, j, k); tensor D(c, d, e, l) sparse(0.1);
T1(b, c, d, f) = sum(e, l) B(b,e,f,l) * D(c,d,e,l);
T2(b, c, j, k) = sum(d, f) T1(b,c,d,f) * C(d,f,j,k);
S(a, b, i, j) = sum(c, k) T2(b,c,j,k) * A(a,c,i,k);
"""


class _KeptSparse(COOTensor):
    """A COO container that refuses to be densified."""

    def to_dense(self):
        raise AssertionError("a declared-sparse operand was densified")


def test_run_reads_sparse_containers():
    """E14's BDCA sequence with A and D declared sparse, every input a
    COO container: the sparse operands are read through their
    coordinates, the dense ones are densified once, and run() and
    compile_fast() give execute()'s result."""
    result = synthesize(BDCA, SynthesisConfig(optimize_cache=False))
    assert result.kernel_plan.sparse_terms == 2
    inputs = random_sparse_inputs(result.program, seed=0)
    kept = {
        name: _KeptSparse(coo.shape, coo.coords, coo.values)
        if name in ("A", "D") else coo
        for name, coo in inputs.items()
    }
    ran = result.run(kept)
    assert ran.substrate == "kernels"
    assert ran["A"] is kept["A"]
    want = result.execute(inputs)
    for name in ("T1", "T2", "S"):
        np.testing.assert_allclose(ran[name], want[name], rtol=1e-12)
    fast = result.compile_fast()(kept)
    np.testing.assert_allclose(fast["S"], want["S"], rtol=1e-12)


def test_a_mis_shaped_container_is_refused_before_any_step():
    result = synthesize(BDCA, SynthesisConfig(optimize_cache=False))
    inputs = random_sparse_inputs(result.program, seed=0)
    inputs["A"] = COOTensor.random((6, 6, 6, 5), 0.1, seed=1)
    with pytest.raises(ShapeError) as info:
        result.run(inputs)
    assert info.value.tensor == "A"


def test_dense_inputs_still_run_on_kernels():
    result = synthesize(BDCA, SynthesisConfig(optimize_cache=False))
    inputs = random_inputs(result.program, seed=3)
    ran = result.run(inputs)
    want = result.execute(inputs)
    assert ran.substrate == "kernels"
    np.testing.assert_allclose(ran["S"], want["S"], rtol=1e-12)


def test_the_row_count_never_enters_the_path_cache():
    """The row einsum of a sparse step is planned once per term, not
    once per stored-entry count: 50 runs on fresh random ``A`` (about
    20 distinct counts) miss the path cache once."""
    from repro.kernels.einsum_cache import (
        clear_einsum_path_cache,
        einsum_path_cache_stats,
    )

    src = (
        "range N = 16;\nindex i, j, k : N;\n"
        "tensor A(i, k) sparse(0.1);\ntensor B(k, j);\n"
        "C(i, j) = sum(k) A(i, k) * B(k, j);\n"
    )
    result = synthesize(src, SynthesisConfig(optimize_cache=False))
    assert result.kernel_plan.sparse_terms == 1
    rng = np.random.default_rng(0)
    b = 0.5 + rng.random((16, 16))
    clear_einsum_path_cache()
    counts = set()
    for _ in range(50):
        a = np.where(
            rng.random((16, 16)) < 0.1, 0.5 + rng.random((16, 16)), 0.0
        )
        counts.add(np.count_nonzero(a))
        got = result.run({"A": a, "B": b})
        np.testing.assert_allclose(got["C"], a @ b, rtol=1e-12, atol=1e-12)
    assert len(counts) > 10
    assert einsum_path_cache_stats()["misses"] == 1
