"""``SynthesisResult.compile_fast()``: the formula sequence as one fast
callable over :class:`repro.kernels.KernelRunner`.  (The file keeps the
name of the numpy source generator these programs used to run through,
so their test ids stay stable.)
"""

import numpy as np
import pytest

from repro.chem.a3a import a3a_problem
from repro.chem.a3a_full import a3a_full_problem
from repro.chem.workloads import fig1_formula_sequence, random_contraction_program
from repro.engine.executor import _einsum_letters, random_inputs, run_statements
from repro.expr.ast import Mul, Statement, Sum, TensorRef
from repro.expr.indices import Index, IndexRange
from repro.expr.parser import parse_program
from repro.expr.tensor import Tensor
from repro.kernels import KernelRunner, compile_kernel_plan
from repro.pipeline import SynthesisConfig, synthesize


def _check(program, seed, out, functions=None, rtol=1e-12, **config):
    """compile_fast() against the reference executor on seeded inputs."""
    arrays = random_inputs(program, seed=seed)
    want = run_statements(
        program.statements, arrays, functions=functions,
        semiring=config.get("semiring", "plus_times"),
    )
    config = SynthesisConfig(optimize_cache=False, **config)
    kernel = synthesize(program, config).compile_fast()
    np.testing.assert_allclose(
        kernel(arrays, functions)[out], want[out], rtol=rtol
    )
    return kernel, arrays


class TestNumpyBackend:
    def test_fig1_sequence_matches_reference(self):
        _check(fig1_formula_sequence(V=5, O=3), 0, "S")

    def test_a3a_with_functions(self):
        problem = a3a_problem(V=4, O=2, Ci=50)
        _check(problem.program, 1, "E", problem.functions)

    def test_six_term_a3a_optimized(self):
        problem = a3a_full_problem(VA=3, VB=2, O=2, Ci=20)
        _check(problem.program, 2, "E", problem.functions)

    def test_accumulate_statement(self):
        prog = parse_program("""
        range N = 4; index a, b : N;
        tensor A(a, b); tensor B(a, b);
        S(a) = sum(b) A(a, b);
        S(a) += sum(b) B(a, b);
        """)
        arrays = random_inputs(prog, seed=3)
        want = run_statements(prog.statements, arrays)
        # the pipeline takes single-assignment programs; a ``+=``
        # sequence reaches the same runner through its plan
        got = KernelRunner(compile_kernel_plan(prog.statements)).run(arrays)
        np.testing.assert_allclose(got["S"], want["S"], rtol=1e-12)

    def test_copy_with_transpose(self):
        _check(parse_program("""
        range P = 2; range Q = 3; index p : P; index q : Q;
        tensor A(p, q);
        S(q, p) = A(p, q);
        """), 4, "S", rtol=0)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_programs(self, seed):
        prog = random_contraction_program(seed + 500, n_tensors=4)
        _check(prog, seed, prog.statements[0].result.name, rtol=1e-10)

    def test_any_semiring(self):
        _check(parse_program("""
        range N = 5; index i, j, k : N;
        tensor D(i, k); tensor E(k, j);
        P(i, j) = sum(k) D(i, k) * E(k, j);
        """), 6, "P", rtol=0, semiring="min_plus")

    def test_inputs_not_mutated(self):
        kernel, arrays = _check(fig1_formula_sequence(V=4, O=2), 5, "S")
        before = {k: v.copy() for k, v in arrays.items()}
        first = kernel(arrays)["S"]
        for k in arrays:
            np.testing.assert_array_equal(arrays[k], before[k])
        assert "S" not in arrays  # the caller's dict is untouched
        # results are detached: a second call does not rewrite the first
        kept = first.copy()
        second = kernel({k: 2.0 * v for k, v in arrays.items()})["S"]
        assert second is not first
        np.testing.assert_array_equal(first, kept)


class TestLetterGuard:
    """einsum has 52 subscript letters: the fast path and the reference
    executor share the :func:`repro.expr.indices.einsum_letters` guard,
    so a wider term is the same explicit ``ValueError`` from both."""

    def _wide_term(self, n):
        """A three-operand product over ``n`` indices (no GEMM form)."""
        idx = [Index(f"x{k:03d}", IndexRange("N", 1)) for k in range(n)]
        cut = n // 3
        refs = tuple(
            TensorRef(Tensor(f"T{k}", tuple(part)), tuple(part))
            for k, part in enumerate((idx[:cut], idx[cut:2 * cut], idx[2 * cut:]))
        )
        return idx, Statement(Tensor("S", ()), Sum(tuple(idx), Mul(refs)))

    def test_executor_path_raises_the_same_error(self):
        indices, stmt = self._wide_term(53)
        with pytest.raises(ValueError, match="too many distinct") as fast_err:
            compile_kernel_plan([stmt])
        with pytest.raises(ValueError) as ex_err:
            _einsum_letters(indices)
        assert str(fast_err.value) == str(ex_err.value)

    def test_at_capacity_still_works(self):
        _, stmt = self._wide_term(52)
        assert compile_kernel_plan([stmt]).einsum_terms == 1
