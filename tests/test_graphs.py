"""Graph workloads as tensor programs: SSSP, APSP, transitive closure.

Each problem runs through the real pipeline under the appropriate
semiring and is checked against a pure-Python oracle that shares no
code with the machinery under test.  ``min_plus``/``or_and`` results
are additionally checked *bit-identical* across executors (interp,
kernel runner, sparse executor, SPMD) -- idempotent reduces make every
legal evaluation order produce the same bits.
"""

import numpy as np
import pytest

from repro.engine.executor import run_statements
from repro.expr.parser import parse_program
from repro.graphs import (
    apsp_program,
    bellman_ford,
    closure_program,
    floyd_warshall,
    random_adjacency,
    random_weight_matrix,
    reachability,
    squaring_steps,
    sssp_inputs,
    sssp_program,
)
from repro.kernels import native_available
from repro.pipeline import SynthesisConfig, synthesize
from repro.sparse.executor import run_statements as sparse_run

RTOL = ATOL = 1e-12


class TestBuildersAndOracles:
    def test_squaring_steps(self):
        assert squaring_steps(2) == 1
        assert squaring_steps(3) == 1
        assert squaring_steps(5) == 2
        assert squaring_steps(9) == 3
        assert squaring_steps(17) == 4

    def test_programs_parse(self):
        for source, result in (
            sssp_program(5),
            apsp_program(6),
            closure_program(6),
        ):
            program = parse_program(source)
            assert program.statements[-1].result.name == result

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            random_weight_matrix(0)
        with pytest.raises(ValueError):
            random_weight_matrix(3, density=1.5)
        with pytest.raises(ValueError):
            sssp_program(3, relaxations=0)

    def test_bellman_ford_hand_example(self):
        inf = np.inf
        w = np.array([
            [0.0, 1.0, 4.0],
            [inf, 0.0, 2.0],
            [inf, inf, 0.0],
        ])
        assert np.array_equal(bellman_ford(w), np.array([0.0, 1.0, 3.0]))

    def test_floyd_warshall_agrees_with_bellman_ford_rows(self):
        """The two oracles relax edges in different orders, so their
        path sums associate differently -- equal to tolerance only."""
        w = random_weight_matrix(8, seed=11)
        dist = floyd_warshall(w)
        for s in range(8):
            assert np.allclose(
                dist[s], bellman_ford(w, source=s), rtol=RTOL, atol=ATOL
            )

    def test_reachability_hand_example(self):
        a = np.array([
            [1.0, 1.0, 0.0],
            [0.0, 1.0, 1.0],
            [0.0, 0.0, 1.0],
        ])
        want = np.array([
            [1.0, 1.0, 1.0],
            [0.0, 1.0, 1.0],
            [0.0, 0.0, 1.0],
        ])
        assert np.array_equal(reachability(a), want)


class TestSSSP:
    def test_min_plus_matches_bellman_ford_bitwise(self):
        n = 8
        w = random_weight_matrix(n, seed=3)
        source, res = sssp_program(n)
        inputs = sssp_inputs(w)
        oracle = bellman_ford(w)

        program = parse_program(source)
        ref = run_statements(
            program.statements, inputs, semiring="min_plus"
        )[res]
        assert np.array_equal(ref, oracle)

        result = synthesize(source, SynthesisConfig(semiring="min_plus"))
        assert np.array_equal(result.execute(inputs)[res], oracle)

    def test_other_source(self):
        n = 6
        w = random_weight_matrix(n, seed=9)
        source, res = sssp_program(n)
        inputs = sssp_inputs(w, source=2)
        result = synthesize(source, SynthesisConfig(semiring="min_plus"))
        assert np.array_equal(
            result.execute(inputs)[res], bellman_ford(w, source=2)
        )


class TestAPSP:
    def test_min_plus_across_executors(self):
        n = 7
        w = random_weight_matrix(n, seed=5)
        source, res = apsp_program(n)
        inputs = {"W": w}
        oracle = floyd_warshall(w)

        result = synthesize(source, SynthesisConfig(semiring="min_plus"))
        out_interp = result.execute(inputs)[res]
        out_kernel = result.kernel_runner().run(inputs, copy=True)[res]
        program = parse_program(source)
        out_ref = run_statements(
            program.statements, inputs, semiring="min_plus"
        )[res]
        out_sparse = sparse_run(
            program.statements, inputs, semiring="min_plus"
        )[res]

        # bit-identical across executors of the same program ...
        assert np.array_equal(out_interp, out_kernel)
        assert np.array_equal(out_interp, out_ref)
        assert np.array_equal(out_interp, out_sparse)
        for mode in ["einsum", "gemm"] + (["native"] if native_available() else []):
            runner = synthesize(
                source, SynthesisConfig(semiring="min_plus", codegen=mode)
            ).kernel_runner()
            assert np.array_equal(runner.run(inputs, copy=True)[res], out_interp), mode
        # ... and equal to the oracle up to path-sum reassociation
        assert np.allclose(out_interp, oracle, rtol=RTOL, atol=ATOL)

    def test_min_plus_spmd_local_backend(self):
        n = 6
        w = random_weight_matrix(n, seed=8)
        source, res = apsp_program(n)
        from repro.parallel.grid import ProcessorGrid

        config = SynthesisConfig(
            semiring="min_plus", grid=ProcessorGrid((2,))
        )
        result = synthesize(source, config)
        out = result.run_parallel({"W": w})[res]
        plain = synthesize(
            source, SynthesisConfig(semiring="min_plus")
        ).execute({"W": w})[res]
        assert np.array_equal(out, plain)
        out = result.run_parallel({"W": w}, backend="process", procs=2)[res]
        assert np.array_equal(out, plain)

    def test_disconnected_components_stay_infinite(self):
        w = np.full((4, 4), np.inf)
        np.fill_diagonal(w, 0.0)
        w[0, 1] = w[2, 3] = 1.0
        source, res = apsp_program(4)
        result = synthesize(source, SynthesisConfig(semiring="min_plus"))
        out = result.execute({"W": w})[res]
        assert out[0, 1] == 1.0 and out[2, 3] == 1.0
        assert np.isinf(out[0, 2]) and np.isinf(out[1, 3])


class TestClosure:
    def test_or_and_matches_reachability(self):
        n = 9
        a = random_adjacency(n, seed=4)
        source, res = closure_program(n)
        result = synthesize(source, SynthesisConfig(semiring="or_and"))
        out = result.execute({"A": a})[res]
        assert np.array_equal(out, reachability(a))
        assert set(np.unique(out)) <= {0.0, 1.0}

    def test_or_and_kernel_runner_agrees(self):
        n = 6
        a = random_adjacency(n, seed=12)
        source, res = closure_program(n)
        result = synthesize(source, SynthesisConfig(semiring="or_and"))
        out_interp = result.execute({"A": a})[res]
        out_kernel = result.kernel_runner().run({"A": a}, copy=True)[res]
        assert np.array_equal(out_interp, out_kernel)
