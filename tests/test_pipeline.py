"""End-to-end pipeline tests (paper Fig. 5)."""

import numpy as np
import pytest

from repro import (
    CommModel,
    MachineModel,
    MemoryLevel,
    ProcessorGrid,
    SynthesisConfig,
    synthesize,
)
from repro.engine.counters import Counters
from repro.engine.executor import evaluate_expression, random_inputs, run_statements
from repro.expr.parser import parse_program
from repro.chem.a3a import a3a_problem
from repro.chem.workloads import ccsd_like_program, fig1_program

FIG1_SRC = """
range V = 6;
range O = 3;
index a, b, c, d, e, f : V;
index i, j, k, l : O;
tensor A(a, c, i, k); tensor B(b, e, f, l);
tensor C(d, f, j, k); tensor D(c, d, e, l);
S(a, b, i, j) = sum(c, d, e, f, k, l)
    A(a,c,i,k) * B(b,e,f,l) * C(d,f,j,k) * D(c,d,e,l);
"""


@pytest.fixture(scope="module")
def fig1_result():
    return synthesize(FIG1_SRC)


class TestSynthesizeFig1:
    def test_all_stages_reported(self, fig1_result):
        names = [r.name for r in fig1_result.reports]
        assert names == [
            "Algebraic transformations",
            "Memory minimization",
            "Space-time transformation",
            "Data locality optimization",
            "Data distribution and partitioning",
            "Code generation",
        ]

    def test_operation_reduction(self, fig1_result):
        report = fig1_result.reports[0]
        direct = report.details["direct operation count"]
        optimized = report.details["optimized operation count"]
        assert direct == 4 * 6**6 * 3**4  # 4 * V^6 O^4 mixed ranges
        assert optimized < direct

    def test_memory_minimization_applied(self, fig1_result):
        report = fig1_result.reports[1]
        assert report.details["fused temporary memory"] < report.details[
            "unfused temporary memory"
        ]

    def test_executes_correctly(self, fig1_result):
        prog = fig1_result.program
        arrays = random_inputs(prog, seed=21)
        want = evaluate_expression(prog.statements[0].expr, arrays)
        env = fig1_result.execute(arrays)
        np.testing.assert_allclose(env["S"], want, rtol=1e-9)

    def test_compiled_kernel_matches_interpreter(self, fig1_result):
        prog = fig1_result.program
        arrays = random_inputs(prog, seed=22)
        interp_env = fig1_result.execute(arrays)
        kernel = fig1_result.compile()
        compiled_env = kernel(arrays)
        np.testing.assert_allclose(
            compiled_env["S"], interp_env["S"], rtol=1e-12
        )

    def test_source_generated(self, fig1_result):
        assert fig1_result.source.startswith("def kernel(")
        assert "for " in fig1_result.source

    def test_describe_is_text(self, fig1_result):
        text = fig1_result.describe()
        assert "Algebraic transformations" in text
        assert "Code generation" in text


class TestSpaceTimeTrigger:
    def test_tight_memory_invokes_spacetime(self):
        problem = a3a_problem(V=4, O=2, Ci=50)
        machine = MachineModel(
            cache=MemoryLevel("cache", 16, 8.0),
            memory=MemoryLevel("memory", 64, 512.0),  # < 2+2*V^3*O = 258
        )
        config = SynthesisConfig(machine=machine, optimize_cache=False)
        result = synthesize(problem.program, config)
        st = next(
            r for r in result.reports if r.name == "Space-time transformation"
        )
        assert st.details["invoked"] == "yes"
        # still executes correctly
        inputs = random_inputs(problem.program, seed=1)
        want = run_statements(
            problem.statements, inputs, functions=problem.functions
        )["E"]
        env = result.execute(inputs, functions=problem.functions)
        assert float(env["E"]) == pytest.approx(float(want), rel=1e-9)

    def test_loose_memory_skips_spacetime(self):
        problem = a3a_problem(V=4, O=2, Ci=50)
        config = SynthesisConfig(optimize_cache=False)
        result = synthesize(problem.program, config)
        st = next(
            r for r in result.reports if r.name == "Space-time transformation"
        )
        assert "no" in str(st.details["invoked"])

    def test_impossible_budget_raises(self):
        problem = a3a_problem(V=4, O=2, Ci=50)
        machine = MachineModel(
            cache=MemoryLevel("cache", 2, 8.0),
            memory=MemoryLevel("memory", 2, 512.0),
        )
        config = SynthesisConfig(machine=machine, optimize_cache=False)
        with pytest.raises(ValueError):
            synthesize(problem.program, config)


class TestParallelStage:
    def test_grid_produces_plans(self):
        config = SynthesisConfig(
            grid=ProcessorGrid((2, 2)),
            comm=CommModel(),
            optimize_cache=False,
        )
        result = synthesize(FIG1_SRC, config)
        assert result.partition_plans
        report = next(
            r
            for r in result.reports
            if r.name == "Data distribution and partitioning"
        )
        assert report.details["processors"] == 4
        assert report.details["total modeled cost"] > 0

    def test_multiterm_program(self):
        prog = ccsd_like_program(V=5, O=3)
        config = SynthesisConfig(
            grid=ProcessorGrid((2,)), optimize_cache=False
        )
        result = synthesize(prog, config)
        arrays = random_inputs(prog, seed=9)
        want = run_statements(prog.statements, arrays)["R"]
        env = result.execute(arrays)
        np.testing.assert_allclose(env["R"], want, rtol=1e-9)
        # the final multi-term combine is noted, not planned
        report = next(
            r
            for r in result.reports
            if r.name == "Data distribution and partitioning"
        )
        assert any("multi-term" in n for n in report.notes)


class TestLocalityStage:
    def test_cache_blocking_reported(self):
        machine = MachineModel(
            cache=MemoryLevel("cache", 32, 8.0),
        )
        config = SynthesisConfig(machine=machine)
        result = synthesize(FIG1_SRC, config)
        report = next(
            r
            for r in result.reports
            if r.name == "Data locality optimization"
        )
        assert report.details["optimized modeled misses"] <= report.details[
            "baseline modeled misses"
        ]

    def test_locality_preserves_numerics(self):
        machine = MachineModel(cache=MemoryLevel("cache", 32, 8.0))
        result = synthesize(FIG1_SRC, SynthesisConfig(machine=machine))
        prog = result.program
        arrays = random_inputs(prog, seed=30)
        want = evaluate_expression(prog.statements[0].expr, arrays)
        env = result.execute(arrays)
        np.testing.assert_allclose(env["S"], want, rtol=1e-9)


class TestCounters:
    def test_execution_counters_match_codegen_report(self, fig1_result):
        prog = fig1_result.program
        arrays = random_inputs(prog, seed=2)
        counters = Counters()
        fig1_result.execute(arrays, counters=counters)
        codegen = next(
            r for r in fig1_result.reports if r.name == "Code generation"
        )
        assert counters.total_ops == codegen.details["operation count"]


class TestRunParallelNotes:
    """Statements that cannot run distributed are reported, not silent."""

    def test_mixed_sequence_notes_local_statements(self):
        from repro.chem.workloads import ccsd_like_program
        from repro.engine.executor import random_inputs, run_statements

        prog = ccsd_like_program(V=4, O=2)
        res = synthesize(prog, SynthesisConfig(grid=ProcessorGrid((2,))))
        # two multi-term combines, neither with a partition plan...
        assert "T1" not in res.partition_plans
        assert "R" not in res.partition_plans
        assert res.partition_plans  # ...and the chain contractions run SPMD
        inputs = random_inputs(prog, seed=0)
        out = res.run_parallel(inputs)
        # T1 = F + G combines two inputs: nothing is resident to fold over,
        # the router evaluates it and says so.  The residual R combines
        # two resident results: it is a rank program like any other.
        (note,) = out.notes
        assert out.substrate == "local"
        assert note.startswith("T1: executed locally")
        assert "multi-term combine" in note
        assert "R" in res.spmd_sources()
        want = run_statements(prog.statements, inputs)
        np.testing.assert_allclose(out["R"], want["R"], rtol=1e-8)

    def test_fully_planned_sequence_has_no_notes(self):
        from repro.engine.executor import random_inputs

        prog = parse_program("""
        range N = 4;
        index i, j, k : N;
        tensor A(i, k); tensor B(k, j);
        C(i, j) = sum(k) A(i, k) * B(k, j);
        """)
        res = synthesize(prog, SynthesisConfig(grid=ProcessorGrid((2,))))
        assert res.run_parallel(random_inputs(prog, seed=0)).notes == []

    def test_unknown_backend_rejected(self):
        from repro.engine.executor import random_inputs

        prog = parse_program("""
        range N = 4;
        index i, j, k : N;
        tensor A(i, k); tensor B(k, j);
        C(i, j) = sum(k) A(i, k) * B(k, j);
        """)
        res = synthesize(prog, SynthesisConfig(grid=ProcessorGrid((2,))))
        with pytest.raises(ValueError, match="backend"):
            res.run_parallel(random_inputs(prog, seed=0), backend="mpi")


#: programs that name more than one result: two unrelated products, and
#: a chain ``T -> C`` beside a product ``D`` nothing reads
SEVERAL_RESULTS = {
    "two results": """
        range N = 6; index i, j, k : N;
        tensor A(i, k); tensor B(k, j);
        C(i, j) = sum(k) A(i, k) * B(k, j);
        D(i, j) = sum(k) B(i, k) * A(k, j);
    """,
    "three statements, two results": """
        range N = 6; index i, j, k : N;
        tensor A(i, k); tensor B(k, j);
        T(i, j) = sum(k) A(i, k) * B(k, j);
        C(i, j) = sum(k) T(i, k) * B(k, j);
        D(i, j) = sum(k) B(i, k) * A(k, j);
    """,
}


@pytest.mark.parametrize("name", sorted(SEVERAL_RESULTS))
class TestSeveralResults:
    """A statement nothing reads is a result, not dead code."""

    @pytest.mark.parametrize(
        "config",
        [{}, {"codegen": "native"}, {"processors": 2}],
        ids=["default", "native", "processors=2"],
    )
    def test_every_substrate_agrees_with_the_reference(self, name, config):
        from repro.validate import verify_result

        res = synthesize(SEVERAL_RESULTS[name], SynthesisConfig(**config))
        report = verify_result(res)
        assert report.ok, report
        inputs = random_inputs(res.program, seed=3)
        want = run_statements(res.program.statements, inputs)
        compiled = res.compile()(inputs, {})
        for out in ("C", "D"):
            np.testing.assert_allclose(compiled[out], want[out], rtol=1e-10)

    @pytest.mark.parametrize("backend", ["local", "process"])
    def test_every_statement_is_distributed(self, name, backend):
        res = synthesize(SEVERAL_RESULTS[name], SynthesisConfig(processors=2))
        assert sorted(res.partition_plans) == sorted(
            stmt.result.name for stmt in res.statements
        )
        inputs = random_inputs(res.program, seed=3)
        want = run_statements(res.program.statements, inputs)
        out = res.run_parallel(inputs, backend=backend, procs=2)
        assert out.notes == [] and out.substrate == backend
        for stmt in res.program.statements:
            np.testing.assert_allclose(
                out[stmt.result.name], want[stmt.result.name], rtol=1e-10
            )


class TestRun:
    """``SynthesisResult.run``: the practical entry picks its substrate
    from what the result knows and says which ran."""

    def test_kernels_when_the_plan_fits(self, fig1_result):
        inputs = random_inputs(fig1_result.program, seed=2)
        out = fig1_result.run(inputs)
        assert out.substrate == "kernels"
        assert out.notes == ["kernels"]
        want = fig1_result.execute(inputs)
        np.testing.assert_allclose(out["S"], want["S"], rtol=1e-9)
        # the arrays are the caller's: a second run does not rewrite them
        kept = out["S"].copy()
        fig1_result.run(random_inputs(fig1_result.program, seed=3))
        np.testing.assert_array_equal(out["S"], kept)

    def test_returns_every_declared_result(self):
        prog = parse_program("""
        range N = 4;
        index i, j, k : N;
        tensor W(i, j);
        S1(i, j) = sum(k) W(i, k) * W(k, j);
        D(i, j) = sum(k) S1(i, k) * S1(k, j);
        """)
        res = synthesize(prog)
        # S1 is a temporary of the kernel plan, but the program names it
        assert res.kernel_plan.outputs == ("D",)
        w = random_inputs(prog, seed=0)["W"]
        out = res.run({"W": w})
        np.testing.assert_allclose(out["S1"], w @ w, rtol=1e-12)
        np.testing.assert_allclose(out["D"], w @ w @ w @ w, rtol=1e-12)
        assert res.kernel_plan.peak_live_elements() == 32
        assert res.kernel_plan.peak_live_elements(keep=["S1", "D"]) == 32

    def test_interp_past_the_memory_limit_and_says_why(self):
        problem = a3a_problem(V=4, O=2, Ci=50)
        machine = MachineModel(
            cache=MemoryLevel("cache", 16, 8.0),
            memory=MemoryLevel("memory", 64, 512.0),
        )
        tight = synthesize(
            problem.program,
            SynthesisConfig(machine=machine, optimize_cache=False),
        )
        roomy = synthesize(
            problem.program, SynthesisConfig(optimize_cache=False)
        )
        declared = [s.result.name for s in problem.program.statements]
        peak = tight.kernel_plan.peak_live_elements(declared)
        assert peak > 64
        inputs = random_inputs(problem.program, seed=1)
        want = run_statements(
            problem.statements, inputs, functions=problem.functions
        )["E"]
        runs = [
            res.run(inputs, functions=problem.functions)
            for res in (tight, roomy)
        ]
        for out in runs:
            assert float(out["E"]) == pytest.approx(float(want), rel=1e-9)
        slow, fast = runs
        assert slow.substrate == "interp"
        assert slow.notes == [
            f"interp: peak {peak} elements exceeds memory capacity 64"
        ]
        assert fast.substrate == "kernels"
        assert fast.notes[0] == "kernels"

    def test_sparse_program_keeps_its_mixed_plan(self):
        prog = parse_program("""
        range N = 6;
        index i, j, k : N;
        tensor A(i, k) sparse(0.2);
        tensor B(k, j);
        C(i, j) = sum(k) A(i, k) * B(k, j);
        """)
        res = synthesize(prog)
        inputs = random_inputs(prog, seed=0)
        out = res.run(inputs)
        np.testing.assert_allclose(
            out["C"], inputs["A"] @ inputs["B"], rtol=1e-12
        )
        assert out.substrate == "interp"
        assert out.notes == ["mixed sparse plan"]

    def test_without_a_kernel_plan_the_interpreter_runs(self, fig1_result):
        from dataclasses import replace

        bare = replace(fig1_result, kernel_plan=None)
        inputs = random_inputs(bare.program, seed=2)
        out = bare.run(inputs)
        np.testing.assert_array_equal(out["S"], bare.execute(inputs)["S"])
        assert out.substrate == "interp"

    def test_a_kernel_plan_that_failed_to_compile_is_named(self, monkeypatch):
        """When the kernel plan cannot be compiled, the note says what
        run() does, and kernel_runner() refuses with that reason rather
        than re-planning into the same failure."""
        import repro.kernels
        from repro.robustness import ReproError

        def refuse(*args, **kwargs):
            raise ValueError("too many distinct indices")

        monkeypatch.setattr(repro.kernels, "compile_kernel_plan", refuse)
        res = synthesize(parse_program("""
        range N = 4;
        index i, j, k : N;
        tensor A(i, k); tensor B(k, j);
        C(i, j) = sum(k) A(i, k) * B(k, j);
        """))
        (note,) = [
            n for r in res.reports if r.name == "Code generation"
            for n in r.notes
        ]
        assert "too many distinct indices" in note
        assert "run() interprets" in note
        assert "per-call planning" not in note
        out = res.run(random_inputs(res.program, seed=0))
        assert out.substrate == "interp"
        with pytest.raises(ReproError, match="too many distinct") as err:
            res.kernel_runner()
        assert err.value.stage == "codegen"
