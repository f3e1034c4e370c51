"""Semiring layer: registry laws, the algebra-generalized einsum, the
GEMM guard, CLI validation, and cache-key separation.

The regression surface here is the ISSUE's satellite checklist: GEMM
must *refuse* (never silently misevaluate) non-``(+, x)`` algebras, an
unknown ``--semiring`` must exit 2 with the registered names on one
line, and both the plan cache and the compiled-artifact store must key
on the semiring id.
"""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.codegen.cgen import NEST_IR_VERSION, render_nest_ir
from repro.kernels import artifact_key, compile_kernel_plan
from repro.kernels.lowering import exec_gemm, lower_binary_term
from repro.pipeline import SynthesisConfig, synthesize
from repro.robustness.errors import ReproError, SpecError
from repro.runtime.plan_cache import PlanCache, plan_key
from repro.semiring import (
    DEFAULT_SEMIRING,
    available_semirings,
    get_semiring,
    require_unit_coef,
    semiring_einsum,
)

MM = (
    "range N = 4;\n"
    "index i, j, k : N;\n"
    "tensor A(i, k);\n"
    "tensor B(k, j);\n"
    "C(i, j) = sum(k) A(i, k) * B(k, j);\n"
)

ALL = available_semirings()


class TestRegistry:
    def test_all_five_registered(self):
        assert ALL == (
            "max_plus", "max_times", "min_plus", "or_and", "plus_times"
        )

    def test_default_is_plus_times(self):
        assert DEFAULT_SEMIRING == "plus_times"
        assert get_semiring("plus_times").is_default
        assert not get_semiring("min_plus").is_default

    def test_unknown_name_lists_registered(self):
        with pytest.raises(SpecError) as info:
            get_semiring("tropical")
        msg = str(info.value)
        for name in ALL:
            assert name in msg

    @pytest.mark.parametrize("name", ALL)
    def test_identity_and_annihilator_laws(self, name):
        """0-bar is the reduce identity and the combine annihilator;
        1-bar is the combine identity -- checked on a carrier value."""
        sr = get_semiring(name)
        x = 1.0
        assert sr.np_reduce(sr.zero, x) == x
        assert sr.np_combine(sr.one, x) == x
        assert sr.np_combine(sr.zero, x) == sr.zero
        assert sr.py_reduce(sr.zero, x) == x
        assert sr.py_combine(sr.one, x) == x

    @pytest.mark.parametrize("name", ALL)
    def test_idempotent_reduce_fixed_point(self, name):
        sr = get_semiring(name)
        if sr.idempotent:
            assert sr.np_reduce(2.0, 2.0) == 2.0
        else:
            assert sr.np_reduce(2.0, 2.0) == 4.0


class TestSemiringEinsum:
    def _brute_matvec(self, a, x, sr):
        out = np.full(a.shape[0], sr.zero)
        for i in range(a.shape[0]):
            acc = sr.zero
            for j in range(a.shape[1]):
                acc = sr.py_reduce(acc, sr.py_combine(a[i, j], x[j]))
            out[i] = acc
        return out

    @pytest.mark.parametrize("name", ALL)
    def test_matvec_matches_nested_loops(self, name):
        sr = get_semiring(name)
        rng = np.random.default_rng(7)
        a = rng.integers(0, 2 if name == "or_and" else 4, (5, 4)).astype(
            np.float64
        )
        x = rng.integers(0, 2 if name == "or_and" else 4, 4).astype(
            np.float64
        )
        got = semiring_einsum("ij,j->i", a, x, semiring=sr)
        assert np.array_equal(got, self._brute_matvec(a, x, sr))

    def test_min_plus_with_infinities(self):
        sr = get_semiring("min_plus")
        a = np.array([[0.0, 2.0], [np.inf, 0.0]])
        b = np.array([[0.0, np.inf], [3.0, 0.0]])
        got = semiring_einsum("ik,kj->ij", a, b, semiring=sr)
        want = np.array([[0.0, 2.0], [3.0, 0.0]])
        assert np.array_equal(got, want)

    def test_diagonal_extraction(self):
        sr = get_semiring("min_plus")
        a = np.array([[1.0, 9.0], [9.0, 4.0]])
        got = semiring_einsum("ii->i", a, semiring=sr)
        assert np.array_equal(got, np.array([1.0, 4.0]))


class TestGemmGuard:
    """Satellite 1: GEMM is the ``(+, x)`` algebra by definition, so
    reaching it under any other semiring must be a structured error."""

    def test_lower_binary_term_declines(self):
        prog = synthesize(MM, SynthesisConfig()).program
        stmt = prog.statements[0]
        i, j = stmt.result.indices
        refs = list(stmt.expr.refs())
        (k,) = set(refs[0].indices) - {i, j}
        with pytest.raises(ReproError) as info:
            lower_binary_term(
                refs[0].indices, refs[1].indices, frozenset({k}), (i, j),
                semiring="min_plus",
            )
        assert "plus_times" in str(info.value)

    def test_exec_gemm_declines(self):
        a = np.ones((2, 2))
        with pytest.raises(ReproError):
            exec_gemm(
                a, a, lred=(), rred=(), lperm=(0, 1), rperm=(0, 1),
                nb=1, nm=2, nk=2, nn=2, operm=(0, 1), semiring="or_and",
            )

    def test_plan_never_routes_nondefault_to_gemm(self):
        result = synthesize(
            MM, SynthesisConfig(semiring="min_plus", codegen="gemm")
        )
        plan = result.kernel_runner().plan
        kinds = {t.kind for s in plan.statements for t in s.terms}
        assert "gemm" not in kinds

    def test_unit_coefficient_contract(self):
        require_unit_coef(2.0, get_semiring("plus_times"))
        require_unit_coef(1.0, get_semiring("min_plus"))
        with pytest.raises(ReproError):
            require_unit_coef(2.0, get_semiring("min_plus"))


class TestCLI:
    """Satellite 2: unknown ``--semiring`` exits 2 with one line naming
    the registered algebras, on the compiler and the demo subcommand."""

    def test_compiler_unknown_semiring_exits_2(self, capsys):
        rc = cli_main(["-", "--semiring", "boolean"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "unknown semiring" in err
        for name in ALL:
            assert name in err

    def test_demo_unknown_semiring_exits_2(self, capsys):
        rc = cli_main(["run", "--semiring", "boolean"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "unknown semiring" in err

    def test_compiler_accepts_min_plus(self, tmp_path, capsys):
        src = tmp_path / "p.tce"
        src.write_text(MM)
        rc = cli_main([str(src), "--semiring", "min_plus", "--run"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "semiring" in out
        assert "outputs match the reference executor" in out


class TestEmittedSource:
    """``result.source`` / ``--emit`` / ``compile()`` are a program
    under the result's semiring (they were ``(+, x)`` whatever the
    config said), through the same ``py_*`` templates as ``cgen``."""

    @staticmethod
    def _graph(name, n=9):
        from repro.graphs import random_weight_matrix

        weights = random_weight_matrix(n, 0.4, seed=0)
        if name == "or_and":
            weights = np.isfinite(weights).astype(np.float64)
        return weights

    @pytest.mark.parametrize("tiled", [False, True])
    @pytest.mark.parametrize("name", ["min_plus", "or_and"])
    def test_source_runs_the_configured_algebra(self, name, tiled):
        from repro.engine.machine import MachineModel, MemoryLevel
        from repro.graphs import apsp_program

        weights = self._graph(name)
        if tiled:
            # 9 = 4 * 2 + 1: the last tile is clipped by a guard
            source = MM.replace("N = 4", "N = 9")
            inputs = {"A": weights, "B": weights.T.copy()}
        else:
            source, inputs = apsp_program(9)[0], {"W": weights}
        machine = MachineModel(
            cache=MemoryLevel("cache", 64, 8.0),
            memory=MemoryLevel("memory", 1 << 24, 512.0),
            disk=MemoryLevel("disk", 1 << 31, 100_000.0),
        )
        result = synthesize(
            source, SynthesisConfig(semiring=name, machine=machine)
        )
        assert bool(result.locality_tiles) == tiled
        assert (" if " in result.source) == tiled
        namespace = {"_np": np}
        exec(result.source, namespace)
        emitted = namespace["kernel"](dict(inputs), {})
        compiled = result.compile()(inputs)
        shipped = result.run(inputs)
        assert shipped.substrate == "kernels"
        for stmt in result.program.statements:
            out = stmt.result.name
            assert np.array_equal(emitted[out], shipped[out]), out
            assert np.array_equal(compiled[out], shipped[out]), out

    def test_plus_times_text_is_unchanged(self):
        result = synthesize(MM, SynthesisConfig(optimize_cache=False))
        assert result.source == (
            "def kernel(_arrays, _funcs):\n"
            "    _arrays['C'] = _np.zeros((4, 4))\n"
            "    _arrays['C'][...] = 0.0\n"
            "    for i in range(4):\n"
            "        for j in range(4):\n"
            "            for k in range(4):\n"
            "                _arrays['C'][i, j] += "
            "_arrays['A'][i, k] * _arrays['B'][k, j]\n"
            "    return _arrays\n"
        )

    def test_coefficient_outside_plus_times_is_a_structured_error(self):
        from repro.codegen.loops import Assign, Loop
        from repro.codegen.pygen import generate_source

        def doubled(block):
            return tuple(
                Loop(n.var, doubled(n.body)) if isinstance(n, Loop)
                else Assign(n.target, n.terms, n.accumulate, 2.0)
                if isinstance(n, Assign) else n
                for n in block
            )

        block = doubled(synthesize(MM).structure)
        assert "2.0 * " in generate_source(block)
        with pytest.raises(ReproError, match="min_plus"):
            generate_source(block, semiring="min_plus")

    def test_cli_emit_writes_an_importable_min_plus_kernel(
        self, tmp_path, capsys
    ):
        import importlib.util
        import os

        example = os.path.join(
            os.path.dirname(__file__), "..", "examples", "apsp_minplus.tce"
        )
        out_py = tmp_path / "k.py"
        rc = cli_main([
            example, "--semiring", "min_plus", "--no-cache-opt",
            "--emit", str(out_py),
        ])
        capsys.readouterr()
        assert rc == 0
        spec = importlib.util.spec_from_file_location("k", out_py)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        with open(example, encoding="utf-8") as handle:
            result = synthesize(
                handle.read(),
                SynthesisConfig(semiring="min_plus", optimize_cache=False),
            )
        inputs = {"W": self._graph("min_plus")}
        assert np.isinf(inputs["W"]).any()
        got = module.kernel(dict(inputs), {})
        assert np.array_equal(got["D"], result.run(inputs)["D"])


class TestKeySeparation:
    """Plan-cache and artifact keys must distinguish semirings: the same
    program under two algebras is two different compilations."""

    def test_plan_key_distinguishes_semirings(self):
        program = synthesize(MM, SynthesisConfig()).program
        keys = {
            plan_key(program, SynthesisConfig(semiring=name))
            for name in ALL
        }
        assert len(keys) == len(ALL)

    def test_plan_cache_cold_then_warm_per_semiring(self):
        cache = PlanCache()
        config = SynthesisConfig(semiring="min_plus")
        synthesize(MM, config, cache=cache)
        assert (cache.misses, cache.hits) == (1, 0)
        synthesize(MM, config, cache=cache)
        assert (cache.misses, cache.hits) == (1, 1)
        synthesize(MM, SynthesisConfig(), cache=cache)
        assert (cache.misses, cache.hits) == (2, 1)

    def test_nest_ir_and_artifact_key_carry_semiring(self):
        result = synthesize(MM, SynthesisConfig())
        stmts, bindings = result.statements, result.config.bindings
        irs = {}
        for name in ("plus_times", "min_plus"):
            plan = compile_kernel_plan(
                stmts, bindings, mode="native", semiring=name
            )
            (spec,) = [
                t.native for s in plan.statements for t in s.terms
            ]
            assert spec is not None
            irs[name] = render_nest_ir(spec)
        assert NEST_IR_VERSION == "nest-ir v4"
        assert "semiring=plus_times" in irs["plus_times"]
        assert "semiring=min_plus" in irs["min_plus"]
        keys = {
            artifact_key(ir, "float64", "c", "cc")
            for ir in irs.values()
        }
        assert len(keys) == 2
