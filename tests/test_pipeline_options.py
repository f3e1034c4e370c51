"""Tests for pipeline configuration knobs added beyond the base run."""

import numpy as np
import pytest

from repro import SynthesisConfig, synthesize
from repro import MachineModel, MemoryLevel, ProcessorGrid
from repro.chem.workloads import ccsd_like_program
from repro.robustness.errors import SpecError
from repro.validate import verify_result

SRC = """
range V = 6;
range O = 3;
index a, b, e : V;
index i, j : O;
tensor F(a, e);
tensor G(a, e);
tensor T(e, b, i, j);
R(a, b, i, j) = sum(e) F(a, e) * T(e, b, i, j)
              + sum(e) G(a, e) * T(e, b, i, j);
"""


class TestFactorizeOption:
    def test_default_factorizes(self):
        result = synthesize(SRC, SynthesisConfig(optimize_cache=False))
        # factored form: helper add + one contraction + combine
        n_contract = sum(
            1
            for s in result.statements
            for _, sums, _ in _flat(s)
            if sums
        )
        assert n_contract == 1

    def test_disable_factorization(self):
        config = SynthesisConfig(optimize_cache=False, factorize=False)
        result = synthesize(SRC, config)
        n_contract = sum(
            1
            for s in result.statements
            for _, sums, _ in _flat(s)
            if sums
        )
        assert n_contract == 2

    def test_both_verify(self):
        for flag in (True, False):
            config = SynthesisConfig(optimize_cache=False, factorize=flag)
            result = synthesize(SRC, config)
            assert verify_result(result).ok


class TestOrderOption:
    def test_order_search_reported_and_correct(self):
        machine = MachineModel(cache=MemoryLevel("cache", 48, 8.0))
        config = SynthesisConfig(machine=machine, optimize_order=True)
        result = synthesize(SRC, config)
        report = next(
            r for r in result.reports if "locality" in r.name.lower()
        )
        assert "loop-order modeled misses" in report.details
        assert verify_result(result).ok

    def test_order_never_hurts_model(self):
        machine = MachineModel(cache=MemoryLevel("cache", 48, 8.0))
        with_order = synthesize(
            SRC, SynthesisConfig(machine=machine, optimize_order=True)
        )
        without = synthesize(
            SRC, SynthesisConfig(machine=machine, optimize_order=False)
        )
        def final_misses(result):
            report = next(
                r for r in result.reports if "locality" in r.name.lower()
            )
            return report.details["optimized modeled misses"]

        assert final_misses(with_order) <= final_misses(without)


def _flat(stmt):
    from repro.expr.canonical import flatten

    return flatten(stmt.expr)


class TestProcessorsOption:
    def test_processor_count_picks_a_grid(self):
        config = SynthesisConfig(optimize_cache=False, processors=4)
        result = synthesize(SRC, config)
        report = next(
            r
            for r in result.reports
            if r.name == "Data distribution and partitioning"
        )
        assert report.details["processors"] == 4
        assert any("chose grid" in n for n in report.notes)
        assert verify_result(result).ok


class TestParallelExecution:
    def test_spmd_sources_and_run_parallel(self):
        from repro import ProcessorGrid
        from repro.engine.executor import random_inputs, run_statements

        config = SynthesisConfig(
            optimize_cache=False, grid=ProcessorGrid((2,))
        )
        result = synthesize(SRC, config)
        sources = result.spmd_sources()
        assert sources
        for name, src in sources.items():
            assert f"def rank_program_{name}(" in src
        arrays = random_inputs(result.program, seed=0)
        got = result.run_parallel(arrays)
        want = run_statements(result.program.statements, arrays)
        np.testing.assert_allclose(got["R"], want["R"], rtol=1e-9)

    def test_run_parallel_without_grid_raises(self):
        result = synthesize(SRC, SynthesisConfig(optimize_cache=False))
        with pytest.raises(ValueError, match="grid"):
            result.run_parallel({})


class TestParallelExecutionWithFunctions:
    def test_a3a_parallel_path(self):
        """Function materializations run locally; array contractions run
        through generated SPMD programs; the energy is exact."""
        from repro import ProcessorGrid
        from repro.chem.a3a import a3a_problem
        from repro.engine.executor import random_inputs, run_statements

        problem = a3a_problem(V=4, O=2, Ci=10)
        config = SynthesisConfig(
            optimize_cache=False, grid=ProcessorGrid((2,))
        )
        result = synthesize(problem.program, config)
        inputs = random_inputs(problem.program, seed=0)
        want = run_statements(
            problem.statements, inputs, functions=problem.functions
        )["E"]
        got = result.run_parallel(inputs, functions=problem.functions)["E"]
        assert float(got) == pytest.approx(float(want), rel=1e-9)


def _bad(**fields):
    return lambda: SynthesisConfig(**fields)


#: (field at fault, library config, CLI flags, service options or None
#: where the wire has no key for the field, what the refusal says)
BAD_CONFIGS = [
    ("codegen", _bad(codegen="fortran"), ["--codegen", "fortran"], None,
     "unknown codegen mode 'fortran'"),
    ("kernel_threads", _bad(kernel_threads=0), ["--kernel-threads", "0"],
     None, "kernel_threads must be >= 1, got 0"),
    ("semiring", _bad(semiring="tropical"), ["--semiring", "tropical"], None,
     "unknown semiring 'tropical'"),
    ("processors", _bad(processors=0), ["--processors", "0"],
     {"processors": 0}, "processors must be a positive count, got 0"),
    ("grid+processors", _bad(grid=ProcessorGrid((2,)), processors=4),
     ["--grid", "2", "--processors", "4"], {"grid": 2, "processors": 4},
     "give either 'grid' or 'processors', not both"),
    ("capacity_level", _bad(capacity_level="tape"),
     ["--capacity-level", "tape"], {"capacity_level": "tape"},
     "capacity_level must be 'memory' or 'disk', got 'tape'"),
    ("capacities",
     lambda: SynthesisConfig(machine=MachineModel.with_capacities(cache=0)),
     ["--cache", "0"], {"cache_elements": 0},
     "cache capacity must be a positive element count, got 0"),
]


class TestOneValidator:
    """A bad configuration is refused once, the same way, wherever it
    comes in: ``SpecError`` from the library before any stage runs, exit
    code 2 from the CLI, a 400 from the service -- one text."""

    @pytest.mark.parametrize(
        "field, make, flags, options, says", BAD_CONFIGS,
        ids=[row[0] for row in BAD_CONFIGS],
    )
    def test_same_refusal_everywhere(
        self, field, make, flags, options, says, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main
        from repro.server.wire import parse_synthesize_request

        # refused up front: no search stage runs on a bad config
        monkeypatch.setattr("repro.pipeline.optimize_program", None)
        with pytest.raises(SpecError) as library:
            synthesize(SRC, make())
        text = str(library.value)
        assert says in text

        path = tmp_path / "in.tce"
        path.write_text(SRC)
        assert main([str(path), *flags]) == 2
        assert capsys.readouterr().err == f"error: {text}\n"

        with pytest.raises(SpecError) as wire:
            parse_synthesize_request(
                {"program": SRC, "options": options or {field: 0}}
            )
        if options is None:
            # not a field a request can set at all
            assert "unknown option" in str(wire.value)
        else:
            assert str(wire.value) == text

    def test_a_good_config_passes(self):
        SynthesisConfig(processors=4, capacity_level="disk").validate()
