"""Unit tests for the engine package: executor, counters, machine."""

import numpy as np
import pytest

from repro.engine.counters import Counters
from repro.engine.executor import (
    evaluate_expression,
    random_inputs,
    run_statements,
)
from repro.engine.machine import TOY_MACHINE, MachineModel
from repro.expr.parser import parse_program
from repro.chem.integrals import integral_table, make_integral


class TestEvaluateExpression:
    def test_missing_array_raises(self):
        prog = parse_program("range N=3; index a:N; tensor A(a); S(a)=A(a);")
        with pytest.raises(KeyError, match="no array provided"):
            evaluate_expression(prog.statements[0].expr, {})

    def test_missing_function_raises(self):
        prog = parse_program(
            "range N=3; index a:N; function f(a) cost 5; S(a)=f(a);"
        )
        with pytest.raises(KeyError, match="no implementation"):
            evaluate_expression(prog.statements[0].expr, {})

    def test_axes_are_sorted_free_order(self):
        prog = parse_program(
            "range P=2; range Q=3; index p:P; index q:Q;"
            "tensor A(q, p); S(q, p) = A(q, p);"
        )
        arr = np.arange(6).reshape(3, 2)
        out = evaluate_expression(prog.statements[0].expr, {"A": arr})
        # sorted(free) = (p, q) -> transposed view of storage (q, p)
        assert out.shape == (2, 3)
        np.testing.assert_array_equal(out, arr.T)

    def test_coefficients_applied(self):
        prog = parse_program(
            "range N=3; index a:N; tensor A(a); S(a) = 2 * A(a) - A(a);"
        )
        arr = np.array([1.0, 2.0, 3.0])
        out = evaluate_expression(prog.statements[0].expr, {"A": arr})
        np.testing.assert_allclose(out, arr)

    def test_scalar_result(self):
        prog = parse_program(
            "range N=4; index a:N; tensor A(a); E() = sum(a) A(a) * A(a);"
        )
        arr = np.ones(4)
        out = evaluate_expression(prog.statements[0].expr, {"A": arr})
        assert out.shape == ()
        assert float(out) == 4.0


class TestRunStatements:
    def test_accumulate_adds(self):
        prog = parse_program(
            "range N=3; index a:N; tensor A(a);"
            "S(a) = A(a); S2(a) = A(a); "
        )
        # manual accumulate: two statements into the same result
        src = """
        range N=3; index a:N; tensor A(a); tensor B(a);
        S(a) = A(a);
        S(a) += B(a);
        """
        # parser forbids reassign via Statement?  It allows += after =.
        prog = parse_program(src)
        a, b = np.array([1.0, 2, 3]), np.array([10.0, 20, 30])
        env = run_statements(prog.statements, {"A": a, "B": b})
        np.testing.assert_allclose(env["S"], a + b)

    def test_accumulate_into_fresh_array(self):
        src = "range N=3; index a:N; tensor A(a); S(a) += A(a);"
        prog = parse_program(src)
        a = np.array([1.0, 2, 3])
        env = run_statements(prog.statements, {"A": a})
        np.testing.assert_allclose(env["S"], a)

    def test_result_axes_follow_declaration(self):
        src = """
        range P=2; range Q=3; index p:P; index q:Q;
        tensor A(p, q);
        S(q, p) = A(p, q);
        """
        prog = parse_program(src)
        arr = np.arange(6.0).reshape(2, 3)
        env = run_statements(prog.statements, {"A": arr})
        assert env["S"].shape == (3, 2)
        np.testing.assert_array_equal(env["S"], arr.T)


class TestRandomInputs:
    def test_deterministic(self, fig1_program):
        a = random_inputs(fig1_program, seed=5)
        b = random_inputs(fig1_program, seed=5)
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    def test_different_seeds_differ(self, fig1_program):
        a = random_inputs(fig1_program, seed=5)
        b = random_inputs(fig1_program, seed=6)
        assert any(not np.array_equal(a[k], b[k]) for k in a)

    def test_respects_bindings(self, fig1_program):
        arrays = random_inputs(fig1_program, {"V": 3, "O": 2})
        assert arrays["A"].shape == (3, 3, 2, 2)


class TestCounters:
    def test_allocation_tracks_peak(self):
        c = Counters()
        c.allocate(100)
        c.allocate(50)
        c.release(100)
        c.allocate(20)
        assert c.peak_elements == 150
        assert c.elements_allocated == 170

    def test_merge(self):
        a, b = Counters(), Counters()
        a.flops, b.flops = 10, 20
        a.peak_elements, b.peak_elements = 5, 9
        a.merge(b)
        assert a.flops == 30
        assert a.peak_elements == 9

    def test_total_ops(self):
        c = Counters()
        c.flops = 7
        c.func_ops = 3
        assert c.total_ops == 10

    def test_as_dict_roundtrip(self):
        c = Counters()
        c.flops = 1
        d = c.as_dict()
        assert d["flops"] == 1
        assert set(d) >= {"flops", "func_evals", "total_ops", "peak_elements"}


class TestIntegrals:
    def test_deterministic(self):
        f = make_integral("f1")
        assert f(1, 2, 3) == f(1, 2, 3)

    def test_different_names_differ(self):
        f, g = make_integral("f1"), make_integral("f2")
        assert f(1, 2, 3) != g(1, 2, 3)

    def test_vectorized_matches_scalar(self):
        f = make_integral("f1")
        grid = np.indices((3, 4))
        vec = f(*grid)
        for i in range(3):
            for j in range(4):
                assert vec[i, j] == pytest.approx(float(f(i, j)))

    def test_values_bounded(self):
        f = make_integral("f1")
        grid = np.indices((10, 10))
        vals = f(*grid)
        assert np.all(np.abs(vals) <= 1.0)

    def test_table(self):
        table = integral_table(["a", "b"])
        assert set(table) == {"a", "b"}

    def test_values_do_not_depend_on_hash_seed(self):
        """Integral values are the same in every process: Python salts
        ``hash(str)`` per process, so the offset must not use it."""
        import os
        import subprocess
        import sys

        import repro

        code = (
            "from repro.chem.integrals import make_integral; "
            "print(repr(float(make_integral('f1')(1, 2, 3))))"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        values = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            out = subprocess.run(
                [sys.executable, "-c", code], env=env, check=True,
                capture_output=True, text=True,
            )
            values.add(out.stdout.strip())
        assert len(values) == 1


class TestMachine:
    def test_toy_machine_is_small(self):
        assert TOY_MACHINE.cache.capacity < MachineModel().cache.capacity

    def test_defaults_ordered(self):
        m = MachineModel()
        assert m.cache.miss_cost < m.memory.miss_cost < m.disk.miss_cost
