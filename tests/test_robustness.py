"""Robustness subsystem: error taxonomy, search budgets with graceful
degradation, fault schedules, and the degraded pipeline's correctness
against the reference executor."""

import time

import numpy as np
import pytest

from repro.engine.executor import evaluate_expression, random_inputs
from repro.expr.parser import parse_program
from repro.parallel.dist import Distribution, SINGLE
from repro.parallel.grid import ProcessorGrid
from repro.parallel.partition import canonical_plan, optimize_distribution
from repro.parallel.ptree import expression_to_ptree
from repro.parallel.spmd import run_spmd
from repro.pipeline import SynthesisConfig, synthesize
from repro.robustness.budget import Budget, BudgetTracker, as_tracker
from repro.robustness.errors import (
    BudgetExceeded,
    CommFailure,
    PlanError,
    ReproError,
    ShapeError,
    SpecError,
)
from repro.robustness.faults import FaultSchedule, parse_fault_spec
from repro.robustness.validation import validate_env

MATMUL = """
range N = 4;
index i, j, k : N;
tensor A(i, k); tensor B(k, j);
C(i, j) = sum(k) A(i, k) * B(k, j);
"""

CHAIN = """
range V = 4;
range O = 2;
index a, b, c, d, e, f : V;
index i, j, k, l : O;
tensor A(a, c, i, k); tensor B(b, e, f, l);
tensor C(d, f, j, k); tensor D(c, d, e, l);
S(a, b, i, j) = sum(c, d, e, f, k, l)
    A(a,c,i,k) * B(b,e,f,l) * C(d,f,j,k) * D(c,d,e,l);
"""


class TestErrorTaxonomy:
    def test_exit_codes(self):
        assert SpecError("x").exit_code == 2
        assert BudgetExceeded("x").exit_code == 3
        for cls in (ShapeError, PlanError, CommFailure, ReproError):
            assert cls("x").exit_code == 4

    def test_diagnostic_names_context(self):
        exc = ShapeError("bad shape", stage="execution", tensor="T")
        text = str(exc)
        assert text.startswith("ShapeError[")
        assert "stage=execution" in text
        assert "tensor=T" in text
        assert text.endswith("bad shape")

    def test_back_compat_mro(self):
        """Pre-taxonomy call sites catch the old builtin classes."""
        assert isinstance(SpecError("x"), KeyError)
        assert isinstance(PlanError("x"), KeyError)
        assert isinstance(ShapeError("x"), ValueError)

    def test_spec_error_str_is_not_quoted_repr(self):
        """KeyError.__str__ quotes its arg; the taxonomy overrides it."""
        assert str(SpecError("no array")) == "SpecError: no array"


class TestBudgetTracker:
    def test_node_budget_exhausts(self):
        tracker = Budget(max_nodes=5).start()
        tracker.tick(5)
        with pytest.raises(BudgetExceeded):
            tracker.tick(1, stage="opmin")
        assert tracker.exhausted()
        # once exhausted, every later tick fails fast
        with pytest.raises(BudgetExceeded):
            tracker.tick(1, stage="fusion")

    def test_overshooting_charge_records_one_node_past_the_limit(self):
        """A search that charges a whole loop in one tick stops where
        per-node ticking stopped: one node past the budget."""
        tracker = Budget(max_nodes=1_000).start()
        with pytest.raises(BudgetExceeded, match=r"\(1,001 > 1,000 search"):
            tracker.tick(4_700, stage="fusion")
        assert tracker.nodes == 1_001
        with pytest.raises(BudgetExceeded):
            tracker.tick(5, stage="locality")
        assert tracker.nodes == 1_001

    def test_deadline_exhausts(self):
        tracker = Budget(deadline_ms=1.0).start()
        time.sleep(0.01)
        with pytest.raises(BudgetExceeded, match="deadline"):
            tracker.tick()

    def test_unbounded_budget_never_raises(self):
        tracker = Budget().start()
        tracker.tick(10**9)

    def test_degrade_records(self):
        tracker = Budget(max_nodes=0).start()
        with pytest.raises(BudgetExceeded) as info:
            tracker.tick(1, stage="opmin")
        tracker.degrade("opmin", info.value, "left-to-right")
        assert tracker.degraded_stages() == ["opmin"]
        deg = tracker.degradations[0]
        assert deg.fallback == "left-to-right"
        assert "budget" in deg.reason

    def test_strict_degrade_reraises(self):
        tracker = Budget(max_nodes=0, strict=True).start()
        with pytest.raises(BudgetExceeded) as info:
            tracker.tick(1)
        with pytest.raises(BudgetExceeded):
            tracker.degrade("opmin", info.value, "left-to-right")
        assert tracker.degraded_stages() == []

    def test_as_tracker_normalizes(self):
        assert as_tracker(None) is None
        tracker = Budget(max_nodes=3).start()
        assert as_tracker(tracker) is tracker
        fresh = as_tracker(Budget(max_nodes=3))
        assert isinstance(fresh, BudgetTracker)


class TestDegradedPipeline:
    """Exhausted budgets degrade every stage -- and the degraded plan
    still computes the right answer."""

    def test_zero_budget_still_correct(self):
        config = SynthesisConfig(budget=Budget(max_nodes=0))
        result = synthesize(CHAIN, config)
        degraded = set(result.degraded_stages)
        assert "opmin" in degraded
        assert "fusion" in degraded
        prog = parse_program(CHAIN)
        inputs = random_inputs(prog, seed=0)
        env = result.execute(inputs)
        want = evaluate_expression(prog.statements[0].expr, inputs)
        np.testing.assert_allclose(env["S"], want, rtol=1e-10)

    def test_degradation_lands_in_reports(self):
        config = SynthesisConfig(budget=Budget(max_nodes=0))
        result = synthesize(CHAIN, config)
        flagged = [
            r for r in result.reports if r.details.get("degraded") == "true"
        ]
        assert flagged
        assert any(
            "budget exhausted" in note for r in flagged for note in r.notes
        )

    def test_zero_budget_parallel_still_correct(self):
        config = SynthesisConfig(
            budget=Budget(max_nodes=0), processors=4
        )
        result = synthesize(MATMUL, config)
        assert "distribution" in result.degraded_stages
        prog = parse_program(MATMUL)
        inputs = random_inputs(prog, seed=1)
        out = result.run_parallel(inputs)
        want = evaluate_expression(prog.statements[0].expr, inputs)
        np.testing.assert_allclose(out["C"], want, rtol=1e-10)

    def test_strict_budget_raises(self):
        config = SynthesisConfig(budget=Budget(max_nodes=0, strict=True))
        with pytest.raises(BudgetExceeded):
            synthesize(MATMUL, config)

    def test_large_budget_no_degradation(self):
        config = SynthesisConfig(budget=Budget(max_nodes=10**9))
        result = synthesize(MATMUL, config)
        assert result.degraded_stages == []
        assert result.budget_tracker.nodes > 0

    def test_no_budget_means_no_tracker(self):
        result = synthesize(MATMUL, SynthesisConfig())
        assert result.budget_tracker is None
        assert result.degraded_stages == []

    def test_degraded_op_count_never_better_than_full_search(self):
        full = synthesize(CHAIN, SynthesisConfig())
        degraded = synthesize(
            CHAIN, SynthesisConfig(budget=Budget(max_nodes=0))
        )

        def ops(result):
            for report in result.reports:
                if "optimized operation count" in report.details:
                    return int(report.details["optimized operation count"])
            raise AssertionError("no op count in reports")

        assert ops(degraded) >= ops(full)


class TestCanonicalPlan:
    """The distribution fallback: block-distribute every node."""

    def test_canonical_plan_is_exact(self):
        prog = parse_program(MATMUL)
        tree = expression_to_ptree(prog.statements[0].expr)
        grid = ProcessorGrid((2,))
        plan = canonical_plan(tree, grid)
        inputs = random_inputs(prog, seed=2)
        run = run_spmd(plan, inputs)
        want = evaluate_expression(prog.statements[0].expr, inputs)
        np.testing.assert_allclose(run.result, want, rtol=1e-10)

    def test_canonical_plan_cost_bounded_by_search(self):
        prog = parse_program(MATMUL)
        tree = expression_to_ptree(prog.statements[0].expr)
        grid = ProcessorGrid((2,))
        searched = optimize_distribution(tree, grid)
        canonical = canonical_plan(tree, grid)
        assert canonical.total_cost >= searched.total_cost

    def test_canonical_plan_respects_pinned_result(self):
        prog = parse_program(MATMUL)
        tree = expression_to_ptree(prog.statements[0].expr)
        grid = ProcessorGrid((2,))
        pinned = Distribution((SINGLE,))
        plan = canonical_plan(tree, grid, result_dist=pinned)
        assert plan.dist[id(tree)] == pinned


class TestValidateEnv:
    def _refs(self, source=MATMUL):
        prog = parse_program(source)
        expr = prog.statements[0].expr
        return prog, list(expr.refs())

    def test_accepts_good_env(self):
        prog, refs = self._refs()
        validate_env(random_inputs(prog, seed=0), refs)

    def test_missing_tensor_named(self):
        _, refs = self._refs()
        with pytest.raises(SpecError, match="'B'") as info:
            validate_env({"A": np.zeros((4, 4))}, refs)
        assert info.value.tensor == "B"

    def test_require_present_false_skips_missing(self):
        _, refs = self._refs()
        validate_env({"A": np.zeros((4, 4))}, refs, require_present=False)

    def test_wrong_shape_names_tensor_and_shapes(self):
        prog, refs = self._refs()
        arrays = random_inputs(prog, seed=0)
        arrays["B"] = np.zeros((4, 5))
        with pytest.raises(ShapeError, match=r"\(4, 5\)"):
            validate_env(arrays, refs)

    def test_check_finite_opt_in(self):
        prog, refs = self._refs()
        arrays = random_inputs(prog, seed=0)
        arrays["A"] = arrays["A"].copy()
        arrays["A"][0, 0] = np.inf
        validate_env(arrays, refs)  # default: non-finite is allowed
        with pytest.raises(ShapeError, match="non-finite"):
            validate_env(arrays, refs, check_finite=True)


class TestFaultSpecParsing:
    def test_drop_list(self):
        sched = parse_fault_spec("drop:0,3")
        assert sched.drop_messages == (0, 3)
        assert sched.drop_attempts == 1

    def test_drop_with_attempts(self):
        sched = parse_fault_spec("drop:0x5")
        assert sched.drop_messages == (0,)
        assert sched.drop_attempts == 5

    def test_combined_clauses(self):
        sched = parse_fault_spec("drop:1;crash:0,2")
        assert sched.drop_messages == (1,)
        assert sched.crash_supersteps == (0, 2)
        assert sched.any_faults

    def test_bad_spec_is_spec_error(self):
        with pytest.raises(SpecError, match="fault spec"):
            parse_fault_spec("explode:9")
        with pytest.raises(SpecError, match="fault spec"):
            parse_fault_spec("drop:zero")

    def test_should_drop_window(self):
        sched = FaultSchedule(drop_messages=(2,), drop_attempts=2)
        assert sched.should_drop(2, 0)
        assert sched.should_drop(2, 1)
        assert not sched.should_drop(2, 2)
        assert not sched.should_drop(1, 0)
