"""Tests for the Section-7 DP, and for its plans run on the in-process
grid (:func:`run_spmd`) and walked by :func:`plan_traffic`."""

import numpy as np
import pytest

from repro.expr.indices import Index, IndexRange
from repro.expr.parser import parse_program
from repro.engine.executor import evaluate_expression, random_inputs
from repro.parallel.commcost import CommModel, plan_traffic
from repro.parallel.dist import Distribution, REPLICATED, SINGLE, no_replicate
from repro.parallel.grid import ProcessorGrid
from repro.parallel.partition import optimize_distribution
from repro.parallel.ptree import PLeaf, PMul, PSum, expression_to_ptree
from repro.parallel.spmd import run_spmd


def matmul_ptree(n=8):
    prog = parse_program(f"""
    range N = {n};
    index i, j, k : N;
    tensor A(i, k); tensor B(k, j);
    C(i, j) = sum(k) A(i, k) * B(k, j);
    """)
    stmt = prog.statements[0]
    return expression_to_ptree(stmt.expr), stmt, prog


class TestPtree:
    def test_structure(self):
        tree, _, _ = matmul_ptree()
        assert isinstance(tree, PSum)
        assert isinstance(tree.child, PMul)
        assert tree.index.name == "k"
        names = [i.name for i in tree.indices]
        assert names == ["i", "j"]

    def test_internal_count(self):
        tree, _, _ = matmul_ptree()
        assert tree.internal_count() == 2

    def test_multi_sum_chain(self):
        prog = parse_program("""
        range N = 4;
        index a, b, c : N;
        tensor X(a, b, c);
        S(a) = sum(b, c) X(a, b, c);
        """)
        tree = expression_to_ptree(prog.statements[0].expr)
        assert isinstance(tree, PSum) and isinstance(tree.child, PSum)

    def test_add_rejected(self):
        prog = parse_program("""
        range N = 4;
        index a : N;
        tensor X(a); tensor Y(a);
        S(a) = X(a) + Y(a);
        """)
        with pytest.raises(TypeError):
            expression_to_ptree(prog.statements[0].expr)


class TestPartitionDP:
    def test_plan_exists_and_costs_positive(self):
        tree, _, _ = matmul_ptree()
        grid = ProcessorGrid((2, 2))
        plan = optimize_distribution(tree, grid)
        assert plan.total_cost >= 0
        assert id(tree) in plan.dist

    def test_single_processor_grid_has_zero_comm(self):
        tree, _, _ = matmul_ptree()
        grid = ProcessorGrid((1,))
        plan = optimize_distribution(tree, grid)
        # cost is pure computation: n^3 products + n^3 adds
        assert plan.total_cost == 8**3 + 8**3

    def test_parallel_beats_serial_on_compute(self):
        tree, _, _ = matmul_ptree()
        cheap_comm = CommModel(flop_cost=1.0, comm_cost=0.01)
        serial = optimize_distribution(tree, ProcessorGrid((1,)), cheap_comm)
        parallel = optimize_distribution(
            tree, ProcessorGrid((2, 2)), cheap_comm
        )
        assert parallel.total_cost < serial.total_cost

    def test_expensive_comm_prefers_no_redistribution(self):
        """With near-infinite communication cost the DP picks a plan
        with zero communication if one exists."""
        tree, _, _ = matmul_ptree()
        model = CommModel(flop_cost=1.0, comm_cost=1e12)
        plan = optimize_distribution(tree, ProcessorGrid((2,)), model)
        # zero-comm plans exist (e.g. replicate nothing, distribute i)
        assert plan.total_cost < 1e12

    def test_matches_exhaustive_on_tiny_tree(self):
        """DP cost equals brute-force enumeration over all distribution
        assignments on a two-node tree."""
        N = IndexRange("N", 4)
        a, b = Index("a", N), Index("b", N)
        from repro.expr.tensor import Tensor
        from repro.expr.ast import TensorRef

        A = TensorRef(Tensor("A", (a, b)), (a, b))
        B = TensorRef(Tensor("B", (a, b)), (a, b))
        tree = PSum(b, PMul(PLeaf(A), PLeaf(B)))
        grid = ProcessorGrid((2,))
        model = CommModel()
        plan = optimize_distribution(tree, grid, model)

        # brute force: enumerate leaf dists x mul gamma x sum option x root alpha
        from repro.parallel.dist import enumerate_distributions
        from repro.parallel.commcost import (
            calc_mul_elements,
            move_cost_elements,
            partial_sum_elements,
            reduction_comm_elements,
            reduction_result_dist,
        )

        mul = tree.child
        best = None
        for gamma in enumerate_distributions(mul.indices, grid):
            la = gamma.effective((a, b))
            c_leaves = 0.0
            for leaf_dist in (la,):
                pass
            # leaf cost: 0 if no_replicate else cheapest move from plain
            def leaf_cost(dist):
                if no_replicate(dist):
                    return 0.0
                plains = [
                    d
                    for d in enumerate_distributions((a, b), grid)
                    if no_replicate(d)
                ]
                return min(
                    model.comm_cost
                    * move_cost_elements((a, b), p, dist, grid)
                    for p in plains
                )

            base = (
                leaf_cost(gamma.effective((a, b))) * 2
                + model.flop_cost
                * calc_mul_elements(mul.indices, gamma, grid)
            )
            # summation over b
            partial = model.flop_cost * partial_sum_elements(
                mul.indices, gamma, grid
            )
            if gamma.position_of(b) is None:
                options = [(gamma, 0.0)]
            else:
                red = model.comm_cost * reduction_comm_elements(
                    (a,), gamma, b, grid
                )
                options = [
                    (reduction_result_dist(gamma, b, False), red),
                    (reduction_result_dist(gamma, b, True), red),
                ]
            for out_dist, red in options:
                for alpha in enumerate_distributions((a,), grid):
                    mv = (
                        0.0
                        if out_dist == alpha
                        else model.comm_cost
                        * move_cost_elements((a,), out_dist, alpha, grid)
                    )
                    total = base + partial + red + mv
                    if best is None or total < best:
                        best = total
        assert plan.total_cost == pytest.approx(best)

    def test_states_evaluated_reported(self):
        tree, _, _ = matmul_ptree()
        plan = optimize_distribution(tree, ProcessorGrid((2, 2)))
        assert plan.states_evaluated > 0

    def test_describe_mentions_grid(self):
        tree, _, _ = matmul_ptree()
        plan = optimize_distribution(tree, ProcessorGrid((2, 2)))
        text = plan.describe()
        assert "2x2" in text
        assert "sum_k" in text

    def test_pinned_result_distribution(self):
        tree, _, _ = matmul_ptree()
        grid = ProcessorGrid((2,))
        i = next(x for x in tree.indices if x.name == "i")
        pinned = Distribution((SINGLE,))
        plan = optimize_distribution(tree, grid, result_dist=pinned)
        assert plan.dist[id(tree)] == pinned


class TestSimulator:
    """Plans executed by the in-process grid (``run_spmd``) and walked
    by the model (``plan_traffic``)."""

    @pytest.mark.parametrize("grid_dims", [(1,), (2,), (2, 2), (4,)])
    def test_matmul_numerics(self, grid_dims):
        tree, stmt, prog = matmul_ptree()
        grid = ProcessorGrid(grid_dims)
        plan = optimize_distribution(tree, grid)
        arrays = random_inputs(prog, seed=2)
        want = evaluate_expression(stmt.expr, arrays)
        run = run_spmd(plan, arrays)
        np.testing.assert_allclose(run.result, want, rtol=1e-10)

    def test_single_proc_no_comm(self):
        tree, stmt, prog = matmul_ptree()
        grid = ProcessorGrid((1,))
        plan = optimize_distribution(tree, grid)
        run = run_spmd(plan, random_inputs(prog, seed=2))
        received, _ = plan_traffic(plan)
        assert sum(received.values()) == 0
        assert run.comm.messages == 0

    def test_local_ops_balance(self):
        """On a 4-proc grid the chosen plan should spread multiply work."""
        tree, stmt, prog = matmul_ptree()
        grid = ProcessorGrid((4,))
        model = CommModel(comm_cost=0.001)
        plan = optimize_distribution(tree, grid, model)
        _, ops = plan_traffic(plan)
        n = 8
        serial_ops = 2 * n**3
        assert max(ops.values()) < serial_ops

    def test_simulated_comm_never_below_model_free_plans(self):
        """A plan the model says is communication-free must measure
        zero received elements."""
        tree, stmt, prog = matmul_ptree()
        grid = ProcessorGrid((2,))
        model = CommModel(comm_cost=1e9)
        plan = optimize_distribution(tree, grid, model)
        run = run_spmd(plan, random_inputs(prog, seed=0))
        received, _ = plan_traffic(plan)
        model_comm = plan.total_cost - _model_flops(plan, tree, grid)
        if model_comm < 1.0:
            assert sum(received.values()) == 0
            assert run.comm.total_traffic + run.placed_elements == 0

    def test_model_ranks_plans_like_simulator(self):
        """Across several pinned root distributions, model cost ordering
        matches the ordering of the walked per-rank quantities (max
        received + max local ops) on ties-free pairs."""
        tree, stmt, prog = matmul_ptree()
        grid = ProcessorGrid((2, 2))
        model = CommModel()
        from repro.parallel.dist import enumerate_distributions

        pairs = []
        for alpha in enumerate_distributions(tree.indices, grid)[:8]:
            plan = optimize_distribution(tree, grid, model, result_dist=alpha)
            received, ops = plan_traffic(plan)
            measured = (
                model.comm_cost * max(received.values())
                + model.flop_cost * max(ops.values())
            )
            pairs.append((plan.total_cost, measured))
        modeled = [p[0] for p in pairs]
        measured = [p[1] for p in pairs]
        # the model is an upper-bound-style estimate; require rank
        # correlation, not equality: order both and compare indices
        import scipy.stats as st

        rho = st.spearmanr(modeled, measured).statistic
        assert rho > 0.5


def _model_flops(plan, tree, grid):
    """Crude lower bound of the plan's compute portion (for the
    zero-comm check)."""
    from repro.parallel.commcost import calc_mul_elements, partial_sum_elements
    from repro.parallel.ptree import PMul, PSum

    total = 0.0
    for node in tree.walk():
        gamma = plan.gamma.get(id(node))
        if gamma is None:
            continue
        if isinstance(node, PMul):
            total += calc_mul_elements(node.indices, gamma, grid)
        elif isinstance(node, PSum):
            total += partial_sum_elements(node.child.indices, gamma, grid)
    return total
