"""The paper's figures and tables as exact assertions.

Each class is one experiment of EXPERIMENTS.md (E1-E15, A1-A10) and
holds the numbers that no other test already pins, as literals.  Where
another test already asserts a number it is named there, not repeated
here (EXPERIMENTS.md E38 lists where every number lives).
"""

import itertools

import numpy as np
import pytest

from repro.chem.a3a import (
    a3a_problem,
    fig2_table,
    fig3_table,
    fig4_structure,
    table_totals,
)
from repro.chem.a3a_full import a3a_full_problem
from repro.chem.workloads import (
    ccsd_doubles_program,
    fig1_program,
    random_contraction_program,
)
from repro.codegen.builder import apply_tiling, build_unfused
from repro.codegen.loops import Alloc, loop_op_count, total_memory, walk
from repro.engine.counters import Counters
from repro.engine.executor import random_inputs, run_statements
from repro.engine.machine import MachineModel, MemoryLevel
from repro.engine.outofcore import simulate_out_of_core
from repro.expr.ast import Add, Statement, Sum, TensorRef
from repro.expr.canonical import flatten
from repro.expr.indices import Index, IndexRange
from repro.expr.parser import parse_program
from repro.expr.tensor import Tensor
from repro.fusion.fusion_graph import FusionGraph
from repro.fusion.memopt import minimize_memory, ordered_subsets
from repro.fusion.tree import build_tree
from repro.locality.cost_model import access_cost
from repro.locality.tile_search import optimize_locality, tileable_indices
from repro.opmin.cost import (
    contraction_cost,
    sequence_op_count,
    statement_op_count,
)
from repro.opmin.multi_term import optimize_program, optimize_statement
from repro.opmin.optree import Contract, Leaf, tree_cost
from repro.opmin.schedule import schedule_statements
from repro.opmin.search import pruning_search
from repro.opmin.single_term import optimize_term
from repro.parallel.grid import ProcessorGrid
from repro.parallel.gridsearch import choose_grid
from repro.parallel.partition import optimize_distribution
from repro.parallel.ptree import expression_to_ptree
from repro.pipeline import SynthesisConfig, synthesize
from repro.robustness.budget import Budget
from repro.sparse.executor import random_sparse_inputs
from repro.sparse.executor import run_statements as sparse_run
from repro.spacetime.tradeoff import tradeoff_search


def term_of(program):
    (_, sums, refs), = flatten(program.statements[0].expr)
    return refs, sums


def op_count(result):
    return next(
        int(r.details["optimized operation count"])
        for r in result.reports
        if "optimized operation count" in r.details
    )


def matmul(m, n, k):
    return parse_program(f"""
    range M = {m}; range N = {n}; range K = {k};
    index i : M; index j : N; index k : K;
    tensor A(i, k); tensor B(k, j);
    C(i, j) = sum(k) A(i, k) * B(k, j);
    """)


class TestE1OperationMinimization:
    """4·N¹⁰ and 6·N⁶: tests/test_opmin_cost.py::TestDirectOpCount;
    the BDCA order: tests/test_opmin_single_term.py::TestFig1."""

    def test_paper_scale(self):
        stmt = fig1_program(V=3000, O=100).statements[0]
        assert statement_op_count(stmt) == 2_916 * 10**26
        assert sequence_op_count(optimize_statement(stmt)) == 50_274 * 10**15


class TestE3E4A3ATables:
    """The Fig. 2/3/4 tables at V=4: tests/test_chem_a3a.py."""

    @pytest.mark.parametrize(
        "V, t_bytes, x_bytes",
        [(3000, 216 * 10**11, 648 * 10**12), (5000, 10**14, 5 * 10**15)],
    )
    def test_fig2_bytes_at_paper_scale(self, V, t_bytes, x_bytes):
        """'the size of T1, T2 is O(10^14) bytes and the size of X, Y is
        O(10^15)'."""
        table = fig2_table(V, 100, 1000)
        assert table["T1"]["space"] * 8 == table["T2"]["space"] * 8 == t_bytes
        assert table["X"]["space"] * 8 == table["Y"]["space"] * 8 == x_bytes

    def test_fig3_costs_three_orders_of_magnitude(self):
        unfused = table_totals(fig2_table(3000, 100, 1000))["time"]
        fused = table_totals(fig3_table(3000, 100, 1000))["time"]
        assert unfused == 50_225_562 * 10**12
        assert fused == 48_650_220_162 * 10**12
        assert round(fused / unfused) == 969


class TestE6BlockSweep:
    """§3: 'as B is increased, performance will improve and then level
    off and then deteriorate' (V=16, O=2, Ci=64, memory 3000 elements,
    miss cost 2000)."""

    #: B -> (arithmetic ops, modeled misses, temporary memory)
    SWEEP = {
        1: (273_285_120, 296_192, 5),
        2: (71_958_528, 150_080, 41),
        4: (21_626_880, 565_504, 545),
        8: (9_043_968, 2_756_736, 8_321),
        16: (5_898_240, 4_695_296, 131_585),
    }

    def test_sweep(self):
        machine = MachineModel(
            cache=MemoryLevel("cache", 256, 8.0),
            memory=MemoryLevel("memory", 3000, 2000.0),
        )
        problem = a3a_problem(V=16, O=2, Ci=64)
        times = {}
        for B, expected in self.SWEEP.items():
            block = fig4_structure(problem, B)
            ops = loop_op_count(block)
            misses = access_cost(block, machine.memory.capacity)
            assert (ops, misses, total_memory(block)) == expected, B
            times[B] = (
                machine.flop_cost * ops + machine.memory.miss_cost * misses
            )
        assert min(times, key=times.get) == 2
        assert times[2] == 372_118_528


class TestE7FusionGraphs:
    """Figs. 6-7 on A3A."""

    @pytest.fixture(scope="class")
    def a3a(self):
        return a3a_problem(V=4, O=2, Ci=50)

    @staticmethod
    def fuse(problem, names):
        return frozenset(problem.index(n) for n in names)

    def graph(self, problem, redundant=()):
        graph = FusionGraph(problem.tree())
        ids = {
            n.array.name: graph.node_id(n)
            for n in graph.root.subtree()
            if not n.is_leaf
        }
        for name, indices in redundant:
            graph.add_redundant_indices(ids[name], self.fuse(problem, indices))
        return graph, ids

    def feasible(self, problem, edges, redundant=()):
        graph, ids = self.graph(problem, redundant)
        return graph.feasible({
            (ids[parent], ids[child]): self.fuse(problem, names)
            for (parent, child), names in edges.items()
        })

    def test_potential_edges(self, a3a):
        graph, ids = self.graph(a3a)
        pot = graph.potential_edges()
        assert pot[(ids["E"], ids["X"])] == self.fuse(a3a, "aecf")
        assert pot[(ids["Y"], ids["T1"])] == self.fuse(a3a, "cebk")

    def test_fig6_t1_fuses_then_t2_is_blocked(self, a3a):
        edges = {("E", "X"): "aecf", ("E", "Y"): "aecf"}
        assert self.feasible(a3a, edges)
        edges[("Y", "T1")] = "ce"
        assert self.feasible(a3a, edges)
        for index in "af":
            assert not self.feasible(a3a, {**edges, ("Y", "T2"): index})

    def test_fig7_redundant_vertices_enable_full_fusion(self, a3a):
        edges = {
            ("E", "X"): "aecf", ("E", "Y"): "aecf",
            ("Y", "T1"): "aecfbk", ("Y", "T2"): "aecfbk",
        }
        redundant = [("T1", "af"), ("T2", "ce")]
        assert self.feasible(a3a, edges, redundant)

    def test_redundancy_at_one_producer_suffices(self, a3a):
        """Y keeps its (c,e) dimensions (EXPERIMENTS.md, deviation 2);
        the configuration's point (memory ≤ V²+3) beats full fusion in
        operations on the trade-off frontier."""
        edges = {
            ("E", "X"): "aecf", ("E", "Y"): "af",
            ("Y", "T1"): "aecfbk", ("Y", "T2"): "afbk",
        }
        assert self.feasible(a3a, edges, [("T1", "af")])
        frontier = tradeoff_search(a3a.tree())
        full = next(s for s in frontier if s.memory == 4)
        assert any(
            4 < s.memory <= 4 * 4 + 3 and s.ops < full.ops for s in frontier
        )


class TestE8MemoryDP:
    """DP == brute force: tests/test_fusion_memopt.py (Fig. 1: 17
    elements in TestFig1Fusion; random chains in TestDPvsBrute)."""

    def test_a3a_pareto_frontier(self):
        frontier = tradeoff_search(a3a_problem(V=4, O=2, Ci=50).tree())
        assert [(s.memory, s.ops) for s in frontier] == [
            (4, 211_456), (7, 134_656), (11, 115_456),
            (22, 57_856), (38, 38_656), (138, 19_456),
        ]

    def test_ordered_subset_counts(self):
        base = IndexRange("N", 4)
        counts = [
            len(ordered_subsets(
                frozenset(Index(f"x{i}", base) for i in range(k))
            ))
            for k in (1, 2, 3, 4)
        ]
        assert counts == [2, 5, 16, 65]


class TestE9Locality:
    """Cost model, op-preservation, disk level: tests/test_locality.py;
    LRU validation: tests/test_locality_cache_sim.py."""

    def test_doubling_grid_reaches_the_integer_grid_optimum(self):
        n, capacity = 16, 64
        block = build_unfused(matmul(n, n, n).statements)
        keep = [a.array for a in walk(block) if isinstance(a, Alloc)]
        indices = tileable_indices(block)
        ops = loop_op_count(block)
        best = access_cost(block, capacity)
        for combo in itertools.product(range(1, n + 1), repeat=3):
            tiles = {i: b for i, b in zip(indices, combo) if b < n}
            if not tiles:
                continue
            try:
                tiled = apply_tiling(block, tiles, keep_global=keep)
            except ValueError:
                continue
            if loop_op_count(tiled) == ops:
                best = min(best, access_cost(tiled, capacity))
        doubling = optimize_locality(block, capacity)
        assert (doubling.baseline_cost, doubling.cost) == (8448, 3072)
        assert best == 3072

    def test_tight_cache_on_32_cubed(self):
        block = build_unfused(matmul(32, 32, 32).statements)
        result = optimize_locality(block, 64)
        assert (result.baseline_cost, result.cost) == (98_304, 24_576)


class TestE10A8Distribution:
    """DP == exhaustive, beats serial, ranks like the simulator:
    tests/test_parallel_partition.py."""

    def test_states_grow_with_q_squared(self):
        chain2 = expression_to_ptree(matmul(8, 8, 8).statements[0].expr)
        chain3 = expression_to_ptree(parse_program("""
        range N = 8; index i, j, k, l : N;
        tensor A(i, k); tensor B(k, l); tensor C(l, j);
        D(i, j) = sum(k, l) A(i, k) * B(k, l) * C(l, j);
        """).statements[0].expr)

        def states(tree, dims):
            plan = optimize_distribution(tree, ProcessorGrid(dims))
            return plan.states_evaluated

        assert states(chain2, (2, 2)) > 4 * states(chain2, (2,))
        assert states(chain3, (2,)) < 10 * states(chain2, (2,))

    def test_grid_shape_for_16_processors(self):
        """A8: C[64,8] = A[64,64]·B[64,8]."""
        tree = expression_to_ptree(matmul(64, 8, 64).statements[0].expr)
        choice = choose_grid(tree, 16, max_dims=2)
        assert choice.grid.dims == (2, 8)
        assert dict(choice.table) == {
            (16,): 8896, (2, 8): 6976, (4, 4): 8896, (8, 2): 6976,
        }
        plan = optimize_distribution(tree, ProcessorGrid((2, 2, 4)))
        assert plan.total_cost == 11136


class TestE12A1A7Opmin:
    """CLRS matrix chain (7,500 mults): tests/test_opmin_single_term.py
    ::TestSmallCases::test_matrix_chain_classic; factorization (A2):
    tests/test_opmin_factorize.py::test_factorization_saves_ops."""

    def test_free_pairing_beats_every_chain(self):
        refs, sums = term_of(fig1_program(V=8, O=3))

        def chain_cost(order):
            node, total, pending = Leaf(order[0]), 0, set(sums)
            for k, ref in enumerate(order[1:], start=1):
                later = set().union(*(r.free for r in order[k + 1:]))
                summed = tuple(sorted(
                    i for i in node.free | ref.free
                    if i in pending and i not in later
                ))
                total += contraction_cost(node.free, ref.free)
                node = Contract(node, Leaf(ref), summed)
                pending -= set(summed)
            return total

        best_chain = min(map(chain_cost, itertools.permutations(refs)))
        assert tree_cost(optimize_term(refs, sums)) <= best_chain

    def test_pruning_explores_under_half(self):
        pruned_total = full_total = 0
        for seed in range(6):
            program = random_contraction_program(seed, n_tensors=5)
            refs, sums = term_of(program)
            _, pruned = pruning_search(refs, sums, prune=True)
            _, full = pruning_search(refs, sums, prune=False)
            assert pruned.best_cost == full.best_cost
            pruned_total += pruned.explored
            full_total += full.explored
        assert pruned_total < full_total / 2

    def test_cse_ablation(self):
        small = a3a_full_problem(VA=3, VB=2, O=2, Ci=20)
        with_cse = optimize_program(small.program, cse=True)
        without = optimize_program(small.program, cse=False)
        assert (len(with_cse), sequence_op_count(with_cse)) == (23, 7390)
        assert (len(without), sequence_op_count(without)) == (24, 7518)
        inputs = random_inputs(small.program, seed=1)
        want, *got = (
            float(run_statements(seq, inputs, functions=small.functions)["E"])
            for seq in (small.program.statements, with_cse, without)
        )
        assert got == [pytest.approx(want, rel=1e-9)] * 2
        big = a3a_full_problem(VA=3000, VB=2800, O=100, Ci=1000).program
        assert sequence_op_count(optimize_program(big, cse=True)) == (
            sequence_op_count(optimize_program(big, cse=False))
        )

    def test_schedule_holds_one_temporary_at_a_time(self):
        """A7: four 16×16 producer/consumer pairs."""
        lines = ["range B = 16;", "index p, q : B;"]
        for k in range(4):
            lines.append(f"tensor A{k}(p, q);")
        for k in range(4):
            lines.append(f"T{k}(p, q) = A{k}(p, q);")
        for k in range(4):
            lines.append(f"R{k}() = sum(p, q) T{k}(p, q) * T{k}(p, q);")
        statements = parse_program("\n".join(lines)).statements
        exact = schedule_statements(statements)
        greedy = schedule_statements(statements, exact_limit=0)
        assert exact.exact and not greedy.exact
        assert (exact.baseline_peak, exact.peak_live) == (1025, 260)
        assert greedy.peak_live == 260


class TestE14SparseFill:
    """The BDCA sequence at N=6 with every input at ``fill``."""

    @pytest.mark.parametrize(
        "fill, sparse_model, measured",
        [(1.0, 279_936, 279_936), (0.1, 19_592, 10_692), (0.01, 1_872, 10)],
    )
    def test_fill_sweep(self, fill, sparse_model, measured):
        ann = f" sparse({fill})" if fill < 1.0 else ""
        program = parse_program(f"""
        range N = 6;
        index a, b, c, d, e, f, i, j, k, l : N;
        tensor A(a, c, i, k){ann}; tensor B(b, e, f, l){ann};
        tensor C(d, f, j, k){ann}; tensor D(c, d, e, l){ann};
        T1(b, c, d, f) = sum(e, l) B(b,e,f,l) * D(c,d,e,l);
        T2(b, c, j, k) = sum(d, f) T1(b,c,d,f) * C(d,f,j,k);
        S(a, b, i, j) = sum(c, k) T2(b,c,j,k) * A(a,c,i,k);
        """)
        statements = program.statements
        assert sequence_op_count(statements) == 6 * 6**6
        assert sequence_op_count(statements, sparse_aware=True) == sparse_model
        inputs = random_sparse_inputs(program, seed=0)
        counters = Counters()
        got = sparse_run(statements, inputs, counters=counters)
        assert counters.flops == measured
        dense = {name: coo.to_dense() for name, coo in inputs.items()}
        want = run_statements(statements, dense)
        np.testing.assert_allclose(got["S"], want["S"], rtol=1e-9)


class TestE15Budgets:
    """Zero budget stays correct, degradations are structured, a
    generous budget changes nothing: tests/test_robustness.py
    ::TestDegradedPipeline."""

    FULL = SynthesisConfig(optimize_cache=False)
    ZERO = SynthesisConfig(optimize_cache=False, budget=Budget(max_nodes=0))

    @pytest.mark.parametrize(
        "V, O, full, degraded",
        [(8, 3, 297_984, 46_006_272), (20, 6, 53_376_000, 168_652_800_000)],
    )
    def test_opmin_fallback_penalty_on_fig1(self, V, O, full, degraded):
        program = fig1_program(V=V, O=O)
        assert op_count(synthesize(program, self.FULL)) == full
        assert op_count(synthesize(program, self.ZERO)) == degraded

    def test_ccsd_fallback_costs_nothing_and_a_deadline_degrades(self):
        program = ccsd_doubles_program(V=8, O=4)
        assert op_count(synthesize(program, self.ZERO)) == op_count(
            synthesize(program, self.FULL)
        )
        deadline = SynthesisConfig(budget=Budget(deadline_ms=1.0))
        result = synthesize(program, deadline)
        assert result.degraded_stages
        inputs = random_inputs(result.program, seed=1)
        want = run_statements(result.program.statements, inputs)["R"]
        np.testing.assert_allclose(result.run(inputs)["R"], want, rtol=1e-8)


class TestA6OutOfCore:
    """Fig. 4 structures paged at 160 elements (V=4, O=2, Ci=10)."""

    def test_paging_by_block_size(self):
        problem = a3a_problem(V=4, O=2, Ci=10)
        inputs = random_inputs(problem.program, seed=0)
        rows = {}
        for B in (1, 2, 4):
            block = fig4_structure(problem, B)
            stats = simulate_out_of_core(
                block, inputs, 160, 4, functions=problem.functions
            )
            rows[B] = (
                total_memory(block),
                stats.disk_reads, stats.disk_writes, stats.evictions,
            )
        assert rows == {
            1: (5, 84, 20, 0),
            2: (41, 108, 44, 0),
            4: (545, 2988, 2424, 707),
        }


class TestA10WideCombine:
    def test_sixteen_children_fuse_to_scalars(self):
        """The sequential chain-state join: 16 children (a cartesian
        join would hold 5¹⁶ states) each fuse to a scalar."""
        n = IndexRange("N", 4)
        a, b = Index("a", n), Index("b", n)
        statements, terms = [], []
        for k in range(16):
            source = TensorRef(Tensor(f"IN{k}", (a, b)), (a, b))
            temp = Tensor(f"T{k}", (a,))
            statements.append(Statement(temp, Sum((b,), source)))
            terms.append((1.0, TensorRef(temp, (a,))))
        statements.append(Statement(Tensor("OUT", (a,)), Add(tuple(terms))))
        assert minimize_memory(build_tree(statements)).total_memory == 16
