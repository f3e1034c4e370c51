"""Tests for the Section-6 locality cost model and tile search."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.expr.parser import parse_program
from repro.codegen.builder import apply_tiling, build_unfused
from repro.codegen.loops import Loop, loop_op_count
from repro.engine.machine import MachineModel, MemoryLevel
from repro.locality.cost_model import access_cost, loop_accesses
from repro.locality.tile_search import (
    candidate_sizes,
    optimize_locality,
    tileable_indices,
    top_candidates,
)


def matmul_program(n=16):
    return parse_program(f"""
    range N = {n};
    index i, j, k : N;
    tensor A(i, k); tensor B(k, j);
    C(i, j) = sum(k) A(i, k) * B(k, j);
    """)


@pytest.fixture
def matmul_block():
    return build_unfused(matmul_program().statements)


class TestCostModel:
    def test_everything_fits(self, matmul_block):
        """With a huge cache the cost is one fetch per element."""
        n = 16
        cost = access_cost(matmul_block, capacity=10**9)
        assert cost == 3 * n * n  # A, B, C each fetched once

    def test_nothing_fits(self, matmul_block):
        """With a tiny cache every loop multiplies its body."""
        n = 16
        cost = access_cost(matmul_block, capacity=1)
        # innermost statement touches 3 elements; loops multiply
        assert cost == 3 * n**3

    def test_intermediate_capacity(self, matmul_block):
        """Cache holds one row-against-matrix working set: the j loop's
        scope (B entire, one row of A, one row of C) fits."""
        n = 16
        # scope of j-loop: C row (16) + A row (16) + B (256) = 288
        cost_fit = access_cost(matmul_block, capacity=288)
        # i-loop scope = all three matrices = 768 > 288, so cost =
        # n * cost(j-scope) = 16 * 288
        assert cost_fit == n * 288

    def test_monotone_in_capacity(self, matmul_block):
        costs = [
            access_cost(matmul_block, capacity=c)
            for c in (1, 8, 64, 512, 4096)
        ]
        assert costs == sorted(costs, reverse=True)

    def test_bad_capacity_rejected(self, matmul_block):
        with pytest.raises(ValueError):
            access_cost(matmul_block, capacity=0)

    def test_loop_accesses_fixed_outer(self, matmul_block):
        loops = [n for n in matmul_block if isinstance(n, Loop)]
        outer = loops[0]
        inner_j = outer.body[0]
        inner_k = inner_j.body[0]
        # k-loop scope: 1 C element, 16 A, 16 B
        assert loop_accesses(inner_k) == 33


class TestCandidateSizes:
    def test_doubling_reaches_extent(self):
        assert candidate_sizes(16) == [1, 2, 4, 8, 16]

    def test_non_power_extent_included(self):
        assert candidate_sizes(12) == [1, 2, 4, 8, 12]

    def test_small_extent(self):
        assert candidate_sizes(1) == [1]
        assert candidate_sizes(3) == [1, 2, 3]


class TestOptimizeLocality:
    def test_blocking_beats_baseline_when_cache_is_tight(self, matmul_block):
        """Classic result: with a cache that can't hold B, blocking the
        loops reduces modeled misses."""
        result = optimize_locality(matmul_block, capacity=64)
        assert result.cost < result.baseline_cost
        assert result.improvement > 1.0

    def test_blocking_preserves_op_count(self, matmul_block):
        result = optimize_locality(matmul_block, capacity=64)
        assert loop_op_count(result.structure) == loop_op_count(matmul_block)

    def test_huge_cache_needs_no_tiling(self, matmul_block):
        result = optimize_locality(matmul_block, capacity=10**9)
        assert result.tile_sizes == {}
        assert result.cost == result.baseline_cost

    def test_search_is_exhaustive_over_doubling_grid(self, matmul_block):
        result = optimize_locality(matmul_block, capacity=64)
        # 3 indices x 5 candidate sizes; all op-preserving combos tried
        assert result.evaluated == 5**3

    def test_optimum_matches_exhaustive_table(self, matmul_block):
        result = optimize_locality(matmul_block, capacity=64)
        best_in_table = min(row["cost"] for row in result.table)
        assert result.cost == best_in_table

    def test_restricting_indices(self, matmul_block):
        idx = tileable_indices(matmul_block)
        k = next(i for i in idx if i.name == "k")
        result = optimize_locality(matmul_block, capacity=64, indices=[k])
        assert result.evaluated == len(candidate_sizes(16))

    def test_rejected_index_subset_is_judged_once(self, monkeypatch):
        """Two dependent nests.  Tiling ``k`` would double-count the
        accumulation into ``S`` and tiling ``l`` the one into ``T``; the
        analysis says so before anything is built, and sizes are
        enumerated over ``i`` and ``j`` only: ``apply_tiling`` sees
        each tiling once, rejects none, and the budget is charged one
        node per combination evaluated."""
        import repro.locality.tile_search as ts
        from repro.robustness.budget import Budget

        block = build_unfused(parse_program("""
        range N = 8;
        index i, j, k, l : N;
        tensor A(i, k); tensor B(k, j); tensor D(j, l);
        T(i, j) = sum(k) A(i, k) * B(k, j);
        S(i, l) = sum(j) T(i, j) * D(j, l);
        """).statements)
        calls = []

        def counting(blk, tiles, **kwargs):
            calls.append(frozenset(i.name for i in tiles))
            return apply_tiling(blk, tiles, **kwargs)

        monkeypatch.setattr(ts, "apply_tiling", counting)
        tracker = Budget(max_nodes=10**6).start()
        result = optimize_locality(block, capacity=64, budget=tracker)
        assert not result.degraded
        assert {i.name: r for i, r in result.untileable.items()} == {
            "k": "tiling over k would double-count the accumulation "
            "into global array 'S'",
            "l": "tiling over l would double-count the accumulation "
            "into global array 'T'",
        }
        combos = len(candidate_sizes(8)) ** 2
        assert tracker.nodes == result.evaluated == len(result.table) == combos
        assert len(calls) == combos - 1
        assert set(calls) == {
            frozenset("i"), frozenset("j"), frozenset("ij")
        }

    def test_search_space_cap(self, matmul_block):
        with pytest.raises(ValueError, match="combinations"):
            optimize_locality(matmul_block, capacity=64, max_combinations=2)

    def test_disk_level_uses_same_machinery(self, matmul_block):
        """Disk-access minimization = same model with memory capacity."""
        machine = MachineModel(
            cache=MemoryLevel("cache", 64, 8.0),
            memory=MemoryLevel("memory", 300, 512.0),
        )
        cache_result = optimize_locality(
            matmul_block, capacity=machine.cache.capacity
        )
        disk_result = optimize_locality(
            matmul_block, capacity=machine.memory.capacity
        )
        assert disk_result.cost <= cache_result.cost


class TestMachineModel:
    def test_levels(self):
        m = MachineModel()
        assert m.level("cache").capacity < m.level("memory").capacity
        assert m.level("memory").capacity < m.level("disk").capacity

    def test_fits_in(self):
        m = MachineModel()
        assert m.fits_in(100, "cache")
        assert not m.fits_in(m.cache.capacity + 1, "cache")

    def test_unknown_level(self):
        with pytest.raises(ValueError, match="unknown"):
            MachineModel().level("tape")

    def test_invalid_level_params(self):
        with pytest.raises(ValueError):
            MemoryLevel("x", 0, 1.0)
        with pytest.raises(ValueError):
            MemoryLevel("x", 10, -1.0)


class TestCandidateSizesProperties:
    """Paper Section 6: tile sizes double from 1 until the loop range."""

    @given(st.integers(min_value=1, max_value=4096))
    @settings(max_examples=200, deadline=None)
    def test_strictly_increasing_and_terminates_in_extent(self, extent):
        sizes = candidate_sizes(extent)
        assert sizes[0] == 1
        assert sizes[-1] == extent
        assert all(a < b for a, b in zip(sizes, sizes[1:]))

    @given(st.integers(min_value=1, max_value=4096))
    @settings(max_examples=200, deadline=None)
    def test_doubling_except_final_step(self, extent):
        sizes = candidate_sizes(extent)
        # every step but the last doubles; the last clamps to the extent
        for a, b in zip(sizes, sizes[2:]):
            assert b == 4 * a or b == sizes[-1]
        for a, b in zip(sizes, sizes[1:-1]):
            assert b == 2 * a

    @given(st.integers(min_value=2, max_value=4096))
    @settings(max_examples=200, deadline=None)
    def test_sizes_never_exceed_extent(self, extent):
        assert all(1 <= s <= extent for s in candidate_sizes(extent))


class TestNonPowerOfTwoExtents:
    """The search must handle ranges that are not powers of two: the
    final (remainder) tile is smaller, but the op count is invariant."""

    @pytest.mark.parametrize("n", [6, 12, 18, 24])
    def test_search_preserves_op_count(self, n):
        block = build_unfused(matmul_program(n).statements)
        result = optimize_locality(block, capacity=64)
        assert loop_op_count(result.structure) == loop_op_count(block)

    @pytest.mark.parametrize("n", [6, 12])
    def test_tiling_still_beats_baseline(self, n):
        block = build_unfused(matmul_program(n).statements)
        result = optimize_locality(block, capacity=16)
        assert result.cost <= result.baseline_cost

    def test_candidate_grid_uses_clamped_sizes(self):
        block = build_unfused(matmul_program(12).statements)
        result = optimize_locality(block, capacity=64)
        # 3 indices x |candidate_sizes(12)| = 5 each
        assert result.evaluated == len(candidate_sizes(12)) ** 3
        for idx, size in result.tile_sizes.items():
            assert size in candidate_sizes(12)


class TestTopCandidates:
    """The pareto head handed to the empirical autotuner."""

    def _table(self, n=16, capacity=64):
        block = build_unfused(matmul_program(n).statements)
        return optimize_locality(block, capacity=capacity).table

    def test_sorted_by_cost(self):
        head = top_candidates(self._table(), 4)
        costs = [row["cost"] for row in head[:4]]
        assert costs == sorted(costs)

    def test_untiled_baseline_always_present(self):
        head = top_candidates(self._table(), 3)
        assert any(not row["tiles"] for row in head)

    def test_k_bounds_head_size(self):
        table = self._table()
        head = top_candidates(table, 4)
        assert len(head) <= 5  # k rows + possibly the untiled baseline
        assert top_candidates(table, 1)[0]["cost"] == min(
            row["cost"] for row in table
        )

    def test_ties_prefer_fewer_tiled_indices(self):
        table = [
            {"tiles": {"i": 2, "j": 2}, "cost": 10},
            {"tiles": {"i": 2}, "cost": 10},
            {"tiles": {}, "cost": 50},
        ]
        head = top_candidates(table, 2)
        assert head[0]["tiles"] == {"i": 2}
