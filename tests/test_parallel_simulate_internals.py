"""Unit tests for the block bookkeeping of the in-process grid: placing
an array on the ranks and gathering it back (scatter/assemble round
trips), and counting a redistribution.

Two implementations meet here: the distribution's interval arithmetic
(``Distribution.local_ranges``, :func:`received_elements`), which the
§7 model and :func:`plan_traffic` count with, and the SPMD session's
boxes (``region`` / ``take`` / ``paste`` and the ``move`` step's count),
which the generated rank programs run with.
"""

import numpy as np
import pytest

from repro.expr.indices import Index, IndexRange
from repro.parallel import spmd_runtime as rt
from repro.parallel.commcost import move_cost_elements, received_elements
from repro.parallel.dist import Distribution, REPLICATED, SINGLE
from repro.parallel.grid import ProcessorGrid
from repro.parallel.spmd import _move_elements

N = IndexRange("N", 8)
I, J = Index("i", N), Index("j", N)
INDICES = (I, J)
GRID = ProcessorGrid((2, 2))


def scatter(dist, seed=0):
    """The global array and the block every holding rank slices out of
    it, as a rank program's ``slice`` step does."""
    rng = np.random.default_rng(seed)
    glob = rng.standard_normal((8, 8))
    positions = tuple(dist.position_of(i) for i in INDICES)
    single = tuple(d for d, e in enumerate(dist.entries) if e is SINGLE)
    blocks = {}
    for rank in GRID.ranks():
        if rt.holds(rank, single):
            box = rt.region(rank, positions, (8, 8), GRID.dims)
            blocks[rank] = (box, rt.take(glob, (0, 1), box))
    return glob, blocks


class TestScatterAssemble:
    @pytest.mark.parametrize(
        "entries",
        [
            (I, J),
            (J, I),
            (I, REPLICATED),
            (SINGLE, J),
            (REPLICATED, REPLICATED),
            (SINGLE, SINGLE),
        ],
    )
    def test_roundtrip(self, entries):
        dist = Distribution(entries)
        glob, blocks = scatter(dist)
        back = np.full((8, 8), np.nan)
        for rank in GRID.ranks():
            ranges = dist.local_ranges(INDICES, rank, GRID)
            if rank not in blocks:
                assert ranges is None
                continue
            box, block = blocks[rank]
            assert list(box) == ranges  # the session's box is the model's
            rt.paste(back, ((0, 8), (0, 8)), box, block)
        np.testing.assert_array_equal(back, glob)

    def test_holder_blocks_only(self):
        dist = Distribution((SINGLE, J))
        _, blocks = scatter(dist)
        # only ranks with first coordinate 0 hold blocks
        assert set(blocks) == {(0, 0), (0, 1)}
        assert {r for r in GRID.ranks() if dist.holds(r)} == set(blocks)

    def test_block_shapes(self):
        dist = Distribution((I, J))
        _, blocks = scatter(dist)
        for rank, (_, blk) in blocks.items():
            assert blk.shape == (4, 4)
            assert dist.local_size(INDICES, rank, GRID) == blk.size


def received(src, dst):
    return {
        r: received_elements(INDICES, src, dst, r, GRID)
        for r in GRID.ranks()
    }


class TestRedistribute:
    def test_counts_match_model(self):
        src = Distribution((I, J))
        dst = Distribution((J, I))
        got = received(src, dst)
        assert max(got.values()) == move_cost_elements(INDICES, src, dst, GRID)
        # the session's move sends exactly what the ranks receive
        assert _move_elements(INDICES, src, dst, GRID, None) == sum(
            got.values()
        )

    def test_noop_costs_nothing(self):
        dist = Distribution((I, J))
        assert sum(received(dist, dist).values()) == 0
        assert _move_elements(INDICES, dist, dist, GRID, None) == 0

    def test_replication_counts_copies(self):
        src = Distribution((I, J))
        dst = Distribution((REPLICATED, REPLICATED))
        got = received(src, dst)
        # every rank ends with the full 64 minus its own 16
        assert all(v == 48 for v in got.values())
        assert _move_elements(INDICES, src, dst, GRID, None) == 4 * 48
