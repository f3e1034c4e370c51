"""Out-of-core execution simulation: paging between memory and disk.

Paper Section 4 (Data locality optimization): "If the space requirement
exceeds physical memory capacity, portions of the arrays must be moved
between disk and main memory as needed, in a way that maximizes reuse of
elements in memory."

This module measures that movement for a loop structure: every element
access from the interpreter's trace goes through a page-granular buffer
pool of bounded capacity with LRU replacement and write-back dirty
pages.  The resulting disk-read/write volumes are the measured
counterpart of the Section-6 cost model applied at the physical-memory
level, and the quantity the disk-level tile search minimizes.

Long simulations can checkpoint/restart: pass ``checkpoint_dir`` and an
interrupted run (crash, or injected via ``interrupt_after``) resumes
from the last completed top-level unit with bit-identical results *and*
I/O counters -- the pool's LRU state and statistics are part of the
snapshot.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.expr.indices import Bindings
from repro.engine.executor import FunctionImpl
from repro.codegen.interp import execute
from repro.codegen.loops import Alloc, Block, sub_extent, walk


@dataclass
class OOCStats:
    """Measured paging behaviour of one execution."""

    budget: int  # pool capacity in elements
    page: int  # page size in elements
    disk_reads: int = 0  # elements read from disk
    disk_writes: int = 0  # elements written back to disk
    evictions: int = 0
    accesses: int = 0
    per_array_reads: Dict[str, int] = field(default_factory=dict)
    arrays: Dict[str, np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def total_io(self) -> int:
        return self.disk_reads + self.disk_writes


class PagedBufferPool:
    """LRU pool of (array, page) entries with write-back accounting."""

    def __init__(
        self,
        budget_elements: int,
        page_elements: int,
        shapes: Mapping[str, Tuple[int, ...]],
    ) -> None:
        if budget_elements < page_elements:
            raise ValueError("budget must hold at least one page")
        if page_elements <= 0:
            raise ValueError("page size must be positive")
        self.capacity_pages = budget_elements // page_elements
        self.page = page_elements
        self.shapes = dict(shapes)
        self._pages: "OrderedDict[Tuple[str, int], bool]" = OrderedDict()
        self.stats = OOCStats(budget_elements, page_elements)

    def _flat(self, array: str, coords: Tuple[int, ...]) -> int:
        shape = self.shapes[array]
        flat = 0
        for c, n in zip(coords, shape):
            flat = flat * n + c
        return flat

    def access(self, array: str, coords: Tuple[int, ...], is_write: bool) -> None:
        self.stats.accesses += 1
        if array not in self.shapes:
            return  # scalars/unknowns: treat as register-resident
        key = (array, self._flat(array, coords) // self.page)
        pages = self._pages
        if key in pages:
            pages.move_to_end(key)
            if is_write:
                pages[key] = True
            return
        self.stats.disk_reads += self.page
        self.stats.per_array_reads[array] = (
            self.stats.per_array_reads.get(array, 0) + self.page
        )
        pages[key] = is_write
        if len(pages) > self.capacity_pages:
            _, dirty = pages.popitem(last=False)
            self.stats.evictions += 1
            if dirty:
                self.stats.disk_writes += self.page

    def flush(self) -> None:
        """Write back every remaining dirty page."""
        for _, dirty in self._pages.items():
            if dirty:
                self.stats.disk_writes += self.page
        self._pages.clear()

    def get_state(self) -> dict:
        """Snapshot the resident set and counters for checkpointing."""
        s = self.stats
        return {
            "pages": list(self._pages.items()),
            "disk_reads": s.disk_reads,
            "disk_writes": s.disk_writes,
            "evictions": s.evictions,
            "accesses": s.accesses,
            "per_array_reads": dict(s.per_array_reads),
        }

    def set_state(self, state: dict) -> None:
        """Restore a :meth:`get_state` snapshot (LRU order included)."""
        self._pages = OrderedDict(state["pages"])
        s = self.stats
        s.disk_reads = state["disk_reads"]
        s.disk_writes = state["disk_writes"]
        s.evictions = state["evictions"]
        s.accesses = state["accesses"]
        s.per_array_reads = dict(state["per_array_reads"])


def array_shapes(
    block: Block,
    inputs: Mapping[str, np.ndarray],
    bindings: Optional[Bindings] = None,
) -> Dict[str, Tuple[int, ...]]:
    """Shapes of every array touched by a structure (allocs + inputs)."""
    shapes: Dict[str, Tuple[int, ...]] = {
        name: tuple(np.asarray(arr).shape) for name, arr in inputs.items()
    }
    for node in walk(block):
        if isinstance(node, Alloc):
            shapes[node.array] = tuple(
                sub_extent(dim, bindings) for dim in node.dims
            )
    return shapes


def simulate_out_of_core(
    block: Block,
    inputs: Mapping[str, np.ndarray],
    budget_elements: int,
    page_elements: int = 8,
    bindings: Optional[Bindings] = None,
    functions: Optional[Mapping[str, FunctionImpl]] = None,
    *,
    checkpoint_dir: Optional[str] = None,
    interrupt_after: Optional[int] = None,
    semiring: str = "plus_times",
) -> OOCStats:
    """Execute ``block`` with a bounded buffer pool; returns I/O stats.

    The computation itself is exact (the interpreter runs normally);
    only the *movement* implied by the access sequence is measured.
    The returned stats carry the final array environment in
    ``stats.arrays``.

    ``checkpoint_dir`` enables checkpoint/restart at top-level-unit
    granularity: an interrupted simulation re-invoked with the same
    directory resumes after the last completed unit, and the final
    results and I/O counters are bit-identical to an uninterrupted
    run.  ``interrupt_after=n`` injects an
    :class:`~repro.robustness.errors.InjectedFault` after ``n`` units
    complete (testing hook).
    """
    pool = PagedBufferPool(
        budget_elements, page_elements, array_shapes(block, inputs, bindings)
    )
    arrays = execute(
        block,
        inputs,
        bindings,
        functions,
        trace=pool.access,
        checkpoint=checkpoint_dir,
        interrupt_after=interrupt_after,
        extra_state=(pool.get_state, pool.set_state),
        semiring=semiring,
    )
    pool.flush()
    pool.stats.arrays = arrays
    return pool.stats
