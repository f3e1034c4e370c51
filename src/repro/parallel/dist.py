"""Distribution n-tuples (paper Section 7).

A :class:`Distribution` assigns to each processor dimension one of:

* an :class:`~repro.expr.indices.Index` -- the array dimension carrying
  that index is block-distributed along the processor dimension;
* :data:`REPLICATED` (``*``) -- data replicated along the dimension;
* :data:`SINGLE` (``1``) -- only processors with coordinate 0 on the
  dimension hold data.

Paper conventions implemented here:

* an index subscripting the array but absent from the tuple leaves that
  array dimension undistributed (every holder stores it fully);
* an index present in the tuple but absent from the array acts as
  :data:`REPLICATED` for that array.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.expr.indices import Bindings, Index
from repro.parallel.grid import ProcessorGrid, myrange


class _Marker:
    def __init__(self, text: str) -> None:
        self.text = text

    def __repr__(self) -> str:
        return self.text

    def __reduce__(self):
        # markers are compared by identity (``e is SINGLE``): pickling
        # and deepcopy must revive the module singletons, not clones
        return (_marker, (self.text,))


def _marker(text: str) -> "_Marker":
    return REPLICATED if text == "*" else SINGLE


#: Replication marker (the paper's ``*``).
REPLICATED = _Marker("*")
#: First-processor marker (the paper's ``1``).
SINGLE = _Marker("1")

Entry = Union[Index, _Marker]


@dataclass(frozen=True)
class Distribution:
    """An n-tuple over the processor dimensions."""

    entries: Tuple[Entry, ...]

    def __post_init__(self) -> None:
        indices = [e for e in self.entries if isinstance(e, Index)]
        if len(indices) != len(set(indices)):
            raise ValueError("an index may appear in at most one position")

    @property
    def ndims(self) -> int:
        return len(self.entries)

    def indices(self) -> Set[Index]:
        return {e for e in self.entries if isinstance(e, Index)}

    def position_of(self, index: Index) -> Optional[int]:
        for d, e in enumerate(self.entries):
            if e == index:
                return d
        return None

    def holds(self, rank: Tuple[int, ...]) -> bool:
        """Whether the processor at ``rank`` stores any data."""
        return all(
            rank[d] == 0
            for d, e in enumerate(self.entries)
            if e is SINGLE
        )

    def holder_count(self, grid: ProcessorGrid) -> int:
        """Number of processors holding (a copy of) data."""
        out = 1
        for d, e in enumerate(self.entries):
            if e is not SINGLE:
                out *= grid.dims[d]
        return out

    def effective(self, array_indices: Sequence[Index]) -> "Distribution":
        """The distribution as seen by an array: tuple indices absent
        from the array act as replication."""
        entries = tuple(
            e
            if not isinstance(e, Index) or e in array_indices
            else REPLICATED
            for e in self.entries
        )
        return Distribution(entries)

    def renamed(
        self, declared: Sequence[Index], use: Sequence[Index]
    ) -> "Distribution":
        """The distribution as a reference ``T(use)`` sees an array that
        was produced as ``T(declared)``: tuple indices are renamed
        position by position, and tuple indices absent from ``declared``
        act as replication."""
        mapping = dict(zip(declared, use))
        return Distribution(
            tuple(
                mapping.get(e, REPLICATED) if isinstance(e, Index) else e
                for e in self.entries
            )
        )

    def local_ranges(
        self,
        array_indices: Sequence[Index],
        rank: Tuple[int, ...],
        grid: ProcessorGrid,
        bindings: Optional[Bindings] = None,
    ) -> Optional[List[Tuple[int, int]]]:
        """Half-open ranges of the array block held at ``rank``, or
        ``None`` when the rank holds nothing."""
        if len(rank) != self.ndims or self.ndims != grid.ndims:
            raise ValueError("rank/distribution/grid dimension mismatch")
        if not self.holds(rank):
            return None
        ranges: List[Tuple[int, int]] = []
        for idx in array_indices:
            d = self.position_of(idx)
            n = idx.extent(bindings)
            if d is None:
                ranges.append((0, n))
            else:
                ranges.append(myrange(rank[d], n, grid.dims[d]))
        return ranges

    def local_size(
        self,
        array_indices: Sequence[Index],
        rank: Tuple[int, ...],
        grid: ProcessorGrid,
        bindings: Optional[Bindings] = None,
    ) -> int:
        """Elements held at ``rank`` (0 when the rank holds nothing)."""
        ranges = self.local_ranges(array_indices, rank, grid, bindings)
        if ranges is None:
            return 0
        out = 1
        for lo, hi in ranges:
            out *= hi - lo
        return out

    def max_local_size(
        self,
        array_indices: Sequence[Index],
        grid: ProcessorGrid,
        bindings: Optional[Bindings] = None,
    ) -> int:
        """Largest per-processor block (the load-balance-relevant size)."""
        return max(
            self.local_size(array_indices, rank, grid, bindings)
            for rank in grid.ranks()
        )

    def ownership_mask(
        self,
        array_indices: Sequence[Index],
        rank: Tuple[int, ...],
        grid: ProcessorGrid,
        bindings: Optional[Bindings] = None,
    ) -> np.ndarray:
        """Boolean mask over the full array: elements held at ``rank``."""
        shape = tuple(i.extent(bindings) for i in array_indices)
        mask = np.zeros(shape, dtype=bool)
        ranges = self.local_ranges(array_indices, rank, grid, bindings)
        if ranges is not None:
            mask[tuple(slice(lo, hi) for lo, hi in ranges)] = True
        return mask

    def __str__(self) -> str:
        inner = ",".join(
            e.name if isinstance(e, Index) else e.text for e in self.entries
        )
        return f"<{inner}>"


def enumerate_distributions(
    array_indices: Sequence[Index],
    grid: ProcessorGrid,
) -> List[Distribution]:
    """All distribution n-tuples for an array on a grid.

    Each position takes one of the array's indices (each used at most
    once), ``*``, or ``1`` -- the paper's ``q = O(m^n)`` tuple space.
    """
    alphabet: List[Entry] = list(dict.fromkeys(array_indices)) + [
        REPLICATED,
        SINGLE,
    ]
    out: List[Distribution] = []
    for combo in itertools.product(alphabet, repeat=grid.ndims):
        indices = [e for e in combo if isinstance(e, Index)]
        if len(indices) != len(set(indices)):
            continue
        out.append(Distribution(tuple(combo)))
    return out


def no_replicate(dist: Distribution) -> bool:
    """The paper's ``NoReplicate`` predicate."""
    return all(e is not REPLICATED for e in dist.entries)
