"""Runtime support for generated SPMD programs.

Generated rank programs (see :mod:`repro.parallel.spmd`) import these
helpers the way a real generated MPI code would link a communication
runtime.  Everything here is rank-local arithmetic on *boxes* --
per-dimension half-open ranges describing the region of a global array
a rank holds.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.parallel.grid import myrange

Box = Tuple[Tuple[int, int], ...]


def region(
    rank: Sequence[int],
    entry_positions: Sequence[Optional[int]],
    extents: Sequence[int],
    grid_dims: Sequence[int],
) -> Box:
    """The box of the array a rank holds under a distribution.

    ``entry_positions[k]`` is the processor dimension the k-th array
    dimension is distributed on (None = undistributed).
    """
    out = []
    for pos, n in zip(entry_positions, extents):
        if pos is None:
            out.append((0, n))
        else:
            out.append(myrange(rank[pos], n, grid_dims[pos]))
    return tuple(out)


def holds(rank: Sequence[int], single_dims: Sequence[int]) -> bool:
    """Whether a rank holds data: coordinate 0 on every '1' dimension."""
    return all(rank[d] == 0 for d in single_dims)


def canonical_sender(rank: Sequence[int], dedup_dims: Sequence[int]) -> bool:
    """Among replicas, only the coordinate-0 holder sends."""
    return all(rank[d] == 0 for d in dedup_dims)


def box_volume(box: Box) -> int:
    out = 1
    for lo, hi in box:
        out *= max(0, hi - lo)
    return out


def box_intersect(a: Box, b: Box) -> Box:
    return tuple(
        (max(alo, blo), min(ahi, bhi)) for (alo, ahi), (blo, bhi) in zip(a, b)
    )


def box_empty(box: Box) -> bool:
    return any(hi <= lo for lo, hi in box)


def box_difference(a: Box, b: Box) -> List[Box]:
    """Decompose ``a \\ b`` into disjoint boxes (at most 2 per dim)."""
    inter = box_intersect(a, b)
    if box_empty(inter):
        return [a] if not box_empty(a) else []
    pieces: List[Box] = []
    current = list(a)
    for d, ((alo, ahi), (ilo, ihi)) in enumerate(zip(a, inter)):
        if alo < ilo:
            piece = list(current)
            piece[d] = (alo, ilo)
            pieces.append(tuple(piece))
        if ihi < ahi:
            piece = list(current)
            piece[d] = (ihi, ahi)
            pieces.append(tuple(piece))
        current[d] = (max(alo, ilo), min(ahi, ihi))
    return [p for p in pieces if not box_empty(p)]


def take(entry, perm: Sequence[int], box: Box) -> np.ndarray:
    """The piece ``box`` of a tensor, read out of a table entry.

    ``entry`` is what ``arrays[name]`` holds: a ``(held_box, block)``
    pair in the tensor's declared axis order and global coordinates (the
    box the router shipped, or a block a statement left resident), or a
    plain ndarray standing for its whole box.  ``perm[k]`` is the
    declared axis behind dimension ``k`` of ``box``; the result is a
    private float64 copy in ``box``'s axis order.
    """
    if isinstance(entry, tuple):
        held, block = entry
    else:
        block = np.asarray(entry)
        held = tuple((0, n) for n in block.shape)
    sel = tuple(
        slice(lo - held[p][0], hi - held[p][0])
        for p, (lo, hi) in zip(perm, box)
    )
    return np.ascontiguousarray(
        np.transpose(block, perm)[sel], dtype=np.float64
    )


def paste(target: np.ndarray, target_box: Box, piece_box: Box, piece) -> None:
    """Write a piece (given in global coordinates) into a local block
    whose global region is ``target_box``."""
    sel = tuple(
        slice(plo - tlo, phi - tlo)
        for (plo, phi), (tlo, thi) in zip(piece_box, target_box)
    )
    target[sel] = piece


def extract(block: np.ndarray, block_box: Box, piece_box: Box) -> np.ndarray:
    """Read a global-coordinate piece out of a local block."""
    sel = tuple(
        slice(plo - blo, phi - blo)
        for (plo, phi), (blo, bhi) in zip(piece_box, block_box)
    )
    return np.ascontiguousarray(block[sel])
