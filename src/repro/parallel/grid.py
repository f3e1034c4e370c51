"""Logical processor grids.

The paper views the machine as an n-dimensional grid of
``p_1 x p_2 x ... x p_n`` processors.  Array dimensions distributed
along a processor dimension are split into contiguous blocks by
``myrange``: processor coordinate ``z`` (0-based here; the paper is
1-based) owns rows ``z*N/p .. (z+1)*N/p`` of an N-extent dimension.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Tuple


def myrange(z: int, n: int, p: int) -> Tuple[int, int]:
    """Half-open block range of coordinate ``z`` for extent ``n`` over
    ``p`` processors (the paper's ``myrange``, 0-based).

    Blocks are balanced: the first ``n % p`` processors get one extra
    element.
    """
    if not 0 <= z < p:
        raise ValueError(f"coordinate {z} out of range for {p} processors")
    base, extra = divmod(n, p)
    start = z * base + min(z, extra)
    size = base + (1 if z < extra else 0)
    return start, start + size


@dataclass(frozen=True)
class ProcessorGrid:
    """An n-dimensional grid with extents ``dims``."""

    dims: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.dims:
            raise ValueError("grid needs at least one dimension")
        if any(p <= 0 for p in self.dims):
            raise ValueError("grid extents must be positive")

    @classmethod
    def parse(cls, spec: "int | str") -> "ProcessorGrid":
        """The grid a command line or a request writes: a processor
        count (``4``) or extents joined by ``x`` (``"2x2x2"``).  Anything
        else is a :class:`ValueError` quoting it."""
        if isinstance(spec, str):
            try:
                return cls(tuple(int(p) for p in spec.lower().split("x")))
            except ValueError as exc:
                raise ValueError(
                    f"bad grid {spec!r}: use forms like 4 or 2x2x2"
                ) from exc
        if isinstance(spec, int):
            return cls((spec,))
        raise ValueError(
            "grid must be an int or a string like '2x2', "
            f"got {type(spec).__name__}"
        )

    @property
    def ndims(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        out = 1
        for p in self.dims:
            out *= p
        return out

    def ranks(self) -> Iterator[Tuple[int, ...]]:
        """All processor coordinate tuples, lexicographic order."""
        return itertools.product(*(range(p) for p in self.dims))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "x".join(str(p) for p in self.dims)
