"""Index ranges and loop indices.

The paper's computations are multi-dimensional summations whose loop
indices each run over a named *range*.  In the quantum-chemistry setting
there are two important ranges: occupied orbitals (``O``, 30-100) and
unoccupied/virtual orbitals (``V``, 1000-3000).  An :class:`IndexRange`
carries a name and a default extent; an :class:`Index` is a loop variable
bound to a range.

Extents are resolved through *bindings* -- a mapping from range name to a
concrete integer -- so the same program can be analyzed at paper scale
(``{"V": 3000, "O": 100}``) and executed at test scale
(``{"V": 8, "O": 4}``) without rebuilding the AST.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence

#: Mapping from range name to concrete extent, e.g. ``{"V": 3000, "O": 100}``.
Bindings = Mapping[str, int]


@dataclass(frozen=True, order=True)
class IndexRange:
    """A named iteration range with a default extent.

    Parameters
    ----------
    name:
        Range identifier, e.g. ``"V"`` or ``"O"``.
    default:
        Extent used when no binding overrides it.
    """

    name: str
    default: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("IndexRange name must be non-empty")
        if self.default < 0:
            raise ValueError(
                f"IndexRange {self.name!r} default extent must be >= 0, "
                f"got {self.default}"
            )

    def extent(self, bindings: Optional[Bindings] = None) -> int:
        """Resolve the concrete extent of this range.

        ``bindings`` takes precedence over the declared default.  A range
        with no default and no binding is an error: analysis needs a
        number.
        """
        if bindings is not None and self.name in bindings:
            value = bindings[self.name]
            if value <= 0:
                raise ValueError(
                    f"binding for range {self.name!r} must be positive, got {value}"
                )
            return value
        if self.default <= 0:
            raise ValueError(
                f"range {self.name!r} has no default extent and no binding"
            )
        return self.default

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}={self.default}"


@dataclass(frozen=True, order=True)
class Index:
    """A loop index bound to an :class:`IndexRange`.

    Two indices are interchangeable loop variables iff they compare equal;
    equality includes the range so that ``a:V`` and ``a:O`` are distinct
    (the parser prevents such shadowing anyway).
    """

    name: str
    range: IndexRange

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("Index name must be non-empty")

    def extent(self, bindings: Optional[Bindings] = None) -> int:
        """Concrete trip count of loops over this index."""
        return self.range.extent(bindings)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def extent(index: Index, bindings: Optional[Bindings] = None) -> int:
    """Functional alias for :meth:`Index.extent`."""
    return index.extent(bindings)


def total_extent(indices: Iterable[Index], bindings: Optional[Bindings] = None) -> int:
    """Product of the extents of ``indices``.

    This is the iteration-space volume of a loop nest over the given
    indices, and equally the element count of an array dimensioned by
    them.  The empty product is 1 (a scalar).
    """
    result = 1
    for idx in indices:
        result *= idx.extent(bindings)
    return result


def make_indices(names: Iterable[str], rng: IndexRange) -> Dict[str, Index]:
    """Create a name->Index mapping for several indices over one range."""
    return {name: Index(name, rng) for name in names}


def einsum_letters(indices: Sequence[Index]) -> Dict[Index, str]:
    """Assign each index a distinct ``numpy.einsum`` subscript letter.

    The shared label table of every einsum-emitting backend
    (:mod:`repro.engine.executor`, :mod:`repro.kernels.plan`).  einsum
    subscripts only have ``a-zA-Z`` available, so a statement touching
    more than 52 distinct indices cannot be expressed; that limit is
    checked here so all backends fail with the same explicit
    :class:`ValueError` instead of a raw ``IndexError`` from the letter
    lookup.
    """
    letters = string.ascii_letters
    if len(indices) > len(letters):
        raise ValueError(
            f"too many distinct indices for einsum labels "
            f"({len(indices)} > {len(letters)} available subscripts)"
        )
    return {idx: letters[k] for k, idx in enumerate(indices)}
