"""Synthetic two-electron integral evaluations.

The paper's ``f1``/``f2`` compute antisymmetrized integrals
``<cb||ek>`` at a cost :math:`C_i` of hundreds to a few thousand
arithmetic operations per element.  We cannot evaluate real Gaussian
integrals here (and do not need to: only the *cost* and determinism
matter for the optimization framework), so this module provides a
deterministic pseudo-random stand-in:

* values are a hash-style mix of the integer coordinates, reproducible
  across calls and vectorizable over numpy index grids;
* the *declared* cost ``C_i`` is carried by the function tensor and is
  charged by every cost model and counter; the Python implementation
  itself is O(1).

This is the substitution documented in DESIGN.md: the framework's
space-time trade-offs depend only on the ratio of :math:`C_i` to
contraction work, which is preserved exactly.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, Sequence

import numpy as np

#: Mixing constants (shader-style hash; any irrational-ish values work).
_WEIGHTS = (12.9898, 78.233, 37.719, 93.989, 26.651, 61.417)


def make_integral(name: str, seed: int = 0) -> Callable[..., np.ndarray]:
    """A deterministic integral-value function of integer coordinates.

    Works elementwise on scalars and broadcasts over numpy arrays, so it
    serves both the reference executor (grid evaluation) and the loop
    interpreter (scalar calls).  Values lie in (-1, 1).
    """
    # crc32, not hash(): str hashes are salted per process
    offset = (zlib.crc32(name.encode()) % 1000) * 0.017 + seed * 0.31

    def integral(*coords) -> np.ndarray:
        acc = offset
        for k, c in enumerate(coords):
            acc = acc + np.asarray(c, dtype=np.float64) * _WEIGHTS[k % len(_WEIGHTS)]
        value = np.sin(acc) * 43758.5453
        return value - np.floor(value) - 0.5

    integral.__name__ = f"integral_{name}"
    return integral


def integral_table(names: Sequence[str], seed: int = 0) -> Dict[str, Callable]:
    """Implementations for several integral functions."""
    return {name: make_integral(name, seed) for name in names}
