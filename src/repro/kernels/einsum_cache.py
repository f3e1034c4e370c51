"""Process-wide cache of ``np.einsum_path`` results.

``np.einsum(spec, *ops, optimize=True)`` re-runs the greedy
contraction-path search on **every call** -- for the small-to-moderate
tensors the synthesis system executes at test and serving scale, that
planning overhead rivals or exceeds the arithmetic.  The path depends
only on the subscript spec and the operand signatures, so it is cached
here under ``(spec, (shape, dtype)...)`` and replayed with
``optimize=<path>``.

Replaying an explicitly computed path is **bit-for-bit** identical to
``optimize=True``: numpy resolves ``optimize=True`` to the same greedy
path internally, and the execution machinery is shared.  The reference
executor therefore stays the repository's semantic oracle unchanged;
it just stops re-planning (see ``tests/test_kernels.py`` for the
bit-for-bit assertion).

The cache is a bounded LRU (`maxsize` entries); eviction only costs a
re-plan, never correctness.  It is shared by every thread of the
process -- the serving layer hammers it from a pool -- so all structure
and counter mutation happens under one lock.  The path search itself
runs outside the lock; a race between two threads planning the same key
costs one redundant search, never a wrong path.

Keying includes the operand dtypes, not just shapes: the greedy
optimizer weighs intermediate sizes in *bytes*, so a float32 call may
legitimately pick a different path than a float64 call of the same
shapes -- serving one the other's path would silently change the
cost-model decision (same audit that put dtype into the artifact and
tuning keys).

Keys also carry the **semiring id**: ``np.einsum`` only evaluates the
``plus_times`` algebra, so any other registered semiring dispatches to
:func:`repro.semiring.semiring_einsum` (broadcast-combine-then-reduce)
and its entries must never collide with the classical paths.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "cached_einsum",
    "cached_einsum_path",
    "einsum_path_cache_stats",
    "clear_einsum_path_cache",
]

#: LRU bound; paths are tiny (a list of index pairs), so this is generous.
_MAXSIZE = 4096

_CacheKey = Tuple[str, str, Tuple[Tuple[Tuple[int, ...], str], ...]]
_paths: "OrderedDict[_CacheKey, List]" = OrderedDict()
_hits = 0
_misses = 0
_lock = threading.Lock()


def _signature(operands) -> Tuple[Tuple[Tuple[int, ...], str], ...]:
    return tuple(
        (np.shape(op), np.asarray(op).dtype.str) for op in operands
    )


def cached_einsum_path(
    spec: str, *operands: np.ndarray, semiring: str = "plus_times"
) -> List:
    """The einsum contraction path for ``spec`` on these operands.

    Computed once per ``(spec, semiring, shapes+dtypes)`` via
    ``np.einsum_path`` with the default greedy optimizer (the same one
    ``optimize=True`` uses), then served from the LRU.  Thread-safe.
    """
    global _hits, _misses
    key = (spec, semiring, _signature(operands))
    with _lock:
        path = _paths.get(key)
        if path is not None:
            _paths.move_to_end(key)
            _hits += 1
            return path
        _misses += 1
    # plan outside the lock: the search can be the expensive part, and a
    # duplicate race only re-plans, it cannot produce a wrong entry
    path = np.einsum_path(spec, *operands, optimize=True)[0]
    with _lock:
        _paths[key] = path
        _paths.move_to_end(key)
        while len(_paths) > _MAXSIZE:
            _paths.popitem(last=False)
    return path


def cached_einsum(
    spec: str,
    *operands: np.ndarray,
    out: Optional[np.ndarray] = None,
    semiring: str = "plus_times",
    plan_shapes: Optional[Sequence[Tuple[int, ...]]] = None,
) -> np.ndarray:
    """``np.einsum(spec, *operands, optimize=True)`` without re-planning.

    Numerically identical to the uncached call (same path, same
    execution kernels); the only difference is that the path search runs
    once per operand signature instead of once per call.

    ``plan_shapes`` (one per operand) are the shapes the path is searched
    and keyed at instead of the operands' own: a caller whose operands
    share an axis of data-dependent length (the rows of a sparse step)
    plans once, at a fixed stand-in length, not once per length.

    A non-default ``semiring`` evaluates the same subscript spec under
    that algebra via :func:`repro.semiring.semiring_einsum` (einsum
    itself cannot fold with anything but ``(+, ×)``).
    """
    if semiring != "plus_times":
        from repro.semiring import get_semiring, semiring_einsum

        return semiring_einsum(
            spec, *operands, semiring=get_semiring(semiring), out=out
        )
    planned = operands if plan_shapes is None else [
        np.broadcast_to(np.zeros((), np.asarray(op).dtype), shape)
        for op, shape in zip(operands, plan_shapes)
    ]
    path = cached_einsum_path(spec, *planned, semiring=semiring)
    return np.einsum(spec, *operands, optimize=path, out=out)


def einsum_path_cache_stats() -> Dict[str, int]:
    """``{"entries", "hits", "misses"}`` counters of the process cache."""
    with _lock:
        return {"entries": len(_paths), "hits": _hits, "misses": _misses}


def clear_einsum_path_cache() -> None:
    """Drop all cached paths and reset the counters (test isolation)."""
    global _hits, _misses
    with _lock:
        _paths.clear()
        _hits = 0
        _misses = 0
