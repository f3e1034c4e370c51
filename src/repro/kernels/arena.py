"""Buffer arena: shape/dtype-keyed ndarray reuse.

Executing a formula sequence allocates the same intermediate and output
arrays on every run.  The arena turns those allocations into pool hits:
``take(shape, dtype)`` pops a previously released buffer of the exact
``(shape, dtype)`` key (or allocates one on first demand), ``release``
returns it.  :class:`~repro.kernels.plan.KernelRunner` takes statement
outputs, GEMM products and pack scratch from here and releases
temporaries at their last-use statement (liveness comes from the
compiled plan), so the steady state of a repeated execution performs
**zero** array allocations -- asserted by ``tests/test_kernels.py``.
A temporary may be held as a view of its buffer -- a GEMM product
published reshaped, un-permuted or transposed (a tall product lives in
an ``(N, M)`` buffer) -- and ``release`` accepts the view: it pools the
base buffer under the base's own key.

Buffers come back uninitialized (``np.empty`` semantics): every kernel
writes its full output (``out=`` / ``copyto``), never reads one.
A disabled arena (``BufferArena(enabled=False)``) degrades to plain
allocation, which keeps the runner usable where buffer retention is
undesirable.

The arena is **single-threaded by design** (free-list pops and counter
updates are unsynchronized), and that contract is now *enforced*: the
arena binds to the first thread that takes a buffer, and any take or
release from another thread while buffers are outstanding raises a
structured :class:`~repro.robustness.errors.ReproError` instead of
silently corrupting the pool.  When nothing is outstanding the arena
rebinds to the calling thread, so a runner built on one thread and
driven from another (the server's executor threads) keeps working --
what is forbidden is *concurrent* use from inside a parallel region;
nest-level parallelism belongs to the compiled kernels
(:mod:`repro.kernels.native`), which never touch the arena.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.robustness.errors import ReproError

__all__ = ["BufferArena"]


class BufferArena:
    """Exact-key (shape, dtype) free-list pool of ndarrays."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._free: Dict[Tuple[Tuple[int, ...], str], List[np.ndarray]] = {}
        #: fresh ``np.empty`` calls (pool misses)
        self.allocations = 0
        #: ``take`` calls served from the free list
        self.reuses = 0
        #: buffers currently parked in the free list
        self.pooled = 0
        #: buffers taken and not yet released (leak detector: a runner
        #: that unwinds cleanly leaves this at its pre-run value)
        self.outstanding = 0
        #: ident of the thread the arena is currently bound to
        self._owner: Optional[int] = None

    def _guard(self, op: str) -> None:
        """Enforce the single-threaded contract (see module docstring)."""
        me = threading.get_ident()
        if self._owner is None or self._owner == me:
            self._owner = me
            return
        if self.outstanding == 0:
            # quiescent: safe to hand the whole arena to a new thread
            self._owner = me
            return
        raise ReproError(
            f"BufferArena.{op} from thread {me} while thread "
            f"{self._owner} holds {self.outstanding} outstanding "
            "buffer(s): the arena is single-threaded; drive each "
            "KernelRunner from one thread (nest parallelism lives in "
            "the compiled kernels, not the arena)",
            stage="execution",
            op=op,
            outstanding=self.outstanding,
        )

    @staticmethod
    def _key(shape: Tuple[int, ...], dtype) -> Tuple[Tuple[int, ...], str]:
        return (tuple(shape), np.dtype(dtype).str)

    def take(self, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A writable C-contiguous buffer of exactly ``shape``/``dtype``.

        Contents are undefined (like ``np.empty``); callers overwrite.
        """
        self._guard("take")
        self.outstanding += 1
        if self.enabled:
            stack = self._free.get(self._key(shape, dtype))
            if stack:
                self.reuses += 1
                self.pooled -= 1
                return stack.pop()
        self.allocations += 1
        return np.empty(tuple(shape), dtype=dtype)

    def release(self, array: np.ndarray) -> None:
        """Return a buffer to the pool (no-op when disabled).

        Only buffers obtained from :meth:`take` should come back; the
        caller must not touch the array afterwards.
        """
        self._guard("release")
        self.outstanding -= 1
        if not self.enabled:
            return
        base = array if array.base is None else array.base
        if not isinstance(base, np.ndarray) or not base.flags.c_contiguous:
            return  # not something we can safely hand out again
        self._free.setdefault(self._key(base.shape, base.dtype), []).append(
            base
        )
        self.pooled += 1

    def clear(self) -> None:
        """Drop every pooled buffer (frees the memory to the allocator)."""
        self._free.clear()
        self.pooled = 0

    def describe(self) -> str:
        return (
            f"BufferArena({'on' if self.enabled else 'off'}): "
            f"{self.allocations} allocations, {self.reuses} reuses, "
            f"{self.pooled} pooled, {self.outstanding} outstanding"
        )
