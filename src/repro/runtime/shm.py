"""ndarray transport through long-lived shared-memory arenas.

The process backend's control traffic (message kinds, counters, retry
bookkeeping) is tiny, but its *payloads* are ndarrays: tensor boxes on
load, redistribution pieces each superstep, result blocks on gather.
Sending those through a ``multiprocessing.Pipe`` costs a pickle
serialization, a kernel-buffer copy on each side, and a
deserialization.  This module side-loads them instead: the sender
copies each array once into an :class:`Arena` -- a
``multiprocessing.shared_memory`` segment that lives as long as the
worker it serves -- and ships a small picklable descriptor; the
receiver copies the arrays out.

An arena carries **one direction of one worker's wire** and one message
at a time.  That is safe because the protocol above it is strictly
request/reply per worker and the receiver copies before it answers: by
the time a side writes its next message, the other side has finished
reading the previous one.  Copy-on-receive is deliberate: handing out
views over the mapping would pin it for the lifetime of arbitrary
downstream references, while the copy keeps lifetimes trivial and still
removes the serialization entirely.

Lifetime
--------
Every arena is created, replaced and unlinked by the router-side pool
(:class:`repro.runtime.process.SpmdProcessPool`); a worker only attaches
by name.  Creating, attaching and unlinking are the only operations
that talk to CPython's ``resource_tracker`` (attaching registers too,
bpo-39959, into the tracker the worker shares with its parent, where
the name is already present), so a steady-state message touches the
tracker not at all: it is a ``memcpy`` each way.

An arena is as large as the largest message it has carried.  A message
that does not fit is not an error: :func:`pack_message` returns how many
bytes it *needed*, the message rides the pipe that once, and the owner
replaces the arena with a larger one (:meth:`Arena.grown`) -- the next
command names the new segment and the worker re-attaches.

Wire format
-----------
:func:`pack_message` pickles the message with protocol 5 and lets the
pickler do the walking: every contiguous ndarray buffer of at least
``min_bytes`` comes out of band, is copied into the arena at a
64-byte-aligned offset, and the pickle keeps a reference in its place.
The result is ``(spans, body, need)`` -- ``spans[k] = (offset, nbytes)``
of the k-th out-of-band buffer, ``body`` the pickle bytes.
:func:`unpack_message` copies each span out and hands the copies to
``pickle.loads`` as the buffers the arrays are rebuilt on.  Smaller,
non-contiguous and object arrays stay in band, as does everything when
there is no arena (``spans`` is ``None`` and ``body`` is the message).
"""

from __future__ import annotations

import pickle
from typing import Any, List, Optional, Sequence, Tuple

try:  # pragma: no cover - import guard exercised only where shm is absent
    from multiprocessing import shared_memory

    SHM_AVAILABLE = True
except ImportError:  # pragma: no cover
    shared_memory = None  # type: ignore[assignment]
    SHM_AVAILABLE = False

__all__ = [
    "SHM_AVAILABLE",
    "DEFAULT_MIN_BYTES",
    "ARENA_MIN_BYTES",
    "Arena",
    "pack_message",
    "unpack_message",
]

#: Array buffers smaller than this stay in the pickle that rides the pipe.
#: With a resident arena side-loading costs one span and one ``memcpy``
#: each way, about 2.5 us more than pickling a small array in band; the
#: two tie at 8 KiB and the arena wins from 16 KiB up (E19, measured on
#: the arena as CPU cost of pack + pipe + unpack).
DEFAULT_MIN_BYTES = 8192

#: size of a freshly created arena; it grows to the largest message
ARENA_MIN_BYTES = 1 << 16

_ALIGN = 64  # cache-line alignment for each buffer's offset

#: (offset, nbytes) of one out-of-band buffer in an arena
Span = Tuple[int, int]


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


class Arena:
    """One long-lived shared-memory segment (see the module docstring).

    ``Arena(size=n)`` creates a segment of at least ``n`` bytes and owns
    it: :meth:`unlink` destroys it.  ``Arena(name=...)`` attaches to a
    segment somebody else owns: only :meth:`close` applies.
    """

    def __init__(
        self, size: int = ARENA_MIN_BYTES, name: Optional[str] = None
    ) -> None:
        if name is None:
            self._seg = shared_memory.SharedMemory(
                create=True, size=max(size, ARENA_MIN_BYTES)
            )
        else:
            self._seg = shared_memory.SharedMemory(name=name)
        self.name: str = self._seg.name
        self.size: int = self._seg.size

    def write(self, buffers: Sequence[memoryview]) -> Optional[List[Span]]:
        """Copy ``buffers`` in back to back; their spans, or ``None``
        (nothing written) when they do not fit."""
        spans: List[Span] = []
        offset = 0
        for raw in buffers:
            offset = _align(offset)
            spans.append((offset, raw.nbytes))
            offset += raw.nbytes
        if offset > self.size:
            return None
        buf = self._seg.buf
        for raw, (off, nbytes) in zip(buffers, spans):
            buf[off:off + nbytes] = raw
        return spans

    def read(self, spans: Sequence[Span]) -> List[bytearray]:
        """Private copies of the bytes ``spans`` cover."""
        buf = self._seg.buf
        return [bytearray(buf[off:off + nbytes]) for off, nbytes in spans]

    def close(self) -> None:
        """Drop this process's mapping; the segment itself stays."""
        self._seg.close()

    def unlink(self) -> None:
        """Drop the mapping and destroy the segment (owner only)."""
        self._seg.close()
        try:
            self._seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def grown(self, need: int) -> "Arena":
        """A replacement that holds ``need`` bytes; this one is unlinked."""
        fresh = Arena(size=1 << max(need - 1, 1).bit_length())
        self.unlink()
        return fresh


def pack_message(
    obj: Any,
    arena: Optional[Arena],
    min_bytes: int = DEFAULT_MIN_BYTES,
) -> Tuple[Optional[Sequence[Span]], Any, int]:
    """Side-load ``obj``'s large array buffers into ``arena``.

    Returns ``(spans, body, need)`` for the pipe (module docstring).
    Without an arena (the pipe transport) the message travels whole:
    ``(None, obj, 0)``.  A message that does not fit travels whole too,
    and ``need`` says how large an arena would have carried it (0
    otherwise).
    """
    if arena is None:
        return None, obj, 0
    buffers: List[memoryview] = []

    def out_of_band(buffer: pickle.PickleBuffer) -> bool:
        raw = buffer.raw()
        if raw.nbytes < min_bytes:
            return True  # stays in band
        buffers.append(raw)
        return False

    body = pickle.dumps(obj, protocol=5, buffer_callback=out_of_band)
    spans = arena.write(buffers)
    if spans is None:
        return None, obj, sum(_align(raw.nbytes) for raw in buffers)
    return spans, body, 0


def unpack_message(
    spans: Optional[Sequence[Span]], body: Any, arena: Optional[Arena]
) -> Any:
    """Recover the message :func:`pack_message` described."""
    if spans is None:
        return body
    return pickle.loads(body, buffers=arena.read(spans) if spans else ())
