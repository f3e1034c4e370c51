"""Content-addressed store of compiled kernel artifacts.

Compiling a loop nest costs a compiler fork (tens of milliseconds for
``cc``) or a JIT warm-up; the compiled shared object depends only on
the nest IR, the element dtype, the backend and compiler identity, the
flags, and the emitter version -- all of which hash into the artifact
key (:func:`artifact_key`).  An :class:`ArtifactStore` therefore keeps
compiled blobs in a :class:`repro.store.TwoTierStore` (bounded
in-memory LRU over an optional sharded on-disk tier with atomic,
lock-protected publication) so a warm process ``dlopen``\\ s/loads the
existing object instead of re-invoking the compiler -- the same
discipline the plan cache applies to search results and the TuningDB
to measurements.

Keying discipline (the lesson of the einsum-cache dtype audit): the
key includes **everything the produced bytes depend on**.  A float32
nest never serves a float64 caller, and upgrading the compiler -- which
may change codegen -- changes every key, so stale objects can never be
loaded; they simply stop being addressed and age out of the LRU/disk.

Loading a shared object needs a real file path, not bytes: hits on the
disk tier are loaded in place (the store's canonical path), while
memory-tier hits are spilled to the caller's scratch directory first.
That mechanic lives with the engine (:mod:`repro.kernels.native`); this
module decides identity, storage and integrity.

Integrity: the dynamic loader trusts a file's headers, so a truncated
object is not an error from ``dlopen`` but a SIGBUS inside it.  Every
stored blob therefore ends in a *seal* -- a tag and the sha256 of the
bytes before it, which the loader ignores like any trailing data -- and
:meth:`ArtifactStore.get` hands out only bytes whose seal matches: a
damaged entry is reported as :class:`DamagedArtifact`, so the engine
evicts and recompiles it instead of loading it.
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, Optional, Tuple

from repro.store import TwoTierStore

__all__ = ["ArtifactStore", "DamagedArtifact", "artifact_key"]

#: tag of the seal that ends every stored blob (then 32 digest bytes)
_SEAL = b"\nrepro-artifact-sha256:"


class DamagedArtifact(Exception):
    """A stored artifact whose bytes are no longer the bytes stored."""


def artifact_key(
    nest_ir: str,
    dtype: str,
    backend: str,
    compiler: str,
    flags: Tuple[str, ...] = (),
) -> str:
    """sha256 of everything the compiled bytes depend on.

    ``nest_ir`` is the deterministic nest text
    (:func:`repro.codegen.cgen.render_nest_ir`); ``dtype`` the numpy
    dtype str (``'<f8'``); ``backend`` the engine backend name;
    ``compiler`` the compiler identity string (version line + path for
    ``cc``, the numba version for the JIT); ``flags`` the exact
    optimization flags.  The package version rides along so an emitter
    change invalidates every stored object.
    """
    from repro import __version__

    payload = "\n".join(
        [__version__, backend, compiler, dtype, ";".join(flags), nest_ir]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ArtifactStore:
    """Two-tier store of compiled kernel blobs (``<key>.so`` files).

    ``maxsize`` bounds the in-memory entry count; ``directory`` enables
    the persistent tier, where entries live at a real path
    (:meth:`path`) a loader can ``dlopen`` directly.
    """

    def __init__(
        self, maxsize: int = 256, directory: Optional[str] = None
    ) -> None:
        self._store = TwoTierStore(maxsize, directory, suffix=".so")

    def __len__(self) -> int:
        return len(self._store)

    @property
    def directory(self) -> Optional[str]:
        return self._store.directory

    @property
    def maxsize(self) -> int:
        return self._store.maxsize

    def path(self, key: str) -> str:
        """Canonical on-disk path of ``key`` (sharded; disk tier only)."""
        return self._store.path(key)

    def get(self, key: str) -> Optional[Tuple[bytes, str]]:
        """``(blob, tier)`` for a stored artifact, else ``None``.

        The blob is loadable as stored (seal included).  An entry whose
        seal does not match its bytes -- truncated, garbled, or written
        by something else -- raises :class:`DamagedArtifact`; the caller
        decides to :meth:`discard` it.
        """
        found = self._store.get(key)
        if found is None:
            return None
        blob = memoryview(found[0])
        body, tag = blob[: -len(_SEAL) - 32], blob[-len(_SEAL) - 32: -32]
        if tag != _SEAL or hashlib.sha256(body).digest() != blob[-32:]:
            raise DamagedArtifact(
                f"{len(blob)} stored bytes do not match their seal"
            )
        return found

    def disk_path(self, key: str) -> Optional[str]:
        """The loadable on-disk path of ``key`` if the disk tier has it.

        Prefers the canonical sharded path, honouring legacy flat
        layouts like every other store reader.
        """
        if self.directory is None:
            return None
        for path in (self._store.path(key), self._store._legacy_path(key)):
            if os.path.exists(path):
                return path
        return None

    def put(self, key: str, blob: bytes) -> None:
        """Seal compiled bytes and store them under ``key`` in both
        tiers."""
        self._store.put(key, blob + _SEAL + hashlib.sha256(blob).digest())

    def discard(self, key: str) -> None:
        """Drop ``key`` from both tiers (the next :meth:`put`
        republishes it)."""
        self._store.discard(key)

    def stats(self) -> Dict[str, int]:
        """Counter snapshot (hits per tier, misses, evictions)."""
        return self._store.stats()

    def clear(self, disk: bool = False) -> None:
        """Drop the memory tier (and the disk tier with ``disk=True``)."""
        self._store.clear(disk=disk)

    def describe(self) -> str:
        return self._store.describe("ArtifactStore")
