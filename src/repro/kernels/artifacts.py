"""Content-addressed store of compiled kernel artifacts.

Compiling a loop nest costs a compiler fork (tens of milliseconds);
the compiled shared object depends only on the nest IR, the element
dtype, the compiler identity, the flags, and the emitter version -- all
of which hash into the artifact key (:func:`artifact_key`).  An
:class:`ArtifactStore` therefore is a :class:`repro.store.TwoTierStore`
(bounded in-memory LRU over an optional sharded on-disk tier with
atomic, lock-protected publication) of compiled blobs, so a warm
process ``dlopen``\\ s the existing object instead of re-invoking the
compiler -- the same discipline the plan cache applies to search
results and the TuningDB to measurements.

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
from typing import Optional, Tuple

from repro.store import TwoTierStore, content_key

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
    ``compiler`` the compiler identity string (version line + path);
    ``flags`` the exact optimization flags.  The package version rides
    along (:func:`repro.store.content_key`) so an emitter change
    invalidates every stored object.
    """
    return content_key(backend, compiler, dtype, ";".join(flags), nest_ir)


class ArtifactStore(TwoTierStore):
    """Two-tier store of compiled kernel blobs (``<key>.so`` files).

    ``maxsize`` bounds the in-memory entry count; ``directory`` enables
    the persistent tier, where entries live at a real path
    (:meth:`path`) a loader can ``dlopen`` directly.
    """

    suffix = ".so"

    def put(self, key: str, blob: bytes) -> None:
        """Store compiled bytes followed by their seal (in both tiers,
        so a memory hit is checked like a disk hit)."""
        super().put(key, blob + _SEAL + hashlib.sha256(blob).digest())

    def get(self, key: str) -> Optional[Tuple[bytes, str]]:
        """``(blob, tier)`` for a stored artifact, else ``None``.

        The blob is loadable as stored (seal included).  An entry whose
        seal does not match its bytes -- truncated, garbled, or written
        by something else -- raises :class:`DamagedArtifact`; the caller
        decides to :meth:`discard` it (which counts it ``stale``).
        """
        found = super().get(key)
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
        """The loadable on-disk path of ``key`` if the disk tier has it."""
        if self.directory is None:
            return None
        path = self.path(key)
        return path if os.path.exists(path) else None
