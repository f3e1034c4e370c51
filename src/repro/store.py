"""The shared two-tier (memory LRU + on-disk) content-addressed store.

This is the one module that knows how a cache entry is keyed and
trusted.  :func:`content_key` is the only key builder (sha256 over the
package version and the caller's fields);
:class:`~repro.runtime.plan_cache.PlanCache`,
:class:`~repro.autotune.db.TuningDB` and
:class:`~repro.kernels.artifacts.ArtifactStore` are subclasses of
:class:`TwoTierStore` that state only *what* a blob means -- their file
suffix, their codec (:meth:`~TwoTierStore.encode` /
:meth:`~TwoTierStore.decode`: pickle, canonical JSON, bytes as sealed
by the artifact store's ``put``) and their validator
(:meth:`~TwoTierStore.current`) -- while the mechanics live here:

* **LRU memory tier** -- *decoded* values keyed by hex digest (the
  value :meth:`~TwoTierStore.put` was given, or the one a disk hit
  decoded), least recently used entries evicted beyond ``maxsize``;
  hits refresh recency.  A memory hit decodes nothing and returns the
  stored object itself, so callers treat values as read-only.
* **Sharded disk tier** -- keys fan out into ``directory/<key[:2]>/``
  subdirectories (256-way), so a serving deployment writing tens of
  thousands of plans never piles them into one directory.
* **Atomic, locked publication** -- a writer stakes a ``<key>.lock``
  file with ``O_EXCL``, writes a temporary file, and ``os.replace``\\ s
  it over the canonical path, so concurrent server workers and CLI
  processes can share one directory without torn or duplicated writes.
  Because keys are content-addressed, a writer that loses the lock race
  simply skips publication: the winner is writing identical bytes.
  Locks abandoned by a crashed writer are broken after
  ``lock_timeout_s``.
* **Corruption discipline** -- a disk entry that cannot be read or
  decoded, or that decodes to something :meth:`~TwoTierStore.current`
  rejects (another release, another machine), is removed, read as a
  miss and counted ``stale``: damage is never silent, whichever cache
  it hit.

All operations are thread-safe: the serving layer synthesizes in
executor threads that share one store.  One lock guards the memory
tier and the counters; file reads, decodes and writes happen outside
it, so one request's disk hit never stalls another's memory hit.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import threading
import time
from collections import OrderedDict
from typing import Dict, Optional, Tuple

__all__ = ["TwoTierStore", "content_key", "SHARD_CHARS"]

#: leading hex digits of the key that name the fan-out subdirectory
SHARD_CHARS = 2

_ABSENT = object()


def content_key(*fields: str) -> str:
    """The content-addressed key of ``fields``: sha256 over the package
    version and every field.  The version rides along so an upgrade --
    a compiler that may plan, tune or emit differently -- invalidates
    every stored entry."""
    from repro import __version__

    payload = "\n".join((__version__,) + fields)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TwoTierStore:
    """Bounded in-memory LRU over an optional sharded disk directory.

    Stores raw bytes as is; a subclass names its entry files
    (:attr:`suffix`) and overrides :meth:`encode` / :meth:`decode` /
    :meth:`current` to say what its values are and when a stored one
    may still be used.  The memory tier keeps values, the disk tier
    their encoding.  Counters (``hits``/``memory_hits``/
    ``disk_hits``/``misses``/``stale``/``evictions``) accumulate across
    the store's lifetime and are snapshotted by :meth:`stats`.
    """

    #: entry files are named ``<key><suffix>``
    suffix = ".bin"

    def __init__(
        self,
        maxsize: int = 128,
        directory: Optional[str] = None,
        *,
        lock_timeout_s: float = 60.0,
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.directory = directory
        self.lock_timeout_s = lock_timeout_s
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
        self._memory: "OrderedDict[str, object]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stale = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    # -- what a subclass states ----------------------------------------------

    def encode(self, value) -> bytes:
        """The bytes stored for ``value``."""
        return value

    def decode(self, blob: bytes):
        """The value of stored bytes; raising marks the entry corrupt."""
        return blob

    def current(self, value, **expect) -> bool:
        """Whether a decoded value may be served to a caller passing
        ``expect`` to :meth:`get`."""
        return True

    def path(self, key: str) -> str:
        """Disk path of ``key`` (sharded by its leading digits)."""
        return os.path.join(
            self.directory, key[:SHARD_CHARS], f"{key}{self.suffix}"
        )

    # -- read path ---------------------------------------------------------

    def get(self, key: str, **expect) -> Optional[Tuple[object, str]]:
        """``(value, tier)`` for a stored key, else ``None``.

        ``tier`` is ``"memory"`` (the stored value itself) or
        ``"disk"`` (decoded from the file, then kept in memory).  An
        entry that :meth:`current` rejects, and a disk entry that cannot
        be read or decoded, is dropped from its tier and counted
        ``stale``.
        """
        with self._lock:
            value = self._memory.get(key, _ABSENT)
            if value is not _ABSENT:
                if self.current(value, **expect):
                    self._memory.move_to_end(key)
                    self.hits += 1
                    self.memory_hits += 1
                    return value, "memory"
                del self._memory[key]
                self.stale += 1
                self.misses += 1
                return None
        if self.directory is not None:
            found = self._read_disk(key, expect)
            if found is not None:
                return found
        with self._lock:
            self.misses += 1
        return None

    def _read_disk(self, key, expect):
        """One disk probe; counts its own hit/stale.  The read and the
        decode run outside the lock, only the bookkeeping under it."""
        path = self.path(key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
            value = self.decode(blob)
            usable = self.current(value, **expect)
        except FileNotFoundError:
            return None
        except Exception:
            # unreadable, undecodable, or not the shape current() reads
            usable = False
        if not usable:
            with self._lock:
                self.stale += 1
            self._remove_file(path)
            return None
        with self._lock:
            self._store_memory(key, value)
            self.hits += 1
            self.disk_hits += 1
        return value, "disk"

    @staticmethod
    def _remove_file(path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass

    # -- write path --------------------------------------------------------

    def put(self, key: str, value) -> None:
        """Store ``value`` under ``key``: itself in memory, encoded on
        disk."""
        with self._lock:
            self._store_memory(key, value)
        if self.directory is not None:
            self._publish(key, self.encode(value))

    def _store_memory(self, key: str, value) -> None:
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.maxsize:
            self._memory.popitem(last=False)
            self.evictions += 1

    def _publish(self, key: str, blob: bytes) -> bool:
        """Atomically write the disk entry; ``False`` when another
        writer holds the key's lock (their bytes are identical -- keys
        are content-addressed -- so skipping is correct)."""
        path = self.path(key)
        shard = os.path.dirname(path)
        try:
            os.makedirs(shard, exist_ok=True)
        except OSError:  # pragma: no cover - permissions/disk full
            return False
        lock = os.path.join(shard, f"{key}.lock")
        for attempt in (0, 1):
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if attempt or not self._break_stale_lock(lock):
                    return False
                continue
            except OSError:  # pragma: no cover - defensive
                return False
            os.close(fd)
            try:
                tmp_fd, tmp = tempfile.mkstemp(
                    dir=shard, suffix=f"{self.suffix}.tmp"
                )
                try:
                    with os.fdopen(tmp_fd, "wb") as handle:
                        handle.write(blob)
                    os.replace(tmp, path)
                except OSError:  # pragma: no cover - disk full etc.
                    self._remove_file(tmp)
                    return False
            finally:
                self._remove_file(lock)
            return True
        return False  # pragma: no cover - loop always returns

    def _break_stale_lock(self, lock: str) -> bool:
        """Remove a lock left behind by a crashed writer; ``True`` when
        the caller should retry acquisition."""
        try:
            age = time.time() - os.path.getmtime(lock)
        except OSError:
            return True  # lock vanished: the other writer finished
        if age < self.lock_timeout_s:
            return False  # live writer: let it win
        self._remove_file(lock)
        return True

    # -- maintenance -------------------------------------------------------

    def discard(self, key: str) -> None:
        """Drop ``key`` from both tiers, counted ``stale``: its bytes
        decoded but the caller found them unusable."""
        with self._lock:
            self._memory.pop(key, None)
            self.stale += 1
        if self.directory is not None:
            self._remove_file(self.path(key))

    def clear(self, disk: bool = False) -> None:
        """Drop the memory tier (and the disk tier with ``disk=True``)."""
        with self._lock:
            self._memory.clear()
        if disk and self.directory is not None:
            for dirpath, _, files in os.walk(self.directory):
                for entry in files:
                    if entry.endswith(self.suffix):
                        self._remove_file(os.path.join(dirpath, entry))

    def stats(self) -> Dict[str, int]:
        """Snapshot of the store's counters and occupancy."""
        with self._lock:
            return {
                "memory_entries": len(self._memory),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "memory_hits": self.memory_hits,
                "disk_hits": self.disk_hits,
                "misses": self.misses,
                "stale": self.stale,
                "evictions": self.evictions,
            }

    def describe(self) -> str:
        tiers = f"memory[{len(self._memory)}/{self.maxsize}]"
        if self.directory is not None:
            tiers += f" + disk[{self.directory}]"
        return (
            f"{type(self).__name__}({tiers}): {self.hits} hits "
            f"({self.memory_hits} memory, {self.disk_hits} disk), "
            f"{self.misses} misses ({self.stale} stale), "
            f"{self.evictions} evictions"
        )
