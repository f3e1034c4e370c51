"""The shared two-tier store (memory LRU + sharded on-disk tier).

All three content-addressed caches (the plan cache, the tuning database
and the artifact store) are :class:`repro.store.TwoTierStore`
subclasses; these tests pin down the store's own contract -- sharded
fanout layout, atomic + locked publication, LRU behavior, the counters
the serving layer surfaces -- and that a damaged or out-of-date disk
entry of any of the three is a clean, counted miss.
"""

from __future__ import annotations

import threading
from pathlib import Path

import pytest

from repro import __version__
from repro.autotune.db import TuningDB
from repro.kernels.artifacts import ArtifactStore, DamagedArtifact
from repro.pipeline import RESULT_VERSION, SynthesisResult
from repro.runtime.plan_cache import PlanCache
from repro.store import TwoTierStore


def _keys(n, prefix=""):
    return [f"{prefix}{i:02d}{'ab' * 31}" for i in range(n)]


class TestMemoryTier:
    def test_round_trip(self):
        store = TwoTierStore(maxsize=4)
        store.put("deadbeef", b"payload")
        value, tier = store.get("deadbeef")
        assert value == b"payload"
        assert tier == "memory"

    def test_miss_returns_none(self):
        store = TwoTierStore(maxsize=4)
        assert store.get("deadbeef") is None
        assert store.misses == 1

    def test_lru_eviction_order(self):
        store = TwoTierStore(maxsize=2)
        a, b, c = _keys(3)
        store.put(a, b"a")
        store.put(b, b"b")
        store.get(a)  # refresh a; b is now least recent
        store.put(c, b"c")
        assert store.evictions == 1
        assert store.get(b) is None  # evicted (no disk tier)
        assert store.get(a) is not None
        assert store.get(c) is not None

    def test_decode_applies(self, tmp_path):
        """The memory tier keeps values; decode turns disk bytes into
        one, once, and the promoted value is what later hits share."""

        class IntStore(TwoTierStore):
            def encode(self, value):
                return str(value).encode()

            def decode(self, blob):
                return int(blob)

        IntStore(maxsize=4, directory=tmp_path).put("k", 123)
        store = IntStore(maxsize=4, directory=tmp_path)
        assert store.get("k") == (123, "disk")
        assert store.get("k") == (123, "memory")

    def test_memory_hit_is_the_stored_object(self):
        """No decode on a memory hit: every hit returns the value put."""
        value = {"decoded": ["once"]}
        store = TwoTierStore(maxsize=4)
        store.put("k", value)
        assert store.get("k")[0] is value
        assert store.get("k")[0] is value


class TestDiskTier:
    def test_sharded_layout(self, tmp_path):
        store = TwoTierStore(maxsize=4, directory=tmp_path)
        store.put("cafef00d", b"x")
        expected = tmp_path / "ca" / "cafef00d.bin"
        assert expected.is_file()
        assert expected.read_bytes() == b"x"

    def test_disk_hit_after_memory_eviction(self, tmp_path):
        store = TwoTierStore(maxsize=1, directory=tmp_path)
        a, b = _keys(2)
        store.put(a, b"a")
        store.put(b, b"b")  # evicts a from memory; disk keeps it
        value, tier = store.get(a)
        assert value == b"a"
        assert tier == "disk"
        assert store.disk_hits == 1
        # a disk hit repopulates the memory tier
        _, tier = store.get(a)
        assert tier == "memory"

    def test_fresh_instance_reads_other_instances_files(self, tmp_path):
        first = TwoTierStore(maxsize=4, directory=tmp_path)
        first.put("feedface", b"shared")
        second = TwoTierStore(maxsize=4, directory=tmp_path)
        value, tier = second.get("feedface")
        assert value == b"shared"
        assert tier == "disk"

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        class Strict(TwoTierStore):
            def decode(self, blob):
                if not blob:
                    raise ValueError("corrupt")
                return blob

        store = Strict(maxsize=1, directory=tmp_path)
        a, b = _keys(2)
        store.put(a, b"good")
        store.put(b, b"spill")  # push a out of memory
        path = Path(store.path(a))
        path.write_bytes(b"")
        assert store.get(a) is None
        assert not path.exists(), "corrupt file must be removed"
        assert (store.misses, store.stale) == (1, 1)

    def test_stale_entry_is_a_miss(self, tmp_path):
        class Outdated(TwoTierStore):
            def current(self, value):
                return False

        store = Outdated(maxsize=1, directory=tmp_path)
        a, b = _keys(2)
        store.put(a, b"v1")
        store.put(b, b"spill")
        assert store.get(a) is None
        assert store.stale == 1

    def test_clear_disk(self, tmp_path):
        store = TwoTierStore(maxsize=4, directory=tmp_path)
        store.put("aa11", b"x")
        store.put("bb22", b"y")
        store.clear(disk=True)
        assert store.get("aa11") is None
        assert not list(tmp_path.rglob("*.bin"))


class TestLocking:
    def test_held_lock_skips_publication(self, tmp_path):
        store = TwoTierStore(maxsize=4, directory=tmp_path)
        shard = tmp_path / "ca"
        shard.mkdir()
        lock = shard / "cafe.lock"
        lock.write_text("held")
        store.put("cafe", b"blocked")
        # memory tier has it, disk publication was skipped
        assert store.get("cafe") == (b"blocked", "memory")
        assert not Path(store.path("cafe")).exists()
        assert lock.exists()

    def test_stale_lock_is_broken(self, tmp_path):
        store = TwoTierStore(
            maxsize=4, directory=tmp_path, lock_timeout_s=0.0
        )
        shard = tmp_path / "ca"
        shard.mkdir()
        (shard / "cafe.lock").write_text("orphan")
        store.put("cafe", b"published")
        assert Path(store.path("cafe")).read_bytes() == b"published"
        assert not (shard / "cafe.lock").exists()

    def test_lock_removed_after_publish(self, tmp_path):
        store = TwoTierStore(maxsize=4, directory=tmp_path)
        store.put("cafe", b"x")
        assert not list(tmp_path.rglob("*.lock"))

    def test_concurrent_writers_one_file_no_tempfile_litter(self, tmp_path):
        store = TwoTierStore(maxsize=64, directory=tmp_path)
        barrier = threading.Barrier(8)

        def writer(i):
            barrier.wait()
            store.put("c0ffee", f"writer-{i}".encode())

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        files = sorted(p.name for p in tmp_path.rglob("*") if p.is_file())
        assert files == ["c0ffee.bin"], files
        assert Path(store.path("c0ffee")).read_bytes().startswith(b"writer-")

    def test_multiprocess_style_distinct_stores_same_dir(self, tmp_path):
        stores = [
            TwoTierStore(maxsize=4, directory=tmp_path) for _ in range(4)
        ]
        for i, store in enumerate(stores):
            store.put("deadbeef", b"same-content")
            store.put(f"unique{i}", f"{i}".encode())
        assert Path(store.path("deadbeef")).read_bytes() == b"same-content"
        for i, store in enumerate(stores):
            value, _ = store.get(f"unique{i}")
            assert value == f"{i}".encode()


class TestStats:
    def test_counters(self, tmp_path):
        store = TwoTierStore(maxsize=1, directory=tmp_path)
        a, b = _keys(2)
        store.put(a, b"a")
        store.get(a)  # memory hit
        store.put(b, b"b")  # evicts a
        store.get(a)  # disk hit
        store.get("missing")  # miss
        stats = store.stats()
        assert stats["hits"] == 2
        assert stats["memory_hits"] == 1
        assert stats["disk_hits"] == 1
        assert stats["misses"] == 1
        # put(b) evicted a; the disk hit on a repopulated and evicted b
        assert stats["evictions"] == 2
        assert stats["memory_entries"] == 1
        assert stats["maxsize"] == 1

    def test_describe_mentions_tiers(self, tmp_path):
        store = TwoTierStore(maxsize=4, directory=tmp_path)
        text = store.describe()
        assert "TwoTierStore(memory[0/4] + disk[" in text


def test_disk_decode_does_not_block_memory_hits(tmp_path):
    """A disk hit reads and decodes outside the store's lock: while one
    thread's decode is stuck, another thread's memory hit answers."""
    entered, release = threading.Event(), threading.Event()

    class Slow(TwoTierStore):
        def decode(self, blob):
            if blob == b"on disk":
                entered.set()
                release.wait(timeout=30)
            return blob

    cold, hot = _keys(2)
    Slow(directory=tmp_path).put(cold, b"on disk")
    store = Slow(maxsize=4, directory=tmp_path)
    store.put(hot, b"in memory")
    reader = threading.Thread(target=store.get, args=(cold,))
    reader.start()
    try:
        assert entered.wait(timeout=30)
        seen = []
        probe = threading.Thread(target=lambda: seen.append(store.get(hot)))
        probe.start()
        probe.join(timeout=5)
        assert seen == [(b"in memory", "memory")]
    finally:
        release.set()
        reader.join()
    assert store.get(cold) == (b"on disk", "memory")


def test_memory_entries_respects_maxsize(tmp_path):
    store = TwoTierStore(maxsize=2, directory=tmp_path)
    for key in _keys(5):
        store.put(key, b"x")
    assert store.stats()["memory_entries"] <= 2
    # every entry still served from disk
    for key in _keys(5):
        assert store.get(key) is not None


# -- damaged is a clean miss, in every cache ---------------------------------

SIGNATURE = {"cpu_count": 2, "numpy": "2.0"}


def _plan(version=RESULT_VERSION):
    result = SynthesisResult.__new__(SynthesisResult)
    result.result_version = version
    return result


def _record(version=__version__, signature=SIGNATURE):
    return {"version": version, "signature": signature, "decisions": {}}


def _load_artifact(store, key):
    """What the native engine does with a stored object: a broken seal
    is reported, the engine discards the entry, the next read misses."""
    try:
        return store.get(key)
    except DamagedArtifact:
        store.discard(key)
        return store.get(key)


#: cache -> (class, good value, read, {skew: value written instead})
CACHES = {
    "PlanCache": (
        PlanCache, _plan(), PlanCache.get,
        {"version-skew": _plan(RESULT_VERSION - 1)},
    ),
    "TuningDB": (
        TuningDB, _record(), lambda db, key: db.get(key, signature=SIGNATURE),
        {"version-skew": _record(version="0.0.1"),
         "signature-skew": _record(signature={"cpu_count": 64})},
    ),
    "ArtifactStore": (ArtifactStore, b"\x7fELF" + bytes(512), _load_artifact, {}),
}
FILE_DAMAGE = {
    "truncated": lambda data: data[: len(data) // 2],
    "garbled": lambda data: b"\xa5" * 16 + data[16:],
    "empty": lambda data: b"",
}


@pytest.mark.parametrize(
    "cache, damage",
    [(c, d) for c, v in CACHES.items() for d in (*FILE_DAMAGE, *v[3])],
)
def test_damaged_disk_entry_is_a_clean_miss(tmp_path, cache, damage):
    """Truncated, garbled, emptied, written by another release or on
    another machine: the read is a miss, the file is removed, ``stale``
    counts it, and nothing raises -- the same story from all three."""
    cls, good, read, skews = CACHES[cache]
    key = "c0ffee" + "ab" * 29
    cls(directory=str(tmp_path)).put(key, skews.get(damage, good))
    reader = cls(directory=str(tmp_path))
    path = Path(reader.path(key))
    if damage in FILE_DAMAGE:
        path.write_bytes(FILE_DAMAGE[damage](path.read_bytes()))
    assert read(reader, key) is None
    assert not path.exists()
    assert reader.stats()["stale"] == 1
    reader.put(key, good)  # and the slot is usable again
    assert read(cls(directory=str(tmp_path)), key) is not None
