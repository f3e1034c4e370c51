"""Warm pool registry: reuse, health eviction, reaping, server path.

The regression at the heart of this file: a pool whose worker died
mid-request used to be parked back into the warm registry and handed
to the next (innocent) request.  The registry must evict broken pools
on release, catch workers killed *between* requests on lease, and the
server must recover with a fresh pool on the very next request.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.robustness.errors import CommFailure
from repro.server.app import ReproServer, ServerConfig
from repro.server.client import arequest
from repro.server.pools import PoolRegistry

MATMUL = """
range N = 8;
index i, j, k : N;
tensor A(i, k);
tensor B(k, j);
C(i, j) = sum(k) A(i, k) * B(k, j);
"""


class FakePool:
    """A stand-in with the SpmdProcessPool health surface."""

    def __init__(self, procs, transport="shm"):
        self.procs = procs
        self.transport = transport
        self._broken = False
        self._alive = True
        self.closed = False

    @property
    def broken(self):
        return self._broken

    def healthy(self):
        return not self._broken and self._alive

    def mark_broken(self):
        self._broken = True

    def kill_worker(self):
        """A worker dies between requests (no mid-protocol EOF seen)."""
        self._alive = False

    def close(self):
        self.closed = True


@pytest.fixture
def registry():
    return PoolRegistry(
        max_idle_per_key=2, idle_timeout_s=100.0, clock=lambda: _now[0],
        pool_factory=FakePool,
    )


_now = [0.0]


@pytest.fixture(autouse=True)
def _reset_clock():
    _now[0] = 0.0


class TestRegistry:
    def test_cold_lease_creates(self, registry):
        pool, warm = registry.lease(2, "shm")
        assert not warm
        assert isinstance(pool, FakePool)
        assert registry.stats()["created"] == 1
        assert registry.stats()["busy"] == 1

    def test_release_then_lease_reuses(self, registry):
        pool, _ = registry.lease(2, "shm")
        registry.release(pool)
        again, warm = registry.lease(2, "shm")
        assert warm
        assert again is pool
        assert registry.stats()["reused"] == 1
        assert registry.stats()["created"] == 1

    def test_keys_are_isolated(self, registry):
        pool, _ = registry.lease(2, "shm")
        registry.release(pool)
        other, warm = registry.lease(2, "pipe")
        assert not warm
        assert other is not pool
        third, warm = registry.lease(4, "shm")
        assert not warm

    def test_lifo_reuse(self, registry):
        a, _ = registry.lease(2, "shm")
        b, _ = registry.lease(2, "shm")
        registry.release(a)
        registry.release(b)  # b parked last -> leased first
        first, _ = registry.lease(2, "shm")
        assert first is b

    def test_broken_pool_evicted_on_release(self, registry):
        """THE regression: a broken pool must never be parked."""
        pool, _ = registry.lease(2, "shm")
        pool.mark_broken()
        registry.release(pool)
        assert pool.closed
        assert registry.stats()["idle"] == 0
        assert registry.stats()["evicted_broken"] == 1
        fresh, warm = registry.lease(2, "shm")
        assert not warm
        assert fresh is not pool

    def test_worker_killed_while_parked_evicted_on_lease(self, registry):
        pool, _ = registry.lease(2, "shm")
        registry.release(pool)
        pool.kill_worker()  # dies while idle: no EOF marked it broken
        fresh, warm = registry.lease(2, "shm")
        assert not warm
        assert fresh is not pool
        assert pool.closed
        assert registry.stats()["evicted_broken"] == 1

    def test_max_idle_overflow_discards_oldest(self, registry):
        pools = [registry.lease(2, "shm")[0] for _ in range(3)]
        for pool in pools:
            registry.release(pool)
        stats = registry.stats()
        assert stats["idle"] == 2
        assert stats["discarded"] == 1
        assert pools[0].closed, "oldest parked pool discarded"

    def test_reap_idle_pools(self, registry):
        pool, _ = registry.lease(2, "shm")
        registry.release(pool)
        _now[0] = 50.0
        assert registry.reap() == 0, "not idle long enough"
        _now[0] = 101.0
        assert registry.reap() == 1
        assert pool.closed
        assert registry.stats()["idle"] == 0
        assert registry.stats()["reaped"] == 1

    def test_drain_closes_everything_parked(self, registry):
        a, _ = registry.lease(2, "shm")
        b, _ = registry.lease(4, "shm")
        registry.release(a)
        registry.release(b)
        registry.drain()
        assert a.closed and b.closed
        assert registry.stats()["idle"] == 0

    def test_foreign_pool_release_closes_defensively(self, registry):
        stray = FakePool(2)
        registry.release(stray)
        assert stray.closed
        assert registry.stats()["idle"] == 0


class TestRealPools:
    def test_mid_request_worker_death_marks_broken_then_evicted(self):
        """Worker dies mid-protocol: the run raises CommFailure, the
        pool is marked broken, and release evicts instead of parking."""
        from repro.pipeline import SynthesisConfig, synthesize
        from repro.engine.executor import random_inputs
        from repro.parallel.grid import ProcessorGrid

        config = SynthesisConfig(grid=ProcessorGrid((2,)))
        result = synthesize(MATMUL, config)
        inputs = random_inputs(result.program, config.bindings, seed=0)
        registry = PoolRegistry()
        pool, _ = registry.lease(2, "shm")
        # force the workers up, then kill one under the router
        workers = pool.workers(2)
        workers[0].proc.terminate()
        workers[0].proc.join(timeout=10)
        with pytest.raises(CommFailure):
            result.run_parallel(
                inputs, backend="process", procs=2, pool=pool
            )
        assert pool.broken
        registry.release(pool)
        assert registry.stats()["evicted_broken"] == 1
        assert registry.stats()["idle"] == 0
        # the next lease gets a healthy replacement that actually works
        fresh, warm = registry.lease(2, "shm")
        assert not warm
        out = result.run_parallel(
            inputs, backend="process", procs=2, pool=fresh
        )
        assert "C" in out
        registry.release(fresh)
        registry.drain()


class TestServerPath:
    def test_dead_parked_pool_not_reused_by_next_request(self):
        """Through real HTTP: execute parks a warm pool; its workers are
        killed; the next identical request must get a fresh pool (and a
        correct answer), with the dead one counted evicted."""

        async def check(app, host, port):
            payload = {
                "program": MATMUL, "options": {"grid": 2},
                "result": "checksum", "seed": 5,
            }
            status, first = await arequest(
                host, port, "POST", "/v1/execute", payload
            )
            assert status == 200
            assert first["pool"]["warm"] is False
            assert app.pools.stats()["idle"] == 1
            # kill the parked pool's workers behind the registry's back
            ((parked, _),) = next(iter(app.pools._idle.values()))
            for worker in parked._workers:
                worker.proc.terminate()
                worker.proc.join(timeout=10)
            status, second = await arequest(
                host, port, "POST", "/v1/execute", payload
            )
            assert status == 200
            assert second["pool"]["warm"] is False, "dead pool not reused"
            assert second["outputs"]["C"]["sum"] == pytest.approx(
                first["outputs"]["C"]["sum"], rel=1e-9
            )
            stats = app.pools.stats()
            assert stats["evicted_broken"] == 1
            assert stats["created"] == 2

        async def wrapper():
            app = ReproServer(ServerConfig(port=0))
            await app.start()
            try:
                await check(app, app.host, app.port)
            finally:
                await app.stop()

        asyncio.run(wrapper())

    def test_warm_pool_reused_across_requests(self):
        async def check(app, host, port):
            payload = {
                "program": MATMUL, "options": {"grid": 2},
                "result": "checksum",
            }
            _, first = await arequest(
                host, port, "POST", "/v1/execute", payload
            )
            _, second = await arequest(
                host, port, "POST", "/v1/execute", payload
            )
            assert first["pool"]["warm"] is False
            assert second["pool"]["warm"] is True
            assert app.pools.stats()["created"] == 1
            assert app.pools.stats()["reused"] == 1

        async def wrapper():
            app = ReproServer(ServerConfig(port=0))
            await app.start()
            try:
                await check(app, app.host, app.port)
            finally:
                await app.stop()

        asyncio.run(wrapper())
