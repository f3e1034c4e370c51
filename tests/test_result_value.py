"""A synthesized result is a value.

Running a :class:`~repro.pipeline.SynthesisResult` assigns none of its
attributes: what a run did comes back on the
:class:`~repro.pipeline.RunOutput` it returns.  That is what lets the
plan cache's memory tier hand out the one decoded result it holds, and
the service serve a warm request with two lookups -- its parse memo and
that tier -- instead of a parse and an unpickle.  These tests pin the
contract three ways:

* a race: threads running shared results on their own inputs each get
  their own substrate, notes and arrays, in process and over HTTP;
* a mutation detector: a stored plan-cache entry pickles to the same
  bytes before and after everything that executes or tunes a hit;
* counts without a clock: warm requests parse nothing and decode
  nothing.
"""

from __future__ import annotations

import asyncio
import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.pipeline
import repro.runtime.plan_cache
import repro.server.handlers
from repro.autotune import AutotuneOptions
from repro.engine.executor import random_inputs, run_statements
from repro.engine.machine import MachineModel, MemoryLevel
from repro.expr.parser import parse_program
from repro.pipeline import SynthesisConfig, synthesize
from repro.runtime.plan_cache import PlanCache
from repro.server.app import ServerConfig
from repro.server.client import arequest
from tests.test_server import serve

#: a three-operand chain: peak 72 live elements on kernels
CHAIN = """
range N = 6;
index i, j, k, l : N;
tensor A(i, k); tensor B(k, l); tensor C(l, j);
D(i, j) = sum(k, l) A(i, k) * B(k, l) * C(l, j);
"""

#: a memory level the chain's kernel plan does not fit: run() takes
#: the interpreter over the fused structure
TIGHT = MachineModel(
    cache=MemoryLevel("cache", 16, 8.0),
    memory=MemoryLevel("memory", 64, 512.0),
)


def _want(result, inputs):
    return run_statements(result.program.statements, inputs)["D"]


class TestConcurrentRuns:
    def test_threads_sharing_results_each_get_their_own_run(self):
        """8 threads, 8 inputs, two shared results -- one on kernels,
        one past its memory capacity on the interpreter, one also run
        as an SPMD session: every call's substrate, notes and arrays
        are its own."""
        roomy = synthesize(CHAIN, SynthesisConfig(processors=2))
        tight = synthesize(
            CHAIN, SynthesisConfig(machine=TIGHT, optimize_cache=False)
        )
        program = roomy.program
        barrier = threading.Barrier(8)

        def call(k):
            inputs = random_inputs(program, seed=k)
            barrier.wait(timeout=30)
            if k % 4 == 0:
                out = tight.run(inputs)
            elif k % 4 == 1:
                out = roomy.run_parallel(inputs, backend="local")
            else:
                out = roomy.run(inputs)
            return k, inputs, out

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            with ThreadPoolExecutor(8) as pool:
                calls = list(pool.map(call, range(8), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for k, inputs, out in calls:
            np.testing.assert_allclose(
                out["D"], _want(roomy, inputs), rtol=1e-10
            )
            if k % 4 == 0:
                assert out.substrate == "interp"
                assert out.notes == [
                    "interp: peak 72 elements exceeds memory capacity 64"
                ]
            elif k % 4 == 1:
                assert (out.substrate, out.notes) == ("local", [])
            else:
                assert (out.substrate, out.notes) == ("kernels", ["kernels"])
        assert len({id(out.notes) for _, _, out in calls}) == 8
        # and nothing was written back onto the shared results
        assert tight.last_run_notes == roomy.last_run_notes == []

    def test_last_run_notes_is_a_read_only_view(self):
        result = synthesize(CHAIN)
        assert result.last_run_notes == result.synthesis_notes
        with pytest.raises(AttributeError):
            result.last_run_notes = ["rewritten"]
        result.last_run_notes.append("not kept")
        assert "not kept" not in result.synthesis_notes

    def test_coalesced_execute_burst_reports_each_run(self):
        """Cold /v1/execute requests of one program coalesce on one
        synthesis and then run the leader's very result at once: kernels
        requests and interpreter requests, each on its own inputs.
        Each response reports the run it made."""
        n = 6
        release = threading.Event()

        def gated_synthesize(program, config, cache=None):
            release.wait(timeout=30)
            return synthesize(program, config, cache=cache)

        config = ServerConfig(port=0, workers=4, synthesize_fn=gated_synthesize)
        program = parse_program(CHAIN)
        inputs = [random_inputs(program, seed=k) for k in range(n)]

        async def check(app, host, port):
            requests = [
                asyncio.create_task(
                    arequest(host, port, "POST", "/v1/execute", {
                        "program": CHAIN,
                        "backend": "interp" if k % 2 else "auto",
                        "inputs": {
                            name: array.tolist()
                            for name, array in inputs[k].items()
                        },
                    })
                )
                for k in range(n)
            ]
            for _ in range(1000):
                if app.coalescer.coalesced >= n - 1:
                    break
                await asyncio.sleep(0.01)
            assert app.coalescer.coalesced == n - 1
            release.set()
            responses = await asyncio.gather(*requests)
            assert app.plan_cache.misses == 1, "one synthesis, shared"
            return responses

        responses = serve(check, config)
        for k, (status, body) in enumerate(responses):
            assert status == 200, body
            if k % 2:
                assert (body["backend"], body["notes"]) == ("interp", [])
            else:
                assert body["backend"] == "kernels"
                assert body["notes"] == ["kernels"]
            want = run_statements(program.statements, inputs[k])["D"]
            np.testing.assert_allclose(
                np.asarray(body["outputs"]["D"]), want, rtol=1e-10
            )


class TestStoredEntryNeverChanges:
    """Pickle the plan cache's stored result before and after each way
    a hit is used: the bytes must not move."""

    CONFIG = SynthesisConfig(processors=2)

    @pytest.fixture
    def cache(self):
        cache = PlanCache()
        synthesize(CHAIN, self.CONFIG, cache=cache)
        return cache

    @staticmethod
    def stored(cache):
        (value,) = cache._memory.values()
        return value

    def _use(self, cache, how):
        hit = synthesize(CHAIN, self.CONFIG, cache=cache)
        inputs = random_inputs(hit.program, seed=5)
        if how == "run":
            hit.run(inputs)
        elif how == "run_parallel":
            hit.run_parallel(inputs, backend="local")
        elif how == "execute":
            hit.execute(inputs)
        elif how == "autotune":
            tuned = synthesize(
                CHAIN, self.CONFIG, cache=cache,
                autotune=AutotuneOptions(trials=1, warmup=0),
            )
            assert tuned.tuning is not None
            assert tuned.reports[-1].name == "Autotuning"
            assert self.stored(cache).tuning is None

    @pytest.mark.parametrize(
        "how", ["run", "run_parallel", "execute", "autotune"]
    )
    def test_using_a_hit(self, cache, how):
        stored = self.stored(cache)
        before = pickle.dumps(stored)
        self._use(cache, how)
        self._use(cache, how)  # a second hit sees what the first left
        assert self.stored(cache) is stored
        assert pickle.dumps(stored) == before
        assert not any(r.name == "Plan cache" for r in stored.reports)

    def test_cli_run(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        snapshots = []

        class Recording(PlanCache):
            def get(self, key, **expect):
                found = super().get(key, **expect)
                if found is not None:
                    snapshots.append((found[0], pickle.dumps(found[0])))
                return found

        plans = str(tmp_path / "plans")
        synthesize(CHAIN, self.CONFIG, cache=PlanCache(directory=plans))
        monkeypatch.setattr(repro.runtime.plan_cache, "PlanCache", Recording)
        spec = tmp_path / "chain.tce"
        spec.write_text(CHAIN)
        argv = [str(spec), "--processors", "2", "--run", "--plan-cache", plans]
        assert main(argv) == 0
        assert "outputs match the reference executor (kernels)" in (
            capsys.readouterr().out
        )
        (value, before), = snapshots
        assert pickle.dumps(value) == before


class TestWarmRequestsCount:
    def test_no_parse_and_no_decode_after_priming(
        self, tmp_path, monkeypatch
    ):
        counts = {"parse": 0, "decode": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module in (repro.server.handlers, repro.pipeline):
            monkeypatch.setattr(
                module, "parse_program",
                counting("parse", module.parse_program),
            )
        monkeypatch.setattr(
            PlanCache, "decode", counting("decode", PlanCache.decode)
        )
        config = ServerConfig(port=0, plan_cache_dir=str(tmp_path))
        program = parse_program(CHAIN)
        arrays = {
            name: array.tolist()
            for name, array in random_inputs(program, seed=0).items()
        }

        async def check(app, host, port):
            async def post(path, **fields):
                status, body = await arequest(
                    host, port, "POST", path, {"program": CHAIN, **fields}
                )
                assert status == 200, body
                return body

            await post("/v1/synthesize")
            await post("/v1/execute", inputs=arrays)
            assert counts == {"parse": 1, "decode": 0}
            counts["parse"] = 0
            for _ in range(5):
                assert (await post("/v1/synthesize"))["cached"] == "memory"
                body = await post("/v1/execute", inputs=arrays)
                assert (body["cached"], body["backend"]) == (
                    "memory", "kernels"
                )
            assert counts == {"parse": 0, "decode": 0}

        serve(check, config)

    def test_disk_hit_decodes_once_then_memory(self, tmp_path, monkeypatch):
        decodes = []
        real = PlanCache.decode
        monkeypatch.setattr(
            PlanCache, "decode",
            lambda self, blob: decodes.append(1) or real(self, blob),
        )
        synthesize(CHAIN, cache=PlanCache(directory=str(tmp_path)))
        cache = PlanCache(directory=str(tmp_path))
        tiers = [
            synthesize(CHAIN, cache=cache).reports[-1].details["hit"]
            for _ in range(3)
        ]
        assert tiers == ["disk", "memory", "memory"]
        assert len(decodes) == 1

    def test_parse_memo_is_bounded_and_skips_errors(self):
        config = ServerConfig(port=0, plan_cache_size=2)
        texts = [CHAIN.replace("N = 6", f"N = {n}") for n in (3, 4, 5, 6)]
        bad = "range N = 4; index i : N; C(i) = nonsense"

        async def check(app, host, port):
            for text in texts:
                status, _ = await arequest(
                    host, port, "POST", "/v1/synthesize", {"program": text}
                )
                assert status == 200
            memo = app.handlers._programs
            assert list(memo) == texts[-2:]
            for _ in range(3):
                status, body = await arequest(
                    host, port, "POST", "/v1/synthesize", {"program": bad}
                )
                assert status == 400 and body["error"] == "ParseError"
            assert bad not in memo and len(memo) == 2

        serve(check, config)
