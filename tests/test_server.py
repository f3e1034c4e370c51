"""The HTTP compilation service: endpoints, coalescing, tenants.

Every test boots a real :class:`~repro.server.app.ReproServer` on an
OS-assigned port and speaks actual HTTP through the stdlib client --
the suite covers the wire format, the error taxonomy mapping, request
coalescing (N identical concurrent requests -> exactly one synthesis),
and multi-tenant admission (an exhausted tenant degrades, a healthy
one keeps full fidelity; never a 5xx either way).
"""

from __future__ import annotations

import asyncio
import json
import threading

import numpy as np
import pytest

from repro.chem.workloads import ccsd_doubles_program, fig1_program
from repro.engine.executor import random_inputs, run_statements
from repro.expr.parser import parse_program
from repro.expr.printer import program_to_source
from repro.graphs import apsp_program
from repro.pipeline import synthesize
from repro.robustness.budget import Budget
from repro.server.app import ReproServer, ServerConfig
from repro.server.client import arequest
from repro.server.tenants import TenantPolicy, TenantRegistry
from repro.server.wire import config_from_options
from repro.robustness.errors import SpecError

MATMUL = """
range N = 8;
index i, j, k : N;
tensor A(i, k);
tensor B(k, j);
C(i, j) = sum(k) A(i, k) * B(k, j);
"""

#: a long summed index: the 2x2 plan splits the sum, so the ranks
#: still communicate (a combine, a broadcast and a move) and chaos on
#: the workers' ``go`` commands has something to bite on
SUMMED = """
range N = 6; range K = 64;
index i, j : N; index k : K;
tensor A(i, k); tensor B(k, j);
C(i, j) = sum(k) A(i, k) * B(k, j);
"""

#: a three-operand contraction: operation minimization has real work
#: to do, so a budget tracker accumulates search nodes
CHAIN = """
range N = 6;
index i, j, k, l : N;
tensor A(i, j);
tensor B(j, k);
tensor C(k, l);
D(i, l) = sum(j, k) A(i, j) * B(j, k) * C(k, l);
"""


def serve(test, config=None):
    """Run async ``test(app, host, port)`` against a live server."""

    async def wrapper():
        app = ReproServer(config or ServerConfig(port=0))
        await app.start()
        try:
            return await test(app, app.host, app.port)
        finally:
            await app.stop()

    return asyncio.run(wrapper())


class TestHttpSurface:
    def test_index_lists_endpoints(self):
        async def check(app, host, port):
            status, body = await arequest(host, port, "GET", "/")
            assert status == 200
            assert "POST /v1/synthesize" in body["endpoints"]

        serve(check)

    def test_unknown_path_is_404_with_endpoints(self):
        async def check(app, host, port):
            status, body = await arequest(host, port, "GET", "/nope")
            assert status == 404
            assert body["error"] == "not_found"
            assert any("synthesize" in e for e in body["endpoints"])

        serve(check)

    def test_wrong_method_is_405(self):
        async def check(app, host, port):
            status, body = await arequest(host, port, "GET", "/v1/synthesize")
            assert status == 405
            assert body["error"] == "method_not_allowed"

        serve(check)

    def test_bad_json_is_400(self):
        async def check(app, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            blob = b"not json"
            writer.write(
                b"POST /v1/synthesize HTTP/1.1\r\n"
                b"Content-Length: " + str(len(blob)).encode() + b"\r\n"
                b"\r\n" + blob
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            assert b"400" in raw.split(b"\r\n", 1)[0]
            assert b"bad_json" in raw

        serve(check)

    def test_missing_program_is_400(self):
        async def check(app, host, port):
            status, body = await arequest(
                host, port, "POST", "/v1/synthesize", {}
            )
            assert status == 400
            assert body["error"] == "SpecError"
            assert "program" in body["detail"]

        serve(check)

    def test_unknown_field_is_400(self):
        async def check(app, host, port):
            status, body = await arequest(
                host, port, "POST", "/v1/synthesize",
                {"program": MATMUL, "prgram": "typo"},
            )
            assert status == 400
            assert "prgram" in body["detail"]

        serve(check)

    def test_bad_option_value_is_400_in_the_validators_words(self):
        """The wire column of ``test_pipeline_options.TestOneValidator``,
        over HTTP: the body is ``SynthesisConfig.validate``'s text."""
        from repro.pipeline import SynthesisConfig

        with pytest.raises(SpecError) as library:
            SynthesisConfig(capacity_level="tape").validate()

        async def check(app, host, port):
            status, body = await arequest(
                host, port, "POST", "/v1/synthesize",
                {"program": MATMUL, "options": {"capacity_level": "tape"}},
            )
            assert status == 400
            assert body["detail"] == str(library.value)
            assert "capacity_level" in body["detail"]

        serve(check)

    def test_parse_error_is_400_not_500(self):
        async def check(app, host, port):
            status, body = await arequest(
                host, port, "POST", "/v1/synthesize",
                {"program": "range N = ;;;"},
            )
            assert status == 400
            assert body["error"] == "ParseError"

        serve(check)


class TestSynthesize:
    def test_miss_then_memory_hit(self):
        async def check(app, host, port):
            payload = {"program": MATMUL, "options": {"grid": "2x2"}}
            status, first = await arequest(
                host, port, "POST", "/v1/synthesize", payload
            )
            assert status == 200
            assert first["cached"] == "miss"
            assert first["partition_plans"] == ["C"]
            status, second = await arequest(
                host, port, "POST", "/v1/synthesize", payload
            )
            assert status == 200
            assert second["cached"] == "memory"
            assert second["key"] == first["key"]
            assert second["source_sha256"] == first["source_sha256"]

        serve(check)

    def test_distinct_options_distinct_keys(self):
        async def check(app, host, port):
            _, a = await arequest(
                host, port, "POST", "/v1/synthesize", {"program": MATMUL}
            )
            _, b = await arequest(
                host, port, "POST", "/v1/synthesize",
                {"program": MATMUL, "options": {"grid": "2x2"}},
            )
            assert a["key"] != b["key"]

        serve(check)

    def test_plan_persists_on_disk_across_servers(self, tmp_path):
        config = ServerConfig(port=0, plan_cache_dir=str(tmp_path))

        async def first(app, host, port):
            _, body = await arequest(
                host, port, "POST", "/v1/synthesize", {"program": MATMUL}
            )
            assert body["cached"] == "miss"

        serve(first, config)
        config2 = ServerConfig(port=0, plan_cache_dir=str(tmp_path))

        async def second(app, host, port):
            _, body = await arequest(
                host, port, "POST", "/v1/synthesize", {"program": MATMUL}
            )
            assert body["cached"] == "disk"

        serve(second, config2)


class TestCoalescing:
    def test_concurrent_identical_requests_one_synthesis(self):
        """N identical cold requests -> exactly 1 synthesis (the plan
        cache records one miss), and every response carries the same
        plan (bit-identical generated source)."""
        n = 5
        release = threading.Event()

        def gated_synthesize(program, config, cache=None):
            release.wait(timeout=30)
            return synthesize(program, config, cache=cache)

        config = ServerConfig(
            port=0, workers=2, synthesize_fn=gated_synthesize
        )

        async def check(app, host, port):
            payload = {"program": MATMUL, "options": {"grid": "2x2"}}
            requests = [
                asyncio.create_task(
                    arequest(host, port, "POST", "/v1/synthesize", payload)
                )
                for _ in range(n)
            ]
            # wait until the followers have piled onto the leader's
            # in-flight future, then let the one synthesis proceed
            for _ in range(1000):
                if app.coalescer.coalesced >= n - 1:
                    break
                await asyncio.sleep(0.01)
            assert app.coalescer.coalesced == n - 1
            assert app.coalescer.inflight == 1
            release.set()
            responses = await asyncio.gather(*requests)
            assert all(status == 200 for status, _ in responses)
            bodies = [body for _, body in responses]
            assert app.plan_cache.misses == 1, "exactly one synthesis"
            assert app.coalescer.leaders == 1
            assert sorted(b["coalesced"] for b in bodies) == [
                False, True, True, True, True,
            ]
            hashes = {b["source_sha256"] for b in bodies}
            assert len(hashes) == 1, "all plans bit-identical"
            keys = {b["key"] for b in bodies}
            assert len(keys) == 1
            assert app.plan_cache.stats()["coalesced"] == n - 1

        serve(check, config)

    def test_coalesced_failure_propagates_to_all_without_leak(self):
        n = 3
        release = threading.Event()

        def failing_synthesize(program, config, cache=None):
            release.wait(timeout=30)
            raise SpecError("synthetic failure", stage="test")

        config = ServerConfig(
            port=0, workers=2, synthesize_fn=failing_synthesize
        )

        async def check(app, host, port):
            payload = {"program": MATMUL}
            requests = [
                asyncio.create_task(
                    arequest(host, port, "POST", "/v1/synthesize", payload)
                )
                for _ in range(n)
            ]
            for _ in range(1000):
                if app.coalescer.coalesced >= n - 1:
                    break
                await asyncio.sleep(0.01)
            release.set()
            responses = await asyncio.gather(*requests)
            assert [status for status, _ in responses] == [400] * n
            assert app.coalescer.inflight == 0, "key cleared for retries"

        serve(check, config)


class TestTenants:
    def _registry(self):
        return TenantRegistry(
            policies={
                "metered": TenantPolicy(
                    name="metered",
                    budget=Budget(max_nodes=10_000_000),
                    allowance_nodes=1,
                ),
            },
        )

    def test_exhausted_tenant_degrades_other_tenant_full_fidelity(self):
        config = ServerConfig(port=0, tenants=self._registry())

        async def check(app, host, port):
            # the metered tenant's first request runs a real search and
            # burns its 1-node allowance
            status, first = await arequest(
                host, port, "POST", "/v1/execute",
                {"program": CHAIN, "tenant": "metered",
                 "result": "checksum"},
            )
            assert status == 200
            assert first["degraded"] == []
            assert first["admission"]["nodes_charged"] > 0
            # now exhausted: stages degrade, response stays 200 and says so
            status, second = await arequest(
                host, port, "POST", "/v1/execute",
                {"program": CHAIN, "tenant": "metered",
                 "result": "checksum"},
            )
            assert status == 200
            assert second["admission"]["exhausted"] is True
            assert second["admission"]["budget"]["max_nodes"] == 0
            assert second["degraded"] != []
            # an unmetered tenant is untouched by the noisy neighbour
            status, other = await arequest(
                host, port, "POST", "/v1/execute",
                {"program": CHAIN, "tenant": "other", "result": "checksum"},
            )
            assert status == 200
            assert other["degraded"] == []
            assert other["admission"]["exhausted"] is False
            # degraded or not, the mathematics is identical
            assert second["outputs"]["D"]["sum"] == pytest.approx(
                other["outputs"]["D"]["sum"], rel=1e-9
            )
            stats = app.tenants.stats()
            assert stats["metered"]["exhausted"] is True
            assert stats["metered"]["degraded_requests"] == 1
            assert stats["other"]["degraded_requests"] == 0

        serve(check, config)

    def test_tenants_file_round_trip(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(
            '{"default": {"budget_ms": 2000},'
            ' "tenants": {"team-a": {"budget_nodes": 50,'
            ' "allowance_nodes": 100}}}'
        )
        registry = TenantRegistry.from_file(str(path))
        account = registry.account("team-a")
        assert account.policy.budget.max_nodes == 50
        assert account.policy.allowance_nodes == 100
        unknown = registry.account("walk-in")
        assert unknown.policy.budget.deadline_ms == 2000

    def test_tenants_file_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text('{"tenants": {"a": {"budget_mss": 1}}}')
        with pytest.raises(SpecError, match="budget_mss"):
            TenantRegistry.from_file(str(path))


#: a sparse-declared operand: the pipeline plans a mixed dense/sparse
#: execution for it
SPARSE = """
range N = 8;
index i, j, k : N;
tensor A(i, k) sparse(0.1);
tensor B(k, j);
C(i, j) = sum(k) A(i, k) * B(k, j);
"""

#: matmul, a 4-chain, small Fig. 1, small CCSD, a repeated-squaring
#: sequence (its intermediate squarings are declared results too)
SERVED_PROGRAMS = {
    "matmul": MATMUL,
    "chain4": """
        range N = 5;
        index i, j, k, l, m : N;
        tensor M1(i, j); tensor M2(j, k); tensor M3(k, l); tensor M4(l, m);
        P(i, m) = sum(j, k, l) M1(i, j) * M2(j, k) * M3(k, l) * M4(l, m);
    """,
    "fig1": program_to_source(fig1_program(V=3, O=2)),
    "ccsd": program_to_source(ccsd_doubles_program(V=3, O=2)),
    "squaring": apsp_program(6)[0],
}


def _assert_outputs_agree(got, want, rel=1e-9):
    assert sorted(got) == sorted(want)
    for name, cells in want.items():
        cells = np.asarray(cells)
        np.testing.assert_allclose(
            np.asarray(got[name]), cells, rtol=rel,
            atol=rel * np.abs(cells).max(), err_msg=name,
        )


class TestExecute:
    def test_process_and_interp_agree(self):
        """``auto`` is the kernel fast path without a grid and the
        process backend with one; both agree with the interpreter
        asked for by name."""

        async def check(app, host, port):
            for name, program in SERVED_PROGRAMS.items():
                base = {"program": program, "seed": 7}
                _, fast = await arequest(
                    host, port, "POST", "/v1/execute", base
                )
                _, oracle = await arequest(
                    host, port, "POST", "/v1/execute",
                    {**base, "backend": "interp"},
                )
                _, dist = await arequest(
                    host, port, "POST", "/v1/execute",
                    {**base, "options": {"grid": "2x2"}},
                )
                assert fast["backend"] == "kernels", name
                assert fast["notes"][0] == "kernels", name
                assert oracle["backend"] == "interp", name
                assert dist["backend"] == "process", name
                declared = [
                    s.result.name for s in parse_program(program).statements
                ]
                assert sorted(oracle["outputs"]) == sorted(declared), name
                _assert_outputs_agree(fast["outputs"], oracle["outputs"])
                _assert_outputs_agree(dist["outputs"], oracle["outputs"])

        serve(check)

    def test_program_over_the_memory_limit_runs_on_interp(self):
        async def check(app, host, port):
            payload = {"program": MATMUL, "result": "checksum", "seed": 7}
            _, roomy = await arequest(
                host, port, "POST", "/v1/execute", payload
            )
            # the plan holds C, 64 elements, at its peak
            status, tight = await arequest(
                host, port, "POST", "/v1/execute",
                {**payload, "options": {"memory_elements": 32}},
            )
            assert status == 200
            assert roomy["backend"] == "kernels"
            assert tight["backend"] == "interp"
            assert tight["notes"][0] == (
                "interp: peak 64 elements exceeds memory capacity 32"
            )
            assert tight["outputs"]["C"]["sum"] == pytest.approx(
                roomy["outputs"]["C"]["sum"], rel=1e-9
            )

        serve(check)

    def test_sparse_program_keeps_its_mixed_plan(self):
        async def check(app, host, port):
            rng = np.random.default_rng(3)
            a = np.where(rng.random((8, 8)) < 0.1, rng.random((8, 8)), 0.0)
            b = rng.random((8, 8))
            status, body = await arequest(
                host, port, "POST", "/v1/execute",
                {"program": SPARSE,
                 "inputs": {"A": a.tolist(), "B": b.tolist()}},
            )
            assert status == 200
            assert body["backend"] == "interp"
            assert body["notes"][0] == "mixed sparse plan"
            np.testing.assert_allclose(
                np.asarray(body["outputs"]["C"]), a @ b, rtol=1e-12
            )

        serve(check)

    def test_concurrent_executes_of_one_plan_do_not_share_buffers(self):
        """Eight requests resolve to one plan key; each runs on its own
        runner over its own unpickled result, so each gets the product
        of *its* inputs."""
        program = parse_program(MATMUL)

        async def check(app, host, port):
            await arequest(
                host, port, "POST", "/v1/synthesize", {"program": MATMUL}
            )
            replies = await asyncio.gather(*(
                arequest(
                    host, port, "POST", "/v1/execute",
                    {"program": MATMUL, "seed": seed},
                )
                for seed in range(8)
            ))
            assert len({body["key"] for _, body in replies}) == 1
            for seed, (status, body) in enumerate(replies):
                assert status == 200
                assert body["backend"] == "kernels"
                want = run_statements(
                    program.statements, random_inputs(program, seed=seed)
                )["C"]
                np.testing.assert_allclose(
                    np.asarray(body["outputs"]["C"]), want, rtol=1e-9
                )

        serve(check)

    @pytest.mark.parametrize(
        "backend", ["auto", "interp", "process", "local"]
    )
    def test_bad_input_is_a_400_naming_the_tensor(self, backend):
        ones = [[1.0] * 8 for _ in range(8)]
        cases = {
            "wrong shape": ({"A": ones, "B": [[1.0] * 4] * 4}, "ShapeError"),
            "non-numeric": ({"A": ones, "B": [["x"] * 8] * 8}, "SpecError"),
            "ragged": ({"A": ones, "B": [[1.0], [1.0, 2.0]]}, "SpecError"),
            "missing": ({"A": ones}, "SpecError"),
        }
        options = {"grid": 2} if backend in ("process", "local") else {}

        async def check(app, host, port):
            for case, (inputs, error) in cases.items():
                status, body = await arequest(
                    host, port, "POST", "/v1/execute",
                    {"program": MATMUL, "inputs": inputs,
                     "backend": backend, "options": options},
                )
                assert status == 400, (case, body)
                assert body["error"] == error, case
                assert body["tensor"] == "B", case
                assert "'B'" in body["detail"], case
            # four client mistakes against a threshold of two: they say
            # nothing about the route's health
            assert app.breakers["/v1/execute"].state == "closed"

        serve(check, ServerConfig(port=0, breaker_threshold=2))

    def test_explicit_inputs_arrays_mode(self):
        async def check(app, host, port):
            eye = [[1.0 if r == c else 0.0 for c in range(8)]
                   for r in range(8)]
            ones = [[1.0] * 8 for _ in range(8)]
            status, body = await arequest(
                host, port, "POST", "/v1/execute",
                {"program": MATMUL, "inputs": {"A": eye, "B": ones}},
            )
            assert status == 200
            assert body["outputs"]["C"] == ones

        serve(check)

    def test_process_backend_without_grid_is_400(self):
        async def check(app, host, port):
            status, body = await arequest(
                host, port, "POST", "/v1/execute",
                {"program": MATMUL, "backend": "process"},
            )
            assert status == 400
            assert "partition plans" in body["detail"]

        serve(check)

    def test_faults_through_server_recover(self):
        async def check(app, host, port):
            status, body = await arequest(
                host, port, "POST", "/v1/execute",
                {"program": MATMUL, "options": {"grid": 2},
                 "faults": "drop:0;crash:1", "result": "checksum",
                 "seed": 3},
            )
            assert status == 200
            _, clean = await arequest(
                host, port, "POST", "/v1/execute",
                {"program": MATMUL, "options": {"grid": 2},
                 "result": "checksum", "seed": 3},
            )
            assert body["outputs"]["C"]["sum"] == pytest.approx(
                clean["outputs"]["C"]["sum"], rel=1e-9
            )

        serve(check)


class TestHealthz:
    def test_counters_surface(self):
        async def check(app, host, port):
            payload = {"program": MATMUL}
            await arequest(host, port, "POST", "/v1/synthesize", payload)
            await arequest(host, port, "POST", "/v1/synthesize", payload)
            status, body = await arequest(host, port, "GET", "/healthz")
            assert status == 200
            assert body["status"] == "ok"
            assert body["requests"]["POST /v1/synthesize"] == 2
            assert body["plan_cache"]["misses"] == 1
            assert body["plan_cache"]["memory_hits"] == 1
            assert "coalesced" in body["plan_cache"]
            assert body["tenants"]["anonymous"]["requests"] == 2
            stats_status, stats = await arequest(host, port, "GET", "/stats")
            assert stats_status == 200
            assert stats["plan_cache"]["misses"] == 1

        serve(check)


class TestWireValidation:
    def test_grid_and_processors_conflict(self):
        with pytest.raises(SpecError, match="not both"):
            config_from_options({"grid": 2, "processors": 2})

    def test_unknown_option_named(self):
        with pytest.raises(SpecError, match="grdi"):
            config_from_options({"grdi": 2})

    def test_bad_binding_rejected(self):
        with pytest.raises(SpecError, match="positive integer"):
            config_from_options({"bindings": {"N": -4}})

    def test_grid_string_parses(self):
        config = config_from_options({"grid": "2x2"})
        assert config.grid.dims == (2, 2)


class TestDeadlines:
    def test_expired_deadline_is_structured_504(self):
        """A deadline the request cannot possibly meet surfaces as a
        structured 504, never a hung connection or a raw traceback."""

        def slow_synthesize(program, config, cache=None):
            import time as _time

            _time.sleep(0.05)  # guarantee the 1ms deadline is blown
            return synthesize(program, config, cache=cache)

        config = ServerConfig(port=0, synthesize_fn=slow_synthesize)

        async def check(app, host, port):
            status, body = await arequest(
                host, port, "POST", "/v1/execute",
                {
                    "program": MATMUL,
                    "options": {"grid": "2x2"},
                    "backend": "process",
                    "deadline_ms": 1,
                    "result": "checksum",
                },
            )
            assert status == 504
            assert body["error"] == "DeadlineExceeded"
            assert "deadline" in body["detail"].lower()

        serve(check, config)

    def test_server_default_deadline_applies(self):
        def slow_synthesize(program, config, cache=None):
            import time as _time

            _time.sleep(0.05)
            return synthesize(program, config, cache=cache)

        config = ServerConfig(
            port=0, deadline_ms=1, synthesize_fn=slow_synthesize
        )

        async def check(app, host, port):
            status, body = await arequest(
                host, port, "POST", "/v1/execute",
                {
                    "program": MATMUL,
                    "options": {"grid": "2x2"},
                    "backend": "process",
                    "result": "checksum",
                },
            )
            assert status == 504
            assert body["error"] == "DeadlineExceeded"

        serve(check, config)

    def test_generous_deadline_succeeds(self):
        async def check(app, host, port):
            status, body = await arequest(
                host, port, "POST", "/v1/execute",
                {
                    "program": MATMUL,
                    "options": {"grid": "2x2"},
                    "backend": "process",
                    "deadline_ms": 120_000,
                    "result": "checksum",
                },
            )
            assert status == 200
            assert body["outputs"]["C"]["shape"] == [8, 8]

        serve(check)

    def test_bad_deadline_is_400(self):
        async def check(app, host, port):
            status, body = await arequest(
                host, port, "POST", "/v1/synthesize",
                {"program": MATMUL, "deadline_ms": 0},
            )
            assert status == 400
            assert "deadline_ms" in body["detail"]

        serve(check)


class TestAdmissionControl:
    def test_overload_sheds_with_429_and_retry_after(self):
        """With max_inflight=1 and a gated synthesis, a second request
        gets a structured 429 + Retry-After while /healthz (ungated)
        keeps answering."""
        release = threading.Event()

        def gated_synthesize(program, config, cache=None):
            release.wait(timeout=30)
            return synthesize(program, config, cache=cache)

        config = ServerConfig(
            port=0, workers=2, max_inflight=1,
            synthesize_fn=gated_synthesize,
        )

        async def check(app, host, port):
            leader = asyncio.create_task(arequest(
                host, port, "POST", "/v1/synthesize",
                {"program": MATMUL, "options": {"grid": "2x2"}},
            ))
            for _ in range(1000):
                if app.gated_inflight >= 1:
                    break
                await asyncio.sleep(0.01)
            assert app.gated_inflight == 1
            # raw connection: the 429 must carry Retry-After
            reader, writer = await asyncio.open_connection(host, port)
            blob = json.dumps({"program": MATMUL}).encode()
            writer.write(
                b"POST /v1/execute HTTP/1.1\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + str(len(blob)).encode() + b"\r\n"
                b"\r\n" + blob
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            head = raw.split(b"\r\n\r\n", 1)[0]
            assert b"429" in head.split(b"\r\n", 1)[0]
            assert b"retry-after" in head.lower()
            assert b"overloaded" in raw
            # the health probe is never shed
            status, hz = await arequest(host, port, "GET", "/healthz")
            assert status == 200
            assert hz["admission"]["shed"] == 1
            assert hz["admission"]["inflight"] == 1
            release.set()
            status, _ = await leader
            assert status == 200

        serve(check, config)

    def test_zero_disables_the_gate(self):
        config = ServerConfig(port=0, max_inflight=0)

        async def check(app, host, port):
            status, _ = await arequest(
                host, port, "POST", "/v1/synthesize",
                {"program": MATMUL},
            )
            assert status == 200
            assert app.shed == 0

        serve(check, config)


class TestCircuitBreaker:
    def test_opens_after_failures_halfopens_on_probe(self):
        """Repeated 500s trip the route's breaker (503 + Retry-After);
        after the cool-down one probe is admitted and its success
        closes the breaker.  The sibling route is untouched."""
        clock = [0.0]
        fail = [True]

        def flaky_synthesize(program, config, cache=None):
            if fail[0]:
                raise RuntimeError("boom")
            return synthesize(program, config, cache=cache)

        config = ServerConfig(
            port=0,
            breaker_threshold=2,
            breaker_reset_s=10.0,
            breaker_clock=lambda: clock[0],
            synthesize_fn=flaky_synthesize,
        )

        async def check(app, host, port):
            payload = {"program": MATMUL}
            for _ in range(2):
                status, _ = await arequest(
                    host, port, "POST", "/v1/synthesize", payload
                )
                assert status == 500
            # breaker open: rejected without touching the pipeline
            status, body = await arequest(
                host, port, "POST", "/v1/synthesize", payload
            )
            assert status == 503
            assert body["error"] == "circuit_open"
            # the sibling route has its own breaker, still closed
            assert (
                app.breakers["/v1/execute"].state == "closed"
            )
            _, hz = await arequest(host, port, "GET", "/healthz")
            assert hz["breakers"]["/v1/synthesize"]["state"] == "open"
            # cool-down elapses -> half-open -> healthy probe closes it
            clock[0] += 11.0
            fail[0] = False
            status, body = await arequest(
                host, port, "POST", "/v1/synthesize", payload
            )
            assert status == 200
            assert app.breakers["/v1/synthesize"].state == "closed"

        serve(check, config)

    def test_client_errors_do_not_trip_breaker(self):
        config = ServerConfig(port=0, breaker_threshold=2)

        async def check(app, host, port):
            for _ in range(4):
                status, _ = await arequest(
                    host, port, "POST", "/v1/synthesize",
                    {"program": "range N = ;;;"},
                )
                assert status == 400
            assert app.breakers["/v1/synthesize"].state == "closed"

        serve(check)

    def test_probe_failure_reopens(self):
        from repro.server.breaker import CircuitBreaker

        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=5.0,
            clock=lambda: clock[0],
        )
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        clock[0] += 6.0
        assert breaker.state == "half-open"
        assert breaker.allow()  # the one probe
        assert not breaker.allow()  # no second concurrent probe
        breaker.record_failure()  # probe failed
        assert breaker.state == "open"
        assert breaker.retry_after_s() == pytest.approx(5.0)
        clock[0] += 6.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"


class TestChaosOverHttp:
    def test_hung_worker_recovers_while_healthz_answers(self):
        """The ISSUE acceptance scenario: a worker hung mid-request is
        caught by the recv watchdog within its timeout, the statement
        retries on a fresh pool, and the server stays responsive the
        whole time (concurrent /healthz probes)."""
        config = ServerConfig(port=0, watchdog_timeout_s=1.0)

        async def check(app, host, port):
            execute = asyncio.create_task(arequest(
                host, port, "POST", "/v1/execute",
                {
                    "program": SUMMED,
                    "options": {"grid": "2x2"},
                    "backend": "process",
                    "seed": 3,
                    "chaos": "hang_worker@0",
                    "result": "checksum",
                },
            ))
            probes = 0
            while not execute.done():
                status, _ = await asyncio.wait_for(
                    arequest(host, port, "GET", "/healthz"), timeout=5
                )
                assert status == 200, "server went dark during the hang"
                probes += 1
                await asyncio.sleep(0.05)
            assert probes >= 1
            status, body = await execute
            assert status == 200
            assert body["pool"]["respawns"] >= 1
            assert any("watchdog" in n for n in body["notes"])
            # recovered result equals the clean run bit for bit
            status, clean = await arequest(
                host, port, "POST", "/v1/execute",
                {
                    "program": SUMMED,
                    "options": {"grid": "2x2"},
                    "backend": "process",
                    "seed": 3,
                    "result": "checksum",
                },
            )
            assert clean["outputs"] == body["outputs"]

        serve(check, config)

    def test_killed_worker_recovers_bit_identically(self):
        async def check(app, host, port):
            chaotic = {
                "program": SUMMED,
                "options": {"grid": "2x2"},
                "backend": "process",
                "seed": 4,
                "chaos": "kill_worker@0",
                "result": "checksum",
            }
            status, body = await arequest(
                host, port, "POST", "/v1/execute", chaotic
            )
            assert status == 200
            assert body["pool"]["respawns"] == 1
            clean = dict(chaotic)
            del clean["chaos"]
            _, reference = await arequest(
                host, port, "POST", "/v1/execute", clean
            )
            assert reference["outputs"] == body["outputs"]
            _, hz = await arequest(host, port, "GET", "/healthz")
            assert hz["pools"]["respawned"] >= 1

        serve(check)

    def test_mixed_load_under_kills_is_all_correct(self):
        """A mixed stream with a worker killed under every third
        execute: every request succeeds with the clean run's checksum."""
        programs = [(SUMMED, "C"), (CHAIN, "D")]

        def payload(program, chaos=None):
            body = {
                "program": program,
                "options": {"grid": "2x2"},
                "backend": "process",
                "seed": 0,
                "result": "checksum",
            }
            return dict(body, chaos=chaos) if chaos else body

        async def check(app, host, port):
            reference = {}
            for program, name in programs:
                _, body = await arequest(
                    host, port, "POST", "/v1/execute", payload(program)
                )
                reference[name] = body["outputs"][name]
            respawns = 0
            for i in range(12):
                program, name = programs[i % 2]
                chaos = "kill_worker@0" if i % 3 == 2 else None
                status, body = await arequest(
                    host, port, "POST", "/v1/execute", payload(program, chaos)
                )
                assert status == 200, body
                assert body["outputs"][name] == reference[name]
                respawns += body["pool"].get("respawns", 0)
            assert respawns >= 4

        serve(check)

    def test_bad_chaos_spec_is_400(self):
        async def check(app, host, port):
            status, body = await arequest(
                host, port, "POST", "/v1/execute",
                {"program": MATMUL, "chaos": "explode@1"},
            )
            assert status == 400
            assert "chaos" in body["detail"]

        serve(check)


class TestClientRetries:
    def _patched(self, monkeypatch, outcomes):
        """Patch one-attempt transport; returns (sleeps, calls)."""
        from repro.server import client as client_mod

        sleeps = []
        calls = []

        def fake_once(host, port, method, path, payload, timeout):
            calls.append(path)
            outcome = outcomes.pop(0)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        monkeypatch.setattr(client_mod, "_request_once", fake_once)
        return sleeps, calls

    def test_retries_connection_errors_then_succeeds(self, monkeypatch):
        from repro.server.client import request

        sleeps, calls = self._patched(monkeypatch, [
            ConnectionRefusedError("down"),
            (200, {"ok": True}, None),
        ])
        status, body = request(
            "h", 1, "GET", "/healthz", retries=2,
            sleep=sleeps.append,
        )
        assert status == 200 and body == {"ok": True}
        assert len(calls) == 2
        assert len(sleeps) == 1

    def test_honors_retry_after_header(self, monkeypatch):
        from repro.server.client import request

        sleeps, calls = self._patched(monkeypatch, [
            (429, {"error": "overloaded"}, "2.5"),
            (200, {"ok": True}, None),
        ])
        status, _ = request(
            "h", 1, "POST", "/v1/execute", {}, retries=1,
            sleep=sleeps.append,
        )
        assert status == 200
        assert sleeps == [2.5], "server's Retry-After beats the backoff"

    def test_does_not_retry_served_errors(self, monkeypatch):
        from repro.server.client import request

        sleeps, calls = self._patched(monkeypatch, [
            (500, {"error": "internal"}, None),
        ])
        status, _ = request(
            "h", 1, "POST", "/v1/synthesize", {}, retries=5,
            sleep=sleeps.append,
        )
        assert status == 500
        assert len(calls) == 1 and sleeps == []

    def test_exhausted_retries_surface_last_answer(self, monkeypatch):
        import random as random_mod

        from repro.server.client import request

        sleeps, calls = self._patched(monkeypatch, [
            (503, {"error": "circuit_open"}, None),
            (503, {"error": "circuit_open"}, None),
        ])
        status, body = request(
            "h", 1, "POST", "/v1/execute", {}, retries=1,
            sleep=sleeps.append, rng=random_mod.Random(7),
        )
        assert status == 503
        assert len(calls) == 2
        # jittered exponential: within [0, backoff * 2^attempt]
        assert 0.0 <= sleeps[0] <= 0.25

    def test_exhausted_connection_errors_raise(self, monkeypatch):
        from repro.server.client import request

        sleeps, _ = self._patched(monkeypatch, [
            ConnectionRefusedError("down"),
            ConnectionRefusedError("still down"),
        ])
        with pytest.raises(ConnectionRefusedError):
            request("h", 1, "GET", "/healthz", retries=1,
                    sleep=sleeps.append)
