"""The asyncio HTTP server: sockets, routing, lifecycle.

A deliberately minimal HTTP/1.1 implementation over
``asyncio.start_server`` -- the service speaks only what it needs
(request line, headers, ``Content-Length`` bodies, ``Connection:
close`` responses), keeping the container's stdlib the only
dependency.  One connection carries one request.

Request lifecycle: the event loop parses and routes; handler
coroutines (:mod:`repro.server.handlers`) push all blocking pipeline
work into a thread executor; error mapping is uniform and structured
-- client mistakes (:class:`SpecError`, :class:`ShapeError`) are 400s
with a diagnostic body (plus the offending ``tensor`` when the error
names one), pipeline failures are 500s with the same shape, and
over-budget tenants are **not errors at all** (they degrade to 200s
with a ``degraded`` field).

Lifecycle: :meth:`ReproServer.start` binds the socket and starts the
pool reaper; :meth:`ReproServer.stop` stops accepting, waits for
in-flight requests, then drains warm pools and the executor.
``serve_main`` is the ``repro serve`` entry point.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set

from repro.expr.parser import ParseError
from repro.pipeline import synthesize
from repro.robustness.errors import (
    DeadlineExceeded,
    ReproError,
    ShapeError,
    SpecError,
)
from repro.runtime.plan_cache import PlanCache
from repro.runtime.supervisor import DEFAULT_WATCHDOG_S
from repro.server.breaker import CircuitBreaker
from repro.server.coalesce import Coalescer
from repro.server.handlers import Handlers
from repro.server.pools import PoolRegistry
from repro.server.tenants import TenantRegistry

__all__ = ["ServerConfig", "ReproServer", "serve_main"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: request body cap -- execute payloads carry arrays, synthesis only text
_MAX_BODY = 64 * 1024 * 1024
_MAX_HEADER = 64 * 1024


@dataclass
class ServerConfig:
    """Everything a :class:`ReproServer` needs, injectable for tests."""

    host: str = "127.0.0.1"
    #: 0 lets the OS pick a free port (tests); :attr:`ReproServer.port`
    #: reports the bound one
    port: int = 0
    plan_cache_dir: Optional[str] = None
    plan_cache_size: int = 128
    tenants: TenantRegistry = field(default_factory=TenantRegistry)
    pool_max_idle: int = 2
    pool_idle_timeout_s: float = 120.0
    pool_reap_interval_s: float = 5.0
    #: executor width: how many syntheses/executions may grind at once
    workers: int = 4
    drain_timeout_s: float = 30.0
    #: admission control: how many ``/v1/*`` requests may be in flight
    #: before load shedding (429 + ``Retry-After``); 0 disables the gate
    max_inflight: int = 32
    #: default per-request deadline applied when a request sends none
    #: (``None`` = unbounded, the pre-deadline behaviour)
    deadline_ms: Optional[int] = None
    #: recv watchdog for supervised executions: a worker silent this
    #: long is terminated and the statement retried on a fresh pool
    watchdog_timeout_s: float = DEFAULT_WATCHDOG_S
    #: per-route circuit breaker: consecutive server-side failures
    #: before the route opens, and the cool-down before a probe
    breaker_threshold: int = 5
    breaker_reset_s: float = 30.0
    #: breaker clock seam -- tests drive open -> half-open w/o sleeping
    breaker_clock: Callable[[], float] = time.monotonic
    #: synthesis seam -- tests substitute an instrumented callable with
    #: the same ``(program, config, cache=...)`` signature
    synthesize_fn: Callable = synthesize


class ReproServer:
    """The running service: shared state + asyncio plumbing."""

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.plan_cache = PlanCache(
            maxsize=config.plan_cache_size,
            directory=config.plan_cache_dir,
        )
        self.tenants = config.tenants
        self.pools = PoolRegistry(
            max_idle_per_key=config.pool_max_idle,
            idle_timeout_s=config.pool_idle_timeout_s,
        )
        self.coalescer = Coalescer()
        self.executor = ThreadPoolExecutor(
            max_workers=config.workers,
            thread_name_prefix="repro-server",
        )
        self.synthesize_fn = config.synthesize_fn
        self.handlers = Handlers(self)
        self.request_counts: Dict[str, int] = {}
        self.started = time.monotonic()
        self._server: Optional[asyncio.AbstractServer] = None
        self._reaper: Optional[asyncio.Task] = None
        self._inflight: Set[asyncio.Task] = set()
        self._routes = {
            ("POST", "/v1/synthesize"): self.handlers.synthesize,
            ("POST", "/v1/execute"): self.handlers.execute,
            ("GET", "/healthz"): self.handlers.healthz,
            ("GET", "/stats"): self.handlers.healthz,
            ("GET", "/"): self.handlers.index,
        }
        #: admission control covers only the expensive ``/v1/*`` work;
        #: ``/healthz`` must answer even when the service is drowning
        self._gated = {
            path for method, path in self._routes if method == "POST"
        }
        self.breakers: Dict[str, CircuitBreaker] = {
            path: CircuitBreaker(
                failure_threshold=config.breaker_threshold,
                reset_timeout_s=config.breaker_reset_s,
                clock=config.breaker_clock,
            )
            for path in self._gated
        }
        #: ``/v1/*`` requests currently executing (admission gate)
        self.gated_inflight = 0
        #: requests shed by the in-flight gate (lifetime)
        self.shed = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the OS's pick)."""
        if self._server is None or not self._server.sockets:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    @property
    def host(self) -> str:
        return self.config.host

    async def start(self) -> None:
        self.started = time.monotonic()
        self._server = await asyncio.start_server(
            self._serve_connection, self.config.host, self.config.port
        )
        self._reaper = asyncio.create_task(self._reap_loop())

    async def _reap_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.pool_reap_interval_s)
            self.pools.reap()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, finish in-flight requests,
        then drain warm pools and the executor."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._reaper is not None:
            self._reaper.cancel()
            try:
                await self._reaper
            except asyncio.CancelledError:
                pass
            self._reaper = None
        if self._inflight:
            await asyncio.wait(
                set(self._inflight), timeout=self.config.drain_timeout_s
            )
        self.pools.drain()
        self.executor.shutdown(wait=True)

    # -- the HTTP surface --------------------------------------------------

    async def _serve_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)
        try:
            await self._handle_one(reader, writer)
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_one(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            method, path, headers = await self._read_head(reader, writer)
            if method is None:
                return  # error already written
            body = await self._read_body(reader, writer, headers)
            if body is None:
                return
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ConnectionError,
        ):
            return  # client went away or spoke garbage; nothing to answer
        self._count(f"{method} {path}")
        handler = self._routes.get((method, path))
        if handler is None:
            known_paths = {p for _, p in self._routes}
            if path in known_paths:
                self._write(writer, 405, {
                    "error": "method_not_allowed",
                    "detail": f"{method} is not supported on {path}",
                })
            else:
                self._write(writer, 404, {
                    "error": "not_found",
                    "detail": f"no route for {path}",
                    "endpoints": sorted(
                        f"{m} {p}" for m, p in self._routes
                    ),
                })
            return
        payload = None
        if body:
            try:
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                self._write(writer, 400, {
                    "error": "bad_json",
                    "detail": f"request body is not valid JSON: {exc}",
                })
                return
        elif method == "POST":
            self._write(writer, 400, {
                "error": "bad_json",
                "detail": "POST requires a JSON body",
            })
            return
        gated = path in self._gated
        breaker = self.breakers.get(path)
        if gated:
            if (
                self.config.max_inflight
                and self.gated_inflight >= self.config.max_inflight
            ):
                # load shedding: a structured 429 now beats an opaque
                # timeout later; Retry-After tells well-behaved clients
                # when to come back
                self.shed += 1
                self._write(writer, 429, {
                    "error": "overloaded",
                    "detail": (
                        f"{self.gated_inflight} requests in flight "
                        f">= max_inflight={self.config.max_inflight}; "
                        "retry shortly"
                    ),
                    "max_inflight": self.config.max_inflight,
                }, headers={"Retry-After": "1"})
                return
            if breaker is not None and not breaker.allow():
                retry_after = max(1, round(breaker.retry_after_s()))
                self._write(writer, 503, {
                    "error": "circuit_open",
                    "detail": (
                        f"circuit breaker for {path} is "
                        f"{breaker.state} after repeated failures; "
                        "retry after the cool-down"
                    ),
                    "breaker": breaker.snapshot(),
                }, headers={"Retry-After": str(retry_after)})
                return
            self.gated_inflight += 1
        try:
            try:
                status, response = await handler(payload)
            except (SpecError, ShapeError) as exc:
                status, response = 400, {
                    "error": type(exc).__name__,
                    "detail": exc.diagnostic(),
                }
                if exc.tensor is not None:
                    response["tensor"] = exc.tensor
            except ParseError as exc:
                status, response = 400, {
                    "error": "ParseError",
                    "detail": str(exc),
                }
            except DeadlineExceeded as exc:
                status, response = 504, {
                    "error": "DeadlineExceeded",
                    "detail": exc.diagnostic(),
                }
            except ReproError as exc:
                status, response = 500, {
                    "error": type(exc).__name__,
                    "detail": exc.diagnostic(),
                }
            except Exception as exc:  # noqa: BLE001 -- last-resort mapping
                print(
                    f"repro.server: unhandled {type(exc).__name__}: {exc}",
                    file=sys.stderr,
                )
                status, response = 500, {
                    "error": "internal",
                    "detail": f"{type(exc).__name__}: {exc}",
                }
        finally:
            if gated:
                self.gated_inflight -= 1
        if gated and breaker is not None:
            # only server-side failures say anything about route
            # health; 400s are the client's problem
            if status >= 500:
                breaker.record_failure()
            else:
                breaker.record_success()
        self._write(writer, status, response)

    async def _read_head(self, reader, writer):
        head = await reader.readuntil(b"\r\n\r\n")
        if len(head) > _MAX_HEADER:
            self._write(writer, 400, {
                "error": "bad_request", "detail": "headers too large",
            })
            return None, None, None
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            self._write(writer, 400, {
                "error": "bad_request",
                "detail": f"malformed request line {lines[0]!r}",
            })
            return None, None, None
        method, target = parts[0].upper(), parts[1]
        path = target.split("?", 1)[0] or "/"
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        return method, path, headers

    async def _read_body(self, reader, writer, headers) -> Optional[bytes]:
        raw = headers.get("content-length", "0")
        try:
            length = int(raw)
        except ValueError:
            self._write(writer, 400, {
                "error": "bad_request",
                "detail": f"bad Content-Length {raw!r}",
            })
            return None
        if length > _MAX_BODY:
            self._write(writer, 413, {
                "error": "payload_too_large",
                "detail": f"body of {length} bytes exceeds {_MAX_BODY}",
            })
            return None
        if length == 0:
            return b""
        return await reader.readexactly(length)

    def _count(self, route: str) -> None:
        self.request_counts[route] = self.request_counts.get(route, 0) + 1

    @staticmethod
    def _write(
        writer: asyncio.StreamWriter,
        status: int,
        payload,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        extra = "".join(
            f"{name}: {value}\r\n"
            for name, value in (headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"Connection: close\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + body)


async def _serve_forever(config: ServerConfig) -> None:
    app = ReproServer(config)
    await app.start()
    print(f"repro.server listening on http://{app.host}:{app.port}")
    try:
        await asyncio.Event().wait()
    finally:
        await app.stop()


def serve_main(argv=None) -> int:
    """Entry point of ``repro serve``."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Serve the synthesis pipeline over HTTP/JSON: coalesced "
            "compilation, per-tenant budgets, warm SPMD worker pools."
        ),
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    parser.add_argument(
        "--port", type=int, default=8075, help="bind port (0 = OS pick)"
    )
    parser.add_argument(
        "--plan-cache", metavar="DIR", default=None,
        help="on-disk plan cache directory (shared with the CLI)",
    )
    parser.add_argument(
        "--plan-cache-size", type=int, default=128,
        help="in-memory plan cache entries",
    )
    parser.add_argument(
        "--tenants-file", metavar="FILE", default=None,
        help="JSON tenant policies (see repro.server.tenants)",
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="concurrent syntheses/executions",
    )
    parser.add_argument(
        "--pool-max-idle", type=int, default=2,
        help="warm worker pools kept per (procs, transport)",
    )
    parser.add_argument(
        "--pool-idle-timeout", type=float, default=120.0, metavar="S",
        help="seconds before an idle warm pool is reaped",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=32,
        help=(
            "in-flight /v1/* requests before load shedding "
            "(429 + Retry-After); 0 disables the gate"
        ),
    )
    parser.add_argument(
        "--deadline-ms", type=int, default=None, metavar="MS",
        help=(
            "default per-request deadline applied when a request "
            "sends no deadline_ms (expiry = structured 504)"
        ),
    )
    parser.add_argument(
        "--watchdog-timeout", type=float, default=DEFAULT_WATCHDOG_S,
        metavar="S",
        help=(
            "recv watchdog: seconds a worker may stay silent before "
            "it is terminated and the statement retried"
        ),
    )
    args = parser.parse_args(argv)
    if args.port < 0 or args.port > 65535:
        print(f"error: port {args.port} out of range", file=sys.stderr)
        return 2
    if args.workers < 1 or args.plan_cache_size < 1:
        print(
            "error: --workers and --plan-cache-size must be positive",
            file=sys.stderr,
        )
        return 2
    if args.pool_max_idle < 0 or args.pool_idle_timeout <= 0:
        print(
            "error: --pool-max-idle must be >= 0 and "
            "--pool-idle-timeout positive",
            file=sys.stderr,
        )
        return 2
    if args.max_inflight < 0 or args.watchdog_timeout <= 0:
        print(
            "error: --max-inflight must be >= 0 and "
            "--watchdog-timeout positive",
            file=sys.stderr,
        )
        return 2
    if args.deadline_ms is not None and args.deadline_ms < 1:
        print(
            "error: --deadline-ms must be a positive millisecond count",
            file=sys.stderr,
        )
        return 2
    try:
        tenants = (
            TenantRegistry.from_file(args.tenants_file)
            if args.tenants_file
            else TenantRegistry()
        )
    except SpecError as exc:
        print(f"error: {exc.diagnostic()}", file=sys.stderr)
        return 2
    config = ServerConfig(
        host=args.host,
        port=args.port,
        plan_cache_dir=args.plan_cache,
        plan_cache_size=args.plan_cache_size,
        tenants=tenants,
        workers=args.workers,
        pool_max_idle=args.pool_max_idle,
        pool_idle_timeout_s=args.pool_idle_timeout,
        max_inflight=args.max_inflight,
        deadline_ms=args.deadline_ms,
        watchdog_timeout_s=args.watchdog_timeout,
    )
    try:
        asyncio.run(_serve_forever(config))
    except KeyboardInterrupt:
        pass
    return 0
