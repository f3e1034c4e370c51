"""Request/response wire schema of the compilation service.

Requests and responses are JSON objects; this module is the single
place that turns untrusted payloads into validated, typed values (and
pipeline results back into JSON-safe dictionaries).  Malformed payloads
raise :class:`~repro.robustness.errors.SpecError`, which the HTTP layer
maps to a structured ``400`` -- the service reserves 5xx for genuine
server-side failures, never for over-budget or ill-formed requests.

``POST /v1/synthesize`` body::

    {
      "program": "range N = 6; ... C(i,j) = sum(k) A(i,k)*B(k,j);",
      "tenant": "team-a",                  # optional, default "anonymous"
      "deadline_ms": 2000,                  # optional per-request deadline
      "options": {                          # optional SynthesisConfig subset
        "grid": "2x2" | 4,                  # processor grid
        "processors": 4,                    # alternative: let search pick
        "bindings": {"N": 64},
        "optimize_cache": true, "sparse_aware": false,
        "sparse_execution": true, "factorize": true,
        "capacity_level": "memory",
        "cache_elements": 32768, "memory_elements": 16777216
      }
    }

``POST /v1/execute`` accepts the same fields plus::

    {
      "inputs": {"A": [[...], ...]},        # or "seed": 0 for deterministic
      "seed": 0,                            #   random inputs
      "backend": "auto" | "process" | "local" | "interp",
      "procs": 2, "transport": "shm" | "pipe",
      "faults": "drop:0;crash:1",           # FaultSchedule spec
      "chaos": "kill_worker@0",             # ChaosSchedule spec
      "result": "arrays" | "checksum"       # payload size control
    }

``backend`` asks for an execution substrate.  ``"auto"`` (the default)
is ``"process"`` -- the SPMD rank programs on a warm worker pool -- when
the plan was partitioned (``options.grid`` / ``options.processors``);
otherwise it is :meth:`SynthesisResult.run
<repro.pipeline.SynthesisResult.run>`, which reports ``"kernels"``: the
cached kernel plan (GEMM / einsum / compiled nests) on a runner built
for the request and dropped after it.  A program that declares
sparsity keeps its mixed dense/sparse plan and one whose arrays would
not fit ``options.memory_elements`` runs on the loop interpreter, both
reported as ``"interp"``; the response's ``backend`` is always the
substrate that ran and ``notes[0]`` says why.  ``"kernels"`` is only
ever reported, never requested.  ``"interp"`` asks for the
element-by-element interpreter by name -- the counting oracle, tens to
hundreds of times slower -- and ``"local"`` for the in-process SPMD
driver.  ``inputs`` are checked once, here at the handler, against the
program's declarations before any substrate sees them: a missing,
mis-shaped or non-numeric array is a ``400`` whose body names the
``tensor``.

``deadline_ms`` bounds the *whole* request: it narrows the synthesis
budget (degrading search stages the same way tenant admission does)
and what remains after synthesis bounds execution -- the recv watchdog
shrinks to the remaining time and an expired deadline surfaces as a
structured 504, never a hung connection.  ``chaos`` injects
process-level faults (worker kills, hangs, swallowed replies) into
this request's execution; recovery by the supervised pool is recorded
in the response's ``pool``/``notes`` fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional

import numpy as np

from repro.engine.machine import MachineModel
from repro.parallel.grid import ProcessorGrid
from repro.pipeline import SynthesisConfig
from repro.robustness.errors import SpecError
from repro.robustness.faults import (
    ChaosSchedule,
    FaultSchedule,
    parse_chaos_spec,
    parse_fault_spec,
)

__all__ = [
    "SynthesizeRequest",
    "ExecuteRequest",
    "parse_synthesize_request",
    "parse_execute_request",
    "config_from_options",
]

#: accepted keys of the ``options`` object
_OPTION_KEYS = frozenset(
    {
        "grid",
        "processors",
        "bindings",
        "optimize_cache",
        "sparse_aware",
        "sparse_execution",
        "factorize",
        "capacity_level",
        "cache_elements",
        "memory_elements",
    }
)

_BACKENDS = ("auto", "process", "local", "interp")
_RESULT_MODES = ("arrays", "checksum")


@dataclass(frozen=True)
class SynthesizeRequest:
    """A validated ``/v1/synthesize`` payload."""

    program: str
    tenant: str = "anonymous"
    config: SynthesisConfig = field(default_factory=SynthesisConfig)
    deadline_ms: Optional[int] = None


@dataclass(frozen=True)
class ExecuteRequest:
    """A validated ``/v1/execute`` payload."""

    program: str
    tenant: str = "anonymous"
    config: SynthesisConfig = field(default_factory=SynthesisConfig)
    deadline_ms: Optional[int] = None
    inputs: Optional[Dict[str, np.ndarray]] = None
    seed: int = 0
    backend: str = "auto"
    procs: Optional[int] = None
    transport: str = "shm"
    faults: Optional[FaultSchedule] = None
    chaos: Optional[ChaosSchedule] = None
    result_mode: str = "arrays"


def _expect(payload: Mapping, key: str, types, default=None, required=False):
    value = payload.get(key, default)
    if value is None and not required:
        return default
    if required and key not in payload:
        raise SpecError(f"request is missing required field {key!r}")
    if not isinstance(value, types):
        names = (
            types.__name__
            if isinstance(types, type)
            else "/".join(t.__name__ for t in types)
        )
        raise SpecError(
            f"field {key!r} must be {names}, got {type(value).__name__}"
        )
    return value


def config_from_options(options: Optional[Mapping]) -> SynthesisConfig:
    """Build a :class:`SynthesisConfig` from a request's ``options``.

    Unknown keys are rejected by name (a typo must not silently fall
    back to defaults).  The tenant's admission budget is attached by
    the handler, not here -- budgets are a server policy, never client
    input.
    """
    if options is None:
        return SynthesisConfig()
    if not isinstance(options, Mapping):
        raise SpecError(
            f"options must be an object, got {type(options).__name__}"
        )
    unknown = set(options) - _OPTION_KEYS
    if unknown:
        raise SpecError(
            f"unknown option(s) {sorted(unknown)}; "
            f"allowed: {sorted(_OPTION_KEYS)}"
        )
    config = SynthesisConfig()
    if "grid" in options:
        try:
            config = replace(config, grid=ProcessorGrid.parse(options["grid"]))
        except ValueError as exc:
            raise SpecError(str(exc)) from exc
    if "bindings" in options:
        bindings = _expect(options, "bindings", Mapping, required=True)
        clean: Dict[str, int] = {}
        for name, extent in bindings.items():
            if not isinstance(extent, int) or extent < 1:
                raise SpecError(
                    f"binding {name!r} must be a positive integer extent, "
                    f"got {extent!r}"
                )
            clean[str(name)] = extent
        config = replace(config, bindings=clean)
    for key, kind in (
        ("processors", int), ("capacity_level", str), ("optimize_cache", bool),
        ("sparse_aware", bool), ("sparse_execution", bool), ("factorize", bool),
    ):
        if key in options:
            config = replace(
                config, **{key: _expect(options, key, kind, required=True)}
            )
    if "cache_elements" in options or "memory_elements" in options:
        config = replace(
            config,
            machine=MachineModel.with_capacities(
                cache=_expect(options, "cache_elements", int),
                memory=_expect(options, "memory_elements", int),
            ),
        )
    config.validate()
    return config


def _parse_common(payload: Mapping, allowed: set):
    if not isinstance(payload, Mapping):
        raise SpecError(
            f"request body must be a JSON object, "
            f"got {type(payload).__name__}"
        )
    unknown = set(payload) - allowed
    if unknown:
        raise SpecError(
            f"unknown field(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
        )
    program = _expect(payload, "program", str, required=True)
    if not program.strip():
        raise SpecError("field 'program' must not be empty")
    tenant = _expect(payload, "tenant", str, default="anonymous")
    config = config_from_options(payload.get("options"))
    deadline_ms = _expect(payload, "deadline_ms", int)
    if deadline_ms is not None and deadline_ms < 1:
        raise SpecError(
            f"deadline_ms must be a positive millisecond count, "
            f"got {deadline_ms}"
        )
    return program, tenant, config, deadline_ms


def parse_synthesize_request(payload: Mapping) -> SynthesizeRequest:
    """Validate a ``/v1/synthesize`` body (see module docstring)."""
    program, tenant, config, deadline_ms = _parse_common(
        payload, {"program", "tenant", "options", "deadline_ms"}
    )
    return SynthesizeRequest(
        program=program,
        tenant=tenant,
        config=config,
        deadline_ms=deadline_ms,
    )


def parse_execute_request(payload: Mapping) -> ExecuteRequest:
    """Validate a ``/v1/execute`` body (see module docstring)."""
    program, tenant, config, deadline_ms = _parse_common(payload, {
        "program", "tenant", "options", "deadline_ms", "inputs", "seed",
        "backend", "procs", "transport", "faults", "chaos", "result",
    })
    backend = _expect(payload, "backend", str, default="auto")
    if backend not in _BACKENDS:
        raise SpecError(
            f"backend must be one of {_BACKENDS}, got {backend!r}"
        )
    result_mode = _expect(payload, "result", str, default="arrays")
    if result_mode not in _RESULT_MODES:
        raise SpecError(
            f"result must be one of {_RESULT_MODES}, got {result_mode!r}"
        )
    procs = _expect(payload, "procs", int)
    if procs is not None and procs < 1:
        raise SpecError(f"procs must be a positive worker count, got {procs}")
    transport = _expect(payload, "transport", str, default="shm")
    if transport not in ("shm", "pipe"):
        raise SpecError(
            f"transport must be 'shm' or 'pipe', got {transport!r}"
        )
    seed = _expect(payload, "seed", int, default=0)
    faults = None
    if payload.get("faults") is not None:
        faults = parse_fault_spec(_expect(payload, "faults", str))
    chaos = None
    if payload.get("chaos") is not None:
        chaos = parse_chaos_spec(_expect(payload, "chaos", str))
        if chaos is not None and not chaos.any_chaos:
            chaos = None
    inputs = None
    if payload.get("inputs") is not None:
        raw = _expect(payload, "inputs", Mapping)
        inputs = {}
        for name, cells in raw.items():
            try:
                inputs[str(name)] = np.asarray(cells, dtype=float)
            except (TypeError, ValueError) as exc:
                raise SpecError(
                    f"input {name!r} is not a numeric array: {exc}",
                    tensor=str(name),
                ) from exc
    return ExecuteRequest(
        program=program,
        tenant=tenant,
        config=config,
        deadline_ms=deadline_ms,
        inputs=inputs,
        seed=seed,
        backend=backend,
        procs=procs,
        transport=transport,
        faults=faults,
        chaos=chaos,
        result_mode=result_mode,
    )
