"""Compiled native backend for the kernel plans' loop nests.

The paper's synthesis system emitted compiled Fortran for its fused,
tiled loop nests; the GEMM kernel plans (:mod:`repro.kernels.plan`)
stop at numpy calls.  This module closes that gap: each flat term of a
formula sequence lowers to a :class:`NativeSpec` -- a shape-specialized
loop-nest value object -- and a :class:`NativeEngine` turns specs into
machine code: the C rendering (:func:`repro.codegen.cgen.c_source`) is
compiled by the system C compiler (``cc``/``gcc``/``clang``, discovered
once) into a shared object loaded through :mod:`ctypes`.  The nest's
Python rendering (:func:`repro.codegen.cgen.py_source`) is never
executed here: it is the reference every compiled rendering is tested
``np.array_equal`` to.

Nests are **thread-parallel**: ``function(spec, dtype, threads=N)``
compiles a variant that distributes the outermost output loop over
``N`` threads.  The strategy is probed, never assumed:

* the engine probes the compiler for working ``-fopenmp`` once
  (cached per compiler path; ``REPRO_NO_OPENMP=1`` disables it) and
  emits ``#pragma omp parallel for`` nests plus ``#pragma omp simd``
  on the innermost output loop;
* without OpenMP, the engine falls back to a portable *chunked*
  strategy: the kernel gains ``(lo, hi)`` bounds on the outermost
  output loop and a thread pool drives disjoint slices (ctypes calls
  release the GIL).

Both strategies keep every output element on exactly one thread with
an unchanged inner accumulation order, so parallel nests are
bit-identical to the sequential ones.  Thread count and strategy are
part of the artifact flags, so every ``(nest, dtype, threads)``
variant has its own content-addressed key and memoized function.

Nests compile for **this machine**: ``-march=native`` when the compiler
accepts it (probed once per compiler path, like OpenMP; a refusal is a
structured note and the baseline target), always with
``-ffp-contract=off`` so that no target's fused multiply-add moves a
result off the ``py_source`` reference.  What ``native`` resolved to --
never the literal flag -- is part of the artifact flags, so a store
directory read on another CPU model misses instead of loading code that
CPU cannot run.  The same probe reads the target's predefined macros
and resolves its **vector unit** (AVX-512F: 512 bits, 32 registers;
AVX/AVX2: 256, 16; SSE2 or the baseline target: 128, 16): nests are
register-tiled for it and compiled at its full width
(``-mprefer-vector-width=<bits>``, itself probed; a compiler without it
keeps its own preferred width and the unit is capped at 256 bits), and
the unit is in the artifact flags too.

Whole *fused statement groups* (:class:`FusedSpec`, built by the
cross-statement fusion pass in :mod:`repro.kernels.plan`) compile the
same way: one kernel holds every member statement's ordinary nest, in
statement order, so a group costs one foreign call and enters the
parallel region once instead of once per statement.

Compiled objects are cached in a content-addressed
:class:`~repro.kernels.artifacts.ArtifactStore` keyed by sha256 of the
nest IR + dtype + backend + compiler identity + flags + package version
(:func:`repro.kernels.artifacts.artifact_key`), so a warm hit loads the
existing shared object with **zero** compiler invocations -- in-process
through the function cache, across processes through the store's disk
tier.  Concurrent requests for the *same* key coalesce onto one
compile (per-key in-flight events; lookup and publication under the
engine lock, compiler forks outside it), so an 8-thread stampede costs
one compiler invocation.

Unavailability is never an error: an environment without a C compiler
reports :meth:`NativeEngine.available` ``False`` and every
caller (pipeline, runner, autotuner) degrades to the GEMM/einsum
path with a structured note; a compiler without OpenMP degrades to the
chunked strategy with a structured note.  A nest whose individual
compilation fails is remembered as failed (no retry storms) and its
term falls back the same way.  A *stored* object that is damaged
(truncated, garbled: its seal no longer matches, or the loader refuses
it) is not such a failure: it is evicted, recompiled once, republished,
and reported by :meth:`NativeEngine.recovery`.

Unlike the GEMM lowering, native nests are *total* over array terms:
diagonals (repeated indices within an operand) and 3+-operand products
compile fine -- only repeated output indices stay on the einsum path.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import re
import shutil
import subprocess
import tempfile
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.kernels.artifacts import (
    ArtifactStore,
    DamagedArtifact,
    artifact_key,
)


def _cgen():
    # deferred: repro.codegen's package __init__ imports the interpreter,
    # which imports the executor, which imports this package -- importing
    # the emitter at call time keeps the module graph acyclic
    from repro.codegen import cgen

    return cgen

__all__ = [
    "NativeSpec",
    "FusedSpec",
    "NativeEngine",
    "lower_native_term",
    "default_engine",
    "configure_default_engine",
    "native_available",
    "native_backend",
    "compiler_fingerprint",
    "engine_stats",
]

#: flags baked into every compile (and the artifact key).  Contraction
#: is off so that a multiply and the add after it stay two roundings on
#: every target: that is what lets the emitter pick a loop shape, and the
#: engine a target, without any rendering of a nest leaving the result of
#: the ``py_source`` reference by a single bit.
CC_FLAGS: Tuple[str, ...] = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

#: the OpenMP flag probed per compiler and appended when it works
OMP_FLAG = "-fopenmp"

#: the target flag probed per compiler and appended when it is accepted
TARGET_FLAG = "-march=native"

#: the option that sets the vector width nests compile at: probed per
#: compiler and appended, with the vector unit's width, when accepted
WIDTH_FLAG = "-mprefer-vector-width"

#: summation-loop block size of the emitted nests
NATIVE_TILE = 64

#: dtypes the emitter implements (C types exist for both)
_CTYPES = {"float64": "double", "float32": "float"}


@dataclass(frozen=True)
class NativeSpec:
    """One flat term as a shape-specialized loop nest (pickle-safe).

    Loop order is output indices (in target order) followed by summed
    indices (in order of first operand appearance).  ``extents`` are
    resolved at compile time, like every other lowering; ``operands``
    maps each operand axis to its loop position.  The output array is
    indexed by the first ``nout`` loop variables in order.
    """

    names: Tuple[str, ...]
    extents: Tuple[int, ...]
    nout: int
    operands: Tuple[Tuple[int, ...], ...]
    #: scalar algebra of the nest (see :mod:`repro.semiring`); part of
    #: the rendered IR, hence of the artifact key
    semiring: str = "plus_times"

    @property
    def out_shape(self) -> Tuple[int, ...]:
        return self.extents[: self.nout]

    def ir(self) -> str:
        """The deterministic nest text that addresses artifacts."""
        return _cgen().render_nest_ir(self)


@dataclass(frozen=True)
class FusedSpec:
    """A fused statement group: member nests sharing one output space.

    Built by the cross-statement fusion pass
    (:func:`repro.kernels.plan.compile_kernel_plan` with ``fuse=True``)
    from consecutive statements whose outputs walk the same iteration
    space.  ``members`` are the flat-term nests in statement order;
    ``out_slots[m]`` is the output array (of ``nslots`` distinct
    results) member ``m`` accumulates into; ``aliased`` records that
    some member reads another member's output, which drops ``restrict``
    from the emitted kernel.
    """

    nout: int
    out_extents: Tuple[int, ...]
    members: Tuple[NativeSpec, ...]
    out_slots: Tuple[int, ...]
    nslots: int
    aliased: bool = False

    def ir(self) -> str:
        """The deterministic group text that addresses artifacts."""
        return _cgen().render_fused_ir(self)


#: anything the engine can compile
AnySpec = Union[NativeSpec, FusedSpec]


def lower_native_term(
    refs: Sequence, sum_indices, target: Sequence, bindings,
    semiring: str = "plus_times",
) -> Optional[NativeSpec]:
    """Build the :class:`NativeSpec` of one flat term, or ``None``.

    The only unsupported shape is a repeated index in the *output*
    (no valid dense iteration space); operand diagonals and any
    operand count lower fine.  ``semiring`` selects the scalar algebra
    the nest folds with (any registered algebra compiles -- native
    nests, unlike GEMM, are total over semirings).
    """
    target = tuple(target)
    if len(set(target)) != len(target):
        return None
    order: List = list(target)
    seen = set(target)
    for ref in refs:
        for i in ref.indices:
            if i not in seen:
                seen.add(i)
                order.append(i)
    pos = {i: p for p, i in enumerate(order)}
    operands = tuple(
        tuple(pos[i] for i in ref.indices) for ref in refs
    )
    try:
        extents = tuple(i.extent(bindings) for i in order)
    except (KeyError, TypeError, ValueError):
        return None
    return NativeSpec(
        names=tuple(i.name for i in order),
        extents=extents,
        nout=len(target),
        operands=operands,
        semiring=semiring,
    )


# -- compiler discovery ------------------------------------------------------


def _find_cc() -> Optional[str]:
    """Path of the system C compiler, or ``None``."""
    for name in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if not name:
            continue
        path = shutil.which(name)
        if path:
            return path
    return None


_identity_cache: Dict[str, str] = {}


def _cc_identity(cc: str) -> str:
    """Stable identity of one compiler binary: version line + path."""
    cached = _identity_cache.get(cc)
    if cached is not None:
        return cached
    try:
        out = subprocess.run(
            [cc, "--version"],
            capture_output=True,
            text=True,
            timeout=30,
            check=False,
        ).stdout
        line = out.splitlines()[0].strip() if out else os.path.basename(cc)
    except (OSError, subprocess.SubprocessError):
        line = os.path.basename(cc)
    identity = f"{line} [{cc}]"
    _identity_cache[cc] = identity
    return identity


# -- OpenMP capability probing -----------------------------------------------

_OMP_PROBE_SRC = """\
#include <omp.h>
int probe(void)
{
  int n = 0;
#pragma omp parallel num_threads(2)
  {
#pragma omp atomic
    n += 1;
  }
  return n;
}
"""

_omp_cache: Dict[str, Tuple[bool, str]] = {}
_probe_lock = threading.Lock()


def _openmp_supported(cc: Optional[str]) -> Tuple[bool, str]:
    """Whether compiler ``cc`` builds a working ``-fopenmp`` object.

    ``(ok, reason)`` -- the reason explains a ``False`` so callers can
    surface a structured degradation note.  Probe results are cached
    per compiler path (the env kill-switch is consulted every call, so
    tests and operators can flip ``REPRO_NO_OPENMP`` at runtime).
    Probing never raises: a missing, broken, or OpenMP-less compiler
    is an answer, not an error.
    """
    if cc is None:
        return False, "no C compiler"
    if os.environ.get("REPRO_NO_OPENMP"):
        return False, "OpenMP disabled (REPRO_NO_OPENMP is set)"
    with _probe_lock:
        cached = _omp_cache.get(cc)
    if cached is not None:
        return cached
    result: Tuple[bool, str]
    try:
        with tempfile.TemporaryDirectory(prefix="repro-omp-probe-") as tmp:
            c_path = os.path.join(tmp, "probe.c")
            so_path = os.path.join(tmp, "probe.so")
            with open(c_path, "w", encoding="utf-8") as handle:
                handle.write(_OMP_PROBE_SRC)
            proc = subprocess.run(
                [cc, *CC_FLAGS, OMP_FLAG, "-o", so_path, c_path],
                capture_output=True,
                text=True,
                timeout=60,
                check=False,
            )
        if proc.returncode == 0:
            result = True, "OpenMP supported"
        else:
            detail = (proc.stderr or proc.stdout or "").strip()
            detail = detail.splitlines()[0][:160] if detail else "exit != 0"
            result = False, f"compiler has no working {OMP_FLAG} ({detail})"
    except (OSError, subprocess.SubprocessError) as exc:
        result = False, f"OpenMP probe failed ({type(exc).__name__}: {exc})"
    with _probe_lock:
        _omp_cache[cc] = result
    return result


# -- target capability probing -----------------------------------------------

_target_cache: Dict[str, Tuple[bool, str]] = {}
_unit_cache: Dict[str, object] = {}
_width_cache: Dict[str, Tuple[bool, str]] = {}

#: machine options in a compiler driver's ``-v`` output: gcc's ``cc1``
#: line (``-march=cooperlake -mavx512f ... --param l2-cache-size=...``)
#: and clang's (``-target-cpu x -target-feature +avx512f``)
_TARGET_OPTION = re.compile(
    r"(?:-m[\w.=+-]+|--param[ =][\w.=-]+|-target-(?:cpu|feature) [\w.+-]+)"
)
_TARGET_CPU = re.compile(r"(?:-march=|-target-cpu )([\w.+-]+)")


def _cpu_features() -> str:
    """The sorted CPU feature flags of this machine (``/proc/cpuinfo``),
    or its architecture name where the kernel does not list them."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith(("flags", "Features")):
                    return " ".join(sorted(line.split(":", 1)[1].split()))
    except OSError:
        pass
    return platform.machine()


def _first_error(stderr: str) -> str:
    """The first line of a compiler's stderr that reports an error."""
    errors = [line.strip() for line in stderr.splitlines() if "error" in line]
    return errors[0][:160] if errors else "exit != 0"


def _macro_unit(macros: str):
    """The vector unit a target's predefined macros (``-dM`` output)
    announce: AVX-512F, AVX/AVX2, else SSE2 or the baseline target."""
    units = _cgen().UNITS
    defined = set(re.findall(r"^#define (\w+)", macros, re.MULTILINE))
    if "__AVX512F__" in defined:
        return units[2]
    if "__AVX__" in defined:
        return units[1]
    return units[0]


def _target_supported(cc: Optional[str]) -> Tuple[bool, str]:
    """Whether compiler ``cc`` accepts :data:`TARGET_FLAG` here.

    ``(True, token)`` -- ``token`` names what ``native`` resolved to on
    this machine (``cooperlake+3f9c...``: the resolved CPU plus a digest
    of every machine option the driver passed down, or of the CPU's
    feature flags when the driver does not show them), so an artifact
    keyed by it is never loaded by a CPU it was not compiled for.
    ``(False, reason)`` -- nests compile for the baseline target.  One
    preprocessor-only fork per compiler path, cached like the OpenMP
    probe; never raises.  The fork also prints the target's macros,
    from which the vector unit is resolved (:func:`_probed_unit`).
    """
    if cc is None:
        return False, "no C compiler"
    with _probe_lock:
        cached = _target_cache.get(cc)
    if cached is not None:
        return cached
    result: Tuple[bool, str]
    unit = _cgen().UNITS[0]
    try:
        proc = subprocess.run(
            [cc, TARGET_FLAG, "-E", "-v", "-dM", "-x", "c", os.devnull],
            capture_output=True,
            text=True,
            timeout=60,
            check=False,
        )
        if proc.returncode == 0:
            options = sorted(
                o for o in set(_TARGET_OPTION.findall(proc.stderr))
                if o != TARGET_FLAG
            )
            cpus = [
                c for c in _TARGET_CPU.findall(proc.stderr) if c != "native"
            ]
            detail = " ".join(options) if cpus else _cpu_features()
            digest = hashlib.sha256(detail.encode("utf-8")).hexdigest()[:12]
            result = True, f"{cpus[0] if cpus else 'cpu'}+{digest}"
            unit = _macro_unit(proc.stdout)
        else:
            result = False, (
                f"compiler rejects {TARGET_FLAG} "
                f"({_first_error(proc.stderr)})"
            )
    except (OSError, subprocess.SubprocessError) as exc:
        result = False, f"target probe failed ({type(exc).__name__}: {exc})"
    with _probe_lock:
        _target_cache[cc] = result
        _unit_cache[cc] = unit
    return result


def _probed_unit(cc: Optional[str]):
    """The vector unit of the target ``cc`` compiles for here (the
    baseline target's without a compiler)."""
    _target_supported(cc)
    with _probe_lock:
        return _unit_cache.get(cc, _cgen().UNITS[0])


def _width_supported(cc: Optional[str]) -> Tuple[bool, str]:
    """Whether compiler ``cc`` accepts :data:`WIDTH_FLAG` at the width
    of the unit it targets: ``(ok, reason)``, one preprocessor-only fork
    per compiler path, cached like the OpenMP probe; never raises."""
    if cc is None:
        return False, "no C compiler"
    with _probe_lock:
        cached = _width_cache.get(cc)
    if cached is not None:
        return cached
    flag = f"{WIDTH_FLAG}={_probed_unit(cc).bits}"
    result: Tuple[bool, str]
    try:
        proc = subprocess.run(
            [cc, flag, "-E", "-x", "c", os.devnull],
            capture_output=True,
            text=True,
            timeout=60,
            check=False,
        )
        if proc.returncode == 0:
            result = True, flag
        else:
            result = False, (
                f"compiler rejects {flag} ({_first_error(proc.stderr)})"
            )
    except (OSError, subprocess.SubprocessError) as exc:
        result = False, f"width probe failed ({type(exc).__name__}: {exc})"
    with _probe_lock:
        _width_cache[cc] = result
    return result


def _chunk_bounds(extent: int, nthreads: int) -> List[Tuple[int, int]]:
    """Disjoint, exhaustive ``[lo, hi)`` slices of the outer loop."""
    n = max(1, min(nthreads, extent))
    base, rem = divmod(extent, n)
    bounds = []
    lo = 0
    for i in range(n):
        hi = lo + base + (1 if i < rem else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


# -- the engine --------------------------------------------------------------


class NativeEngine:
    """Compiles :class:`NativeSpec` nests and caches the results.

    ``backend`` is ``"cc"`` when a C compiler exists, else ``None``
    (unavailable); passing ``"none"`` forces an unavailable engine,
    which is how the tests -- and the pipeline's degraded mode -- model
    a machine without any compiler;
    ``store`` is the content-addressed :class:`ArtifactStore` (a
    private in-memory store by default -- pass one with a ``directory``
    to share compiled objects across processes); ``tile`` is the
    summation blocking factor baked into emitted nests; ``threads`` is
    the default thread count of compiled nests (``function`` calls can
    override it per nest; the count is always capped by the outer
    output extent).

    Thread-safe: the serving layer drives one process-wide engine from
    concurrent executor threads.  Function memoization is per artifact
    key: lookup and publication happen under the engine lock, compiles
    run outside it, and concurrent requests for one key wait on a
    per-key event instead of forking the compiler twice.

    Counters: ``compile_invocations`` (compiler forks),
    ``store_loads`` (functions revived from stored bytes with no
    compile), ``failures`` (specs whose compile failed; remembered so
    they are not retried), ``recovered`` (stored objects that would not
    load and were evicted and recompiled), ``parallel_functions`` /
    ``fused_functions`` (loaded nests that are threaded / fused groups).
    """

    def __init__(
        self,
        store: Optional[ArtifactStore] = None,
        backend: Optional[str] = None,
        tile: int = NATIVE_TILE,
        threads: int = 1,
    ) -> None:
        if backend not in (None, "cc", "none"):
            raise ValueError(
                f"unknown native backend {backend!r} (use 'cc' or 'none')"
            )
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        self.store = store if store is not None else ArtifactStore(maxsize=256)
        self.tile = tile
        self.threads = threads
        self._lock = threading.Lock()
        self._functions: Dict[str, Callable] = {}
        self._failed: Dict[str, str] = {}
        self._recovered: Dict[str, str] = {}
        self._inflight: Dict[str, threading.Event] = {}
        self._scratch: Optional[tempfile.TemporaryDirectory] = None
        self.compile_invocations = 0
        self.store_loads = 0
        self.parallel_functions = 0
        self.fused_functions = 0
        self._cc = _find_cc() if backend != "none" else None
        self.backend: Optional[str] = "cc" if self._cc is not None else None

    # -- identity ---------------------------------------------------------

    def available(self) -> bool:
        """Whether this machine can compile nests at all."""
        return self.backend is not None

    def unavailable_reason(self) -> str:
        return "no native backend: no C compiler (cc/gcc/clang) on PATH"

    def compiler_identity(self) -> str:
        """What produces the machine code (part of every artifact key)."""
        return _cc_identity(self._cc) if self._cc is not None else "none"

    def openmp(self) -> bool:
        """Whether compiled nests can use OpenMP pragmas here."""
        return _openmp_supported(self._cc)[0]

    def parallel_strategy(self, threads: Optional[int] = None) -> str:
        """How ``threads`` would be realized: ``omp``/``chunk``/``none``.

        ``none`` means sequential (one thread requested, or no backend);
        individual nests additionally fall back to ``none`` when their
        outer output extent cannot feed a second thread.
        """
        eff = self.threads if threads is None else threads
        if eff <= 1 or self.backend is None:
            return "none"
        if self.openmp():
            return "omp"
        return "chunk"

    def parallel_note(self, threads: Optional[int] = None) -> Optional[str]:
        """A structured degradation note when ``threads`` cannot use
        OpenMP (``None`` when nothing degraded)."""
        eff = self.threads if threads is None else threads
        if eff <= 1 or self.backend is None:
            return None
        ok, reason = _openmp_supported(self._cc)
        if ok:
            return None
        return (
            f"kernel threads={eff}: {reason}; using the chunked "
            "outer-loop fallback (ctypes thread pool)"
        )

    def target_note(self) -> Optional[str]:
        """A structured degradation note when nests compile for the
        baseline target, or below the probed vector unit's width
        (``None`` when :data:`TARGET_FLAG` and :data:`WIDTH_FLAG` are
        used)."""
        if self.backend is None:
            return None
        ok, reason = _target_supported(self._cc)
        if not ok:
            return f"{reason}; nests compile for the baseline target"
        ok, reason = _width_supported(self._cc)
        if ok:
            return None
        return (
            f"{reason}; nests are tiled for the {self.vector_unit()} "
            "unit the compiler vectorises at by default"
        )

    def vector_unit(self):
        """The :class:`~repro.codegen.cgen.VectorUnit` nests are
        register-tiled and compiled for: the probed unit when the
        compiler takes :data:`WIDTH_FLAG`, else at most the 256-bit one
        (without the flag a compiler keeps its own preferred width)."""
        unit = _probed_unit(self._cc)
        if _width_supported(self._cc)[0]:
            return unit
        return min(unit, _cgen().DEFAULT_UNIT)

    def _cc_flags(self) -> Tuple[str, ...]:
        """What the compiler is given: baseline, target, vector width,
        OpenMP."""
        flags = CC_FLAGS
        if _target_supported(self._cc)[0]:
            flags += (TARGET_FLAG,)
        if _width_supported(self._cc)[0]:
            flags += (f"{WIDTH_FLAG}={self.vector_unit().bits}",)
        if self.openmp():
            flags += (OMP_FLAG,)
        return flags

    def flags(
        self, threads: Optional[int] = None, spec: Optional[AnySpec] = None
    ) -> Tuple[str, ...]:
        """The flag tuple entering artifact keys (optionally for one
        nest's effective thread count).  ``target=`` is what
        :data:`TARGET_FLAG` resolved to on this machine, never the
        literal flag: a store directory carried to another CPU model
        misses instead of loading code that CPU cannot run.  ``unit=``
        is the vector unit the nests' register tiles are counted in."""
        eff, strategy, _ = self._resolve(spec, threads)
        base: Tuple[str, ...] = ()
        if self.backend is not None:
            ok, token = _target_supported(self._cc)
            base = self._cc_flags() + (
                f"target={token if ok else 'baseline'}",
                f"unit={self.vector_unit()}",
            )
        return base + (f"tile={self.tile}", f"threads={eff}",
                       f"par={strategy}")

    def _resolve(
        self, spec: Optional[AnySpec], threads: Optional[int]
    ) -> Tuple[int, str, bool]:
        """``(effective threads, strategy, openmp available)`` for one
        nest.  Thread count is capped by the outer output extent (the
        distributed loop); a scalar output runs sequentially."""
        eff = self.threads if threads is None else threads
        if eff < 1:
            raise ValueError(f"threads must be >= 1, got {eff}")
        omp_ok = self.openmp()
        if spec is not None:
            if isinstance(spec, FusedSpec):
                outer = spec.out_extents[0] if spec.nout else 0
            else:
                outer = spec.extents[0] if spec.nout else 0
            eff = max(1, min(eff, outer)) if outer else 1
        if eff <= 1 or self.backend is None:
            return eff, "none", omp_ok
        return eff, ("omp" if omp_ok else "chunk"), omp_ok

    def key(
        self, spec: AnySpec, dtype, threads: Optional[int] = None
    ) -> str:
        """The content-addressed artifact key of ``(spec, dtype,
        threads)`` here."""
        return artifact_key(
            spec.ir(),
            np.dtype(dtype).str,
            self.backend or "none",
            self.compiler_identity(),
            self.flags(threads, spec),
        )

    # -- compilation ------------------------------------------------------

    def function(
        self, spec: AnySpec, dtype=np.float64, threads: Optional[int] = None
    ) -> Optional[Callable]:
        """A callable for the nest, or ``None``.

        For a :class:`NativeSpec` the callable is ``fn(coef, ops, out)``
        -- ``ops`` the sequence of C-contiguous operand arrays, ``out``
        the C-contiguous output buffer, all of ``dtype``; the call
        **accumulates** (the caller zeroes ``out`` first when it wants
        assignment).  For a :class:`FusedSpec` it is
        ``fn(coefs, ops, outs)`` with one coefficient per member, the
        members' operands concatenated, and one output per slot.

        ``threads`` overrides the engine default for this nest; the
        compiled variant is memoized per ``(nest, dtype, threads)``
        key.  Returns ``None`` when the engine is unavailable, the
        dtype unsupported, or compilation failed (failures are
        remembered, not retried).  Concurrent calls for one key
        coalesce onto a single compile.
        """
        if self.backend is None:
            return None
        dtype = np.dtype(dtype)
        if dtype.name not in _CTYPES:
            return None
        eff, strategy, _ = self._resolve(spec, threads)
        key = self.key(spec, dtype, threads)
        while True:
            with self._lock:
                fn = self._functions.get(key)
                if fn is not None:
                    return fn
                if key in self._failed:
                    return None
                event = self._inflight.get(key)
                if event is None:
                    event = threading.Event()
                    self._inflight[key] = event
                    break
            # someone else is compiling this key: wait, then re-read
            event.wait()
        try:
            fn = self._build_cc(spec, dtype, key, eff, strategy)
        except Exception as exc:  # compile errors degrade, never raise
            with self._lock:
                self._failed[key] = f"{type(exc).__name__}: {exc}"
                self._inflight.pop(key, None)
            event.set()
            return None
        with self._lock:
            self._functions[key] = fn
            if eff > 1:
                self.parallel_functions += 1
            if isinstance(spec, FusedSpec):
                self.fused_functions += 1
            self._inflight.pop(key, None)
        event.set()
        return fn

    def failure(
        self, spec: AnySpec, dtype=np.float64, threads: Optional[int] = None
    ) -> Optional[str]:
        """The recorded compile failure for ``(spec, dtype)``, if any."""
        key = self.key(spec, dtype, threads)
        with self._lock:
            return self._failed.get(key)

    def recovery(
        self, spec: AnySpec, dtype=np.float64, threads: Optional[int] = None
    ) -> Optional[str]:
        """The note of a stored artifact that would not load and was
        replaced by a fresh compile, if that happened for this nest."""
        if not self._recovered:
            return None
        key = self.key(spec, dtype, threads)
        with self._lock:
            return self._recovered.get(key)

    # -- source emission --------------------------------------------------

    def _c_source(
        self, spec: AnySpec, dtype, eff: int, strategy: str
    ) -> str:
        cgen = _cgen()
        fused = isinstance(spec, FusedSpec)
        emit = cgen.c_fused_source if fused else cgen.c_source
        return emit(
            spec, _CTYPES[np.dtype(dtype).name], self.tile,
            threads=eff, parallel=strategy, simd=self.openmp(),
            unit=self.vector_unit(),
        )

    def _build_cc(
        self, spec: AnySpec, dtype, key: str, eff: int, strategy: str
    ) -> Callable:
        lib = None
        try:
            path = self._load_path(key)
            if path is not None:
                lib = ctypes.CDLL(path)
                lib.kern  # an object without the symbol is damaged too
                with self._lock:
                    self.store_loads += 1  # revived, no compile
        except (DamagedArtifact, OSError, AttributeError) as exc:
            # a damaged stored object is a miss, not a failure: drop it
            # and compile the nest afresh (only a failure of *that*
            # compile is remembered in ``_failed``)
            lib = None
            self.store.discard(key)
            with self._lock:
                self._recovered[key] = (
                    f"stored artifact {key[:12]} is damaged ({exc}); "
                    "evicted and recompiled"
                )
        if lib is None:
            built = self._compile_cc(spec, dtype, key, eff, strategy)
            lib = ctypes.CDLL(self.store.disk_path(key) or built)
        fn = lib.kern
        ptr = ctypes.POINTER(
            ctypes.c_double if dtype == np.float64 else ctypes.c_float
        )
        dptr = ctypes.POINTER(ctypes.c_double)
        chunked = strategy == "chunk"
        bounds = [ctypes.c_long, ctypes.c_long] if chunked else []
        fused = isinstance(spec, FusedSpec)
        if fused:
            nops = sum(len(m.operands) for m in spec.members)
            outer = spec.out_extents[0]
            fn.argtypes = [dptr] + bounds + [ptr] * (nops + spec.nslots)
            fn.restype = None

            def call(coefs, ops, outs) -> None:
                carr = np.ascontiguousarray(coefs, dtype=np.float64)
                args = [ops[k].ctypes.data_as(ptr) for k in range(nops)]
                args += [o.ctypes.data_as(ptr) for o in outs]
                cp = carr.ctypes.data_as(dptr)
                if chunked:
                    _run_chunks(
                        lambda lo, hi: fn(cp, lo, hi, *args), outer, eff
                    )
                else:
                    fn(cp, *args)

            call._lib = lib  # keep the shared object mapped while callable
            return call
        nops = len(spec.operands)
        outer = spec.extents[0] if spec.nout else 0
        fn.argtypes = [ctypes.c_double] + bounds + [ptr] * (nops + 1)
        fn.restype = None

        def call(coef: float, ops, out) -> None:
            args = [ops[k].ctypes.data_as(ptr) for k in range(nops)]
            args.append(out.ctypes.data_as(ptr))
            c = ctypes.c_double(coef)
            if chunked:
                _run_chunks(lambda lo, hi: fn(c, lo, hi, *args), outer, eff)
            else:
                fn(c, *args)

        call._lib = lib  # keep the shared object mapped while callable
        return call

    def _load_path(self, key: str) -> Optional[str]:
        """A loadable path for an already-stored artifact, else None.

        Only bytes the store just verified are loaded: the canonical
        file on a disk-tier hit, a scratch copy of the blob otherwise.
        """
        found = self.store.get(key)
        if found is None:
            return None
        blob, tier = found
        path = self.store.disk_path(key) if tier == "disk" else None
        return path or self._spill(key, blob)

    def _scratch_dir(self) -> str:
        """Engine scratch directory (created once, lock-protected)."""
        with self._lock:
            if self._scratch is None:
                self._scratch = tempfile.TemporaryDirectory(
                    prefix="repro-native-"
                )
            return self._scratch.name

    def _spill(self, key: str, blob: bytes) -> str:
        """Write artifact bytes to engine scratch so ctypes can load."""
        path = os.path.join(self._scratch_dir(), f"{key}.so")
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(blob)
        os.replace(tmp, path)
        return path

    def _compile_cc(
        self, spec: AnySpec, dtype, key: str, eff: int, strategy: str
    ) -> str:
        """Compile the nest, publish the object, return its scratch
        path."""
        source = self._c_source(spec, dtype, eff, strategy)
        scratch = self._scratch_dir()
        c_path = os.path.join(scratch, f"{key}.c")
        so_path = os.path.join(scratch, f"{key}.so")
        with open(c_path, "w", encoding="utf-8") as handle:
            handle.write(source)
        cmd = [self._cc, *self._cc_flags(), "-o", so_path, c_path]
        with self._lock:
            self.compile_invocations += 1
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120, check=False
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"cc failed ({proc.returncode}): {proc.stderr.strip()[:400]}"
            )
        with open(so_path, "rb") as handle:
            self.store.put(key, handle.read())
        return so_path

    # -- observability ----------------------------------------------------

    def _omp_status(self) -> str:
        """Probe status without forking a compiler (for stats)."""
        if self.backend is None:
            return "n/a"
        if os.environ.get("REPRO_NO_OPENMP"):
            return "disabled"
        with _probe_lock:
            cached = _omp_cache.get(self._cc)
        if cached is None:
            return "unprobed"
        return "yes" if cached[0] else "no"

    def stats(self) -> Dict[str, object]:
        """JSON-safe snapshot for ``/healthz`` and stage reports."""
        with self._lock:
            return {
                "backend": self.backend or "none",
                "compiler": self.compiler_identity(),
                "available": self.available(),
                "openmp": self._omp_status(),
                "threads": self.threads,
                "functions_loaded": len(self._functions),
                "parallel_functions": self.parallel_functions,
                "fused_functions": self.fused_functions,
                "compile_invocations": self.compile_invocations,
                "store_loads": self.store_loads,
                "failures": len(self._failed),
                "recovered": len(self._recovered),
                "store": self.store.stats(),
            }

    def describe(self) -> str:
        s = self.stats()
        return (
            f"NativeEngine({s['backend']}): {s['functions_loaded']} loaded "
            f"({s['parallel_functions']} parallel, "
            f"{s['fused_functions']} fused), "
            f"{s['compile_invocations']} compiled, "
            f"{s['store_loads']} store loads, {s['failures']} failures"
        )


def _run_chunks(invoke: Callable[[int, int], None], extent: int,
                threads: int) -> None:
    """Drive ``invoke(lo, hi)`` over disjoint outer-loop slices from a
    transient thread pool (the chunked fallback strategy).

    ctypes foreign calls release the GIL, so the slices genuinely
    overlap; slices are disjoint in the output,
    so no synchronization is needed beyond the joins.
    """
    bounds = _chunk_bounds(extent, threads)
    if len(bounds) == 1:
        invoke(*bounds[0])
        return
    workers = [
        threading.Thread(target=invoke, args=bound, daemon=True)
        for bound in bounds[1:]
    ]
    for worker in workers:
        worker.start()
    invoke(*bounds[0])
    for worker in workers:
        worker.join()


# -- the process-wide default engine ----------------------------------------

_default_engine: Optional[NativeEngine] = None
_default_lock = threading.Lock()


def default_engine() -> NativeEngine:
    """The process-wide engine (created on first use).

    The pipeline, :class:`~repro.kernels.plan.KernelRunner`, autotuner,
    and server all share it, so its function cache and counters tell
    one coherent story per process.
    """
    global _default_engine
    with _default_lock:
        if _default_engine is None:
            _default_engine = NativeEngine()
        return _default_engine


def configure_default_engine(
    directory: Optional[str] = None,
    backend: Optional[str] = None,
    maxsize: int = 256,
    threads: int = 1,
) -> NativeEngine:
    """Replace the process-wide engine (CLI ``--artifact-store``, tests).

    ``directory`` enables the persistent artifact tier so compiled
    objects survive the process and are shared with concurrent ones;
    ``threads`` sets the engine's default nest thread count.
    """
    global _default_engine
    engine = NativeEngine(
        store=ArtifactStore(maxsize=maxsize, directory=directory),
        backend=backend,
        threads=threads,
    )
    with _default_lock:
        _default_engine = engine
    return engine


def native_available() -> bool:
    """Whether the process-wide engine can compile nests."""
    return default_engine().available()


def native_backend() -> Optional[str]:
    """The process-wide engine's backend name (``None`` if unavailable)."""
    return default_engine().backend


def compiler_fingerprint() -> str:
    """The default engine's compiler identity (``"none"`` without one).

    Part of the autotuner's machine signature: measured decisions that
    involved compiled kernels must not survive a compiler change.
    """
    return default_engine().compiler_identity()


def engine_stats() -> Dict[str, object]:
    """Stats of the process-wide engine (surfaced in ``/healthz``)."""
    return default_engine().stats()
