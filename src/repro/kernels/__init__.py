"""Compiled execution kernels: plans lowered ahead of time.

The interpretation gap this package closes: every other execution path
re-derives *how* to run a contraction on each call (``np.einsum(...,
optimize=True)`` re-plans the contraction path; fresh intermediates are
allocated every execution).  Here each formula-sequence statement is
compiled **once** into a :class:`~repro.kernels.plan.KernelPlan`:

* binary contractions are lowered to one ``np.matmul`` (GEMM) on
  operand views, with every permutation and axis grouping computed at
  synthesis time (:mod:`repro.kernels.lowering`);
* degenerate terms (repeated indices, 3+ operand products) fall back to
  ``einsum`` through a process-wide contraction-path cache
  (:mod:`repro.kernels.einsum_cache`), so even the fallback stops
  re-planning;
* a :class:`~repro.kernels.arena.BufferArena` recycles intermediate and
  output buffers keyed by shape/dtype, with temporaries released at
  their last-use statement (liveness from the schedule), so repeated
  executions of one sequence are allocation-free in the steady state;
* with ``mode="native"``, each non-copy term additionally carries a
  fused tiled loop-nest spec (:mod:`repro.kernels.native`) compiled to
  machine code (a ``cc``-built shared object); compiled blobs live in
  a content-addressed :class:`~repro.kernels.artifacts.ArtifactStore`
  so warm processes load instead of recompiling, and environments with
  no compiler degrade per-term to the embedded GEMM/einsum fallback;
* native nests are thread-parallel (``threads=N`` on engine, runner,
  and pipeline config): OpenMP pragmas when the probed compiler
  supports ``-fopenmp``, a portable chunked-outer-loop thread pool
  otherwise, always bit-identical to the sequential nest; and
  ``fuse=True`` merges consecutive statements sharing an output
  iteration space into single jointly-parallel fused-group kernels
  (:class:`~repro.kernels.plan.FusedGroup`).

The plan is a pickle-safe value object, so it rides the content-
addressed plan cache (:mod:`repro.runtime.plan_cache`): warm
``synthesize()`` hits return plans whose path planning is already done.
"""

from repro.kernels.arena import BufferArena
from repro.kernels.artifacts import ArtifactStore, artifact_key
from repro.kernels.einsum_cache import (
    cached_einsum,
    cached_einsum_path,
    einsum_path_cache_stats,
    clear_einsum_path_cache,
)
from repro.kernels.lowering import GemmSpec, exec_gemm, lower_binary_term
from repro.kernels.native import (
    FusedSpec,
    NativeEngine,
    NativeSpec,
    compiler_fingerprint,
    configure_default_engine,
    default_engine,
    engine_stats,
    lower_native_term,
    native_available,
    native_backend,
)
from repro.kernels.plan import (
    FusedGroup,
    KernelPlan,
    KernelRunner,
    StatementPlan,
    TermPlan,
    compile_kernel_plan,
)

__all__ = [
    "ArtifactStore",
    "artifact_key",
    "BufferArena",
    "FusedGroup",
    "FusedSpec",
    "NativeEngine",
    "NativeSpec",
    "compiler_fingerprint",
    "configure_default_engine",
    "default_engine",
    "engine_stats",
    "lower_native_term",
    "native_available",
    "native_backend",
    "cached_einsum",
    "cached_einsum_path",
    "einsum_path_cache_stats",
    "clear_einsum_path_cache",
    "GemmSpec",
    "exec_gemm",
    "lower_binary_term",
    "KernelPlan",
    "KernelRunner",
    "StatementPlan",
    "TermPlan",
    "compile_kernel_plan",
]
