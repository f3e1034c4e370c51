"""Names, paths and statistics shared by the benchmark's files.

Nothing here imports numpy or ``repro``: ``run.py`` and ``compare.py``
stay cheap to start, and only ``worker.py`` pays the imports it times.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Mapping, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO_ROOT, "src")
#: everything a run leaves behind lives here (git-ignored)
OUT_DIR = os.path.join(HERE, "out")
HISTORY = os.path.join(HERE, "history.jsonl")
BENCHMARK_JSON = os.path.join(REPO_ROOT, "BENCHMARK.json")

SCHEMA_VERSION = 1

WORKLOADS = ("ccsd_dense", "fig1_native", "apsp_native", "ccsd_spmd", "serve_mix")

#: end-to-end metric -> unit; the four timings are the low decile of
#: the sample series of the same name
E2E_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "compile_cold_s": "s",
    "compile_warm_ms": "ms",
    "first_result_s": "s",
    "exec_ms": "ms",
    "peak_rss_mb": "MB",
}

#: per-layer metrics (``--trace 1``), in the order the tables print them;
#: README.md says which end-to-end metric each should move, and where
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("expr.parse_ms", "ms"), ("expr.statements", "count"),
    ("opmin.optimize_ms", "ms"), ("opmin.schedule_ms", "ms"),
    ("opmin.ops_direct", "count"), ("opmin.ops_optimized", "count"),
    ("opmin.sequence_len", "count"),
    ("fusion.memopt_ms", "ms"), ("fusion.temp_elems_unfused", "count"),
    ("fusion.temp_elems_fused", "count"),
    ("locality.tile_search_ms", "ms"), ("locality.candidates_evaluated", "count"),
    ("parallel.plan_ms", "ms"), ("parallel.grid_shapes_tried", "count"),
    ("parallel.modeled_cost", "count"), ("parallel.spmd_traffic_bytes", "bytes"),
    ("parallel.spmd_supersteps", "count"),
    ("codegen.source_ms", "ms"), ("codegen.source_lines", "count"),
    ("codegen.nest_ir_bytes", "bytes"), ("codegen.c_source_bytes", "bytes"),
    ("kernels.lower_ms", "ms"), ("kernels.terms_gemm", "count"),
    ("kernels.terms_native", "count"), ("kernels.terms_einsum", "count"),
    ("kernels.fused_groups", "count"), ("kernels.native_compile_ms", "ms"),
    ("kernels.compile_invocations", "count"), ("kernels.artifact_load_ms", "ms"),
    ("kernels.store_loads", "count"), ("kernels.runner_build_ms", "ms"),
    ("kernels.run_ms", "ms"), ("kernels.achieved_gflops", "GFLOP/s"),
    ("kernels.peak_fraction", "ratio"), ("kernels.arena_allocs_steady", "count"),
    ("kernels.einsum_cache_hit_ratio", "ratio"),
    ("runtime.plan_key_ms", "ms"), ("runtime.plan_cache_mem_hit_ms", "ms"),
    ("runtime.plan_cache_disk_hit_ms", "ms"), ("runtime.plan_pickle_bytes", "bytes"),
    ("runtime.plan_cache_put_ms", "ms"), ("runtime.pool_spawn_ms", "ms"),
    ("runtime.spmd_run_ms", "ms"), ("runtime.local_fallback_statements", "count"),
    ("store.hits", "count"), ("store.misses", "count"),
    ("store.evictions", "count"), ("store.hit_ratio", "ratio"),
    ("sparse.join_ms_fill01", "ms"), ("sparse.join_ms_fill10", "ms"),
    ("sparse.join_ms_fill50", "ms"), ("sparse.op_reduction_fill01", "ratio"),
    ("server.boot_ms", "ms"), ("server.http_floor_ms", "ms"),
    ("server.synth_hit_ms", "ms"), ("server.synth_miss_ms", "ms"),
    ("server.execute_ms", "ms"), ("server.throughput_rps", "1/s"),
    ("server.coalesced", "count"), ("server.shed_429", "count"),
    ("server.errors_5xx", "count"),
    ("harness.import_ms", "ms"), ("harness.matmul_ms", "ms"),
    ("harness.reference_s", "s"), ("harness.rounds", "count"),
    ("spread.compile_cold_s_median", "s"), ("spread.compile_cold_s_p90", "s"),
    ("spread.compile_warm_ms_median", "ms"), ("spread.compile_warm_ms_p90", "ms"),
    ("spread.first_result_s_median", "s"), ("spread.first_result_s_p90", "s"),
    ("spread.exec_ms_median", "ms"), ("spread.exec_ms_p90", "ms"),
    ("trace.coverage", "ratio"), ("trace.overhead_share", "ratio"),
)

#: a run with fewer rounds than this is invalid, not reported
MIN_ROUNDS = 10
SMOKE_ROUNDS = 2
TRACED_ROUNDS = 5


def thread_count() -> int:
    """``T``: kernel threads = SPMD procs = HTTP clients = BLAS threads."""
    return min(os.cpu_count() or 1, 2)


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default rule)."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def low_decile(values: Sequence[float]) -> float:
    """The estimator of every end-to-end timing: noise on a shared box
    is additive and one-sided, so the low decile tracks the program's
    own cost while the median follows the neighbours."""
    return quantile(values, 0.10)


def stratified(strata: Mapping[str, Sequence[float]], q: float) -> float:
    """Mean over strata of each stratum's ``q`` quantile.

    Every workload but ``serve_mix`` has one stratum.  There a request
    class mixes eight specs of different cost, and a pooled low decile
    would report only the cheapest one.
    """
    parts = [quantile(values, q) for values in strata.values() if values]
    if not parts:
        raise ValueError("no samples")
    return sum(parts) / len(parts)


def pool_samples(
    passes: Sequence[Mapping[str, Mapping[str, Sequence[float]]]],
) -> Dict[str, Dict[str, List[float]]]:
    """Pool the per-pass ``series -> stratum -> values`` maps."""
    pooled: Dict[str, Dict[str, List[float]]] = {}
    for samples in passes:
        for series, strata in samples.items():
            for stratum, values in strata.items():
                pooled.setdefault(series, {}).setdefault(stratum, []).extend(values)
    return pooled


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    cells: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        cells.append(
            [f"{v:.6g}" if isinstance(v, float) else str(v) for v in row]
        )
    widths = [max(len(r[c]) for r in cells) for c in range(len(headers))]
    lines = []
    for k, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if k == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
