"""Drive the pipeline stage by stage, one span per layer boundary.

``repro.pipeline.synthesize`` is one call; to attribute its wall time
the benchmark repeats, through public functions and in the same order,
what that call does (``_synthesize_pipeline``), wrapping every stage in
a span.  Only the route the benchmark's workloads take is driven: no
search budget, the locality search on, and fused temporaries that fit in
memory (so the space-time stage is not invoked) -- anything else raises.
The caller checks that the replay produced the same formula sequence as
``synthesize`` itself, so a pipeline change that the replay does not
follow shows up as a failed operation rather than as a wrong profile.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Dict, List

import numpy as np

from repro.codegen.builder import build_fused
from repro.codegen.loops import loop_op_count, peak_memory, total_memory
from repro.codegen.pygen import generate_source
from repro.expr.parser import parse_program
from repro.expr.printer import statement_to_source
from repro.fusion.memopt import minimize_memory
from repro.fusion.tree import build_forest
from repro.kernels import compile_kernel_plan
from repro.locality.tile_search import (
    optimize_locality,
    tileable_indices,
    top_candidates,
)
from repro.opmin.cost import sequence_op_count, statement_op_count
from repro.opmin.multi_term import optimize_program
from repro.opmin.schedule import schedule_statements
from repro.pipeline import SynthesisConfig, SynthesisResult
from repro.runtime.plan_cache import PlanCache, plan_key

from tracing import Tracer


def sequence_text(statements) -> str:
    return "\n".join(statement_to_source(s) for s in statements)


def native_specs(kernel_plan) -> List[object]:
    """Every nest of a kernel plan, in the order the pipeline compiles them."""
    specs = [
        term.native
        for sp in kernel_plan.statements
        for term in sp.terms
        if term.native is not None
    ]
    specs.extend(group.spec for group in kernel_plan.fused_groups)
    return specs


def load_nests(kernel_plan, engine, threads: int) -> None:
    """Resolve every nest of the plan to a callable (the engine memoizes
    repeats).  Cold this compiles, warm it loads from the artifact store;
    either way it is what makes a native plan ready to run."""
    for spec in native_specs(kernel_plan):
        if engine.function(spec, np.float64, threads=threads) is None:
            raise RuntimeError(
                f"nest did not compile: {engine.failure(spec, np.float64, threads=threads)}"
            )


def exact_counts(result: SynthesisResult) -> Dict[str, object]:
    """Counts that must repeat exactly for one seed (determinism check)."""
    by_name = {r.name: r.details for r in result.reports}
    algebra = by_name["Algebraic transformations"]
    memory = by_name["Memory minimization"]
    plan = result.kernel_plan
    irs = sorted(spec.ir() for spec in native_specs(plan))
    return {
        "opmin.ops_direct": algebra["direct operation count"],
        "opmin.ops_optimized": algebra["optimized operation count"],
        "opmin.sequence_len": algebra["formula sequence length"],
        "fusion.temp_elems_unfused": memory["unfused temporary memory"],
        "fusion.temp_elems_fused": memory["fused temporary memory"],
        "kernels.terms_gemm": plan.gemm_terms,
        "kernels.terms_native": plan.native_terms,
        "kernels.terms_einsum": plan.einsum_terms,
        "nest_ir_sha256": hashlib.sha256("\n".join(irs).encode()).hexdigest(),
    }


def replay_compile(
    text: str,
    config: SynthesisConfig,
    tracer: Tracer,
    cache: PlanCache,
    engine,
) -> Dict[str, object]:
    """Spec text -> ``SynthesisResult`` with one span per stage.

    Returns the result and the counts read at the stage boundaries.
    """
    bindings = config.bindings
    counts: Dict[str, float] = {}
    with tracer.span("compile"):
        with tracer.span("expr.parse"):
            program = parse_program(text)
        counts["expr.statements"] = len(program.statements)
        with tracer.span("runtime.plan_key"):
            key = plan_key(program, config)
        with tracer.span("runtime.plan_cache_get"):
            if cache.get(key) is not None:
                raise RuntimeError("replay expects an empty plan cache")

        with tracer.span("opmin.optimize"):
            direct_ops = sum(
                statement_op_count(s, bindings) for s in program.statements
            )
            statements = optimize_program(
                program, bindings, factorize=config.factorize,
                sparse_aware=config.sparse_aware, budget=None,
            )
            optimized_ops = sequence_op_count(statements, bindings)
        with tracer.span("opmin.schedule"):
            statements = schedule_statements(statements, bindings).statements
        counts["opmin.ops_direct"] = direct_ops
        counts["opmin.ops_optimized"] = optimized_ops
        counts["opmin.sequence_len"] = len(statements)

        with tracer.span("fusion.memopt"):
            forest = build_forest(statements)
            fusion_results = [
                minimize_memory(
                    root, bindings, include_output=(k < len(forest) - 1),
                    budget=None,
                )
                for k, root in enumerate(forest)
            ]
            fused = sum(r.total_memory for r in fusion_results)
            unfused = sum(
                0 if node.is_leaf else node.array_size(bindings)
                for root in forest
                for node in root.subtree()
                if node is not root
            )
        counts["fusion.temp_elems_unfused"] = unfused
        counts["fusion.temp_elems_fused"] = fused
        if fused > config.machine.level(config.capacity_level).capacity:
            raise RuntimeError("replay does not drive the space-time stage")

        with tracer.span("codegen.build_fused"):
            structure = tuple(
                node for r in fusion_results for node in build_fused(r)
            )
            total_memory(structure, bindings)
            loop_op_count(structure, bindings)

        with tracer.span("locality.tile_search"):
            indices = sorted(
                tileable_indices(structure), key=lambda i: -i.extent(bindings)
            )[: config.locality_max_indices]
            pre_locality = structure
            loc = optimize_locality(
                structure, config.machine.cache.capacity, bindings,
                indices=indices, budget=None,
            )
            locality_table = [
                {"tiles": dict(row["tiles"]), "cost": row["cost"]}
                for row in top_candidates(loc.table, 32)
            ]
            structure = loc.structure
        counts["locality.candidates_evaluated"] = loc.evaluated

        partition_plans = {}
        grid_table = []
        if config.processors is not None:
            with tracer.span("parallel.plan"):
                from repro.parallel.gridsearch import choose_grid
                from repro.parallel.program_plan import (
                    inline_sequence,
                    plan_sequence,
                )
                from repro.parallel.ptree import expression_to_ptree

                try:
                    tree = expression_to_ptree(inline_sequence(statements))
                except (ValueError, TypeError):
                    tree = None
                    for stmt in statements:
                        try:
                            tree = expression_to_ptree(stmt.expr)
                            break
                        except TypeError:
                            continue
                choice = choose_grid(
                    tree, config.processors, config.comm, bindings
                )
                grid_table = [(tuple(s), float(c)) for s, c in choice.table]
                seq_plan = plan_sequence(
                    statements, choice.grid, config.comm, bindings
                )
                partition_plans = dict(seq_plan.plans)
            counts["parallel.grid_shapes_tried"] = len(choice.table)
            counts["parallel.modeled_cost"] = float(seq_plan.total_cost)

        execution_plan = None
        estimates = {}
        with tracer.span("sparse.dispatch"):
            from repro.sparse.estimate import (
                has_sparse_operands,
                sequence_sparsity_estimates,
            )

            if has_sparse_operands(statements):
                from repro.codegen.dispatch import plan_execution

                estimates = sequence_sparsity_estimates(statements, bindings)
                execution_plan = plan_execution(statements, bindings)

        with tracer.span("codegen.source"):
            source = generate_source(structure, bindings)
            peak_memory(structure, bindings)
        counts["codegen.source_lines"] = source.count("\n")

        mode = "gemm" if config.codegen == "auto" else config.codegen
        with tracer.span("kernels.lower"):
            kernel_plan = compile_kernel_plan(
                statements, bindings, mode=mode, fuse=config.fuse_statements,
                semiring=config.semiring,
            )
        counts["kernels.terms_gemm"] = kernel_plan.gemm_terms
        counts["kernels.terms_native"] = kernel_plan.native_terms
        counts["kernels.terms_einsum"] = kernel_plan.einsum_terms
        counts["kernels.fused_groups"] = len(kernel_plan.fused_groups)

        threads = config.kernel_threads or 1
        specs = native_specs(kernel_plan) if mode == "native" else []
        with tracer.span("kernels.native_compile"):
            for spec in specs:
                with tracer.span("kernels.engine_function"):
                    if engine.function(spec, np.float64, threads=threads) is None:
                        raise RuntimeError("nest did not compile")

        result = SynthesisResult(
            program, config, statements, structure, source, [],
            partition_plans, {i.name: b for i, b in loc.tile_sizes.items()},
            execution_plan, estimates, None,
            kernel_plan=kernel_plan, pre_locality_structure=pre_locality,
            locality_table=locality_table, grid_table=grid_table,
            codegen_mode=mode,
            native_artifacts=[
                engine.key(s, np.float64, threads=threads) for s in specs
            ],
        )
        with tracer.span("runtime.plan_cache_put"):
            cache.put(key, result)
    counts["runtime.plan_pickle_bytes"] = len(
        pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    )
    return {"result": result, "key": key, "counts": counts}


def emitted_sizes(kernel_plan, engine, threads: int) -> Dict[str, int]:
    """Bytes of nest IR and of the C the engine emits for a native plan
    (read outside the timed spans: ``synthesize`` does not render it twice)."""
    from repro.codegen import cgen
    from repro.kernels.native import FusedSpec

    specs = native_specs(kernel_plan) if kernel_plan.mode == "native" else []
    total = 0
    for spec in specs:
        fused = isinstance(spec, FusedSpec)
        outer = (spec.out_extents if fused else spec.extents)[0] if spec.nout else 0
        eff = max(1, min(threads, outer)) if outer else 1
        strategy = engine.parallel_strategy(eff)
        emit = cgen.c_fused_source if fused else cgen.c_source
        total += len(
            emit(spec, "double", engine.tile, threads=eff, parallel=strategy,
                 simd=engine.openmp())
        )
    return {
        "codegen.nest_ir_bytes": sum(len(spec.ir()) for spec in specs),
        "codegen.c_source_bytes": total,
    }


def replay_warm(
    text: str,
    config: SynthesisConfig,
    tracer: Tracer,
    plan_dir: str,
    engine,
) -> PlanCache:
    """The warm-tier compile, span by span: key, disk-tier hit, the
    artifact loads, then a memory-tier hit on the same cache (returned
    for its counters)."""
    with tracer.span("compile_warm"):
        key = plan_key(parse_program(text), config)
        cache = PlanCache(directory=plan_dir)
        with tracer.span("runtime.plan_cache_disk_hit"):
            found = cache.get(key)
        if found is None or found[1] != "disk":
            raise RuntimeError(f"expected a disk-tier hit, got {found and found[1]}")
        result = found[0]
        if result.codegen_mode == "native":
            with tracer.span("kernels.artifact_load"):
                load_nests(result.kernel_plan, engine, config.kernel_threads or 1)
    with tracer.span("runtime.plan_cache_mem_hit"):
        again = cache.get(key)
    if again is None or again[1] != "memory":
        raise RuntimeError("expected a memory-tier hit")
    return cache
