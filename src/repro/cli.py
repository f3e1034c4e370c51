"""Command-line interface: the synthesis system as a compiler.

Usage::

    python -m repro input.tce                      # report only
    python -m repro input.tce --grid 2x2           # plan for a grid
    python -m repro input.tce --show-structure     # print the loop nest
    python -m repro input.tce --show-code          # print generated Python
    python -m repro input.tce --emit out.py        # write the kernel
    python -m repro input.tce --cache 32768 --memory 16777216
    python -m repro input.tce --budget-ms 50       # bounded search
    python -m repro input.tce --run --grid 2 --inject-fault drop:0
    python -m repro input.tce --semiring min_plus  # shortest-path algebra
    python -m repro run --semiring min_plus --codegen native   # APSP demo
    python -m repro serve --port 8075              # HTTP/JSON service

``repro serve`` starts the multi-tenant compilation service
(:mod:`repro.server`); ``repro run`` is the semiring graph-analytics
demonstration (all-pairs shortest paths executed on three independent
substrates and checked bit-identical); every other invocation is the
one-shot compiler below.

The input file uses the high-level notation of
:mod:`repro.expr.parser` (see ``examples/quickstart.py``).

Exit codes (see :mod:`repro.robustness.errors`):

====  =====================================================
code  meaning
====  =====================================================
0     success
1     other error
2     specification/parse error (bad input, bad fault spec)
3     budget exhausted without a fallback (strict budgets)
4     execution or validation failure
====  =====================================================
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.engine.machine import MachineModel
from repro.expr.parser import ParseError
from repro.parallel.commcost import CommModel
from repro.parallel.grid import ProcessorGrid
from repro.pipeline import SynthesisConfig, synthesize
from repro.robustness.budget import Budget
from repro.robustness.errors import ReproError, SpecError
from repro.robustness.faults import parse_chaos_spec, parse_fault_spec

#: exit codes by failure class (mirrors ReproError.exit_code)
EXIT_SPEC = 2
EXIT_EXECUTION = 4


def _fail(exc: Exception, code: int) -> int:
    """One structured diagnostic line on stderr, then the exit code."""
    print(f"error: {exc}", file=sys.stderr)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Synthesize optimized (parallel) loop programs from tensor "
            "contraction expressions (IPPS 2002 TCE framework)."
        ),
    )
    parser.add_argument("input", help="source file (or - for stdin)")
    parser.add_argument(
        "--grid",
        type=ProcessorGrid.parse,
        default=None,
        help="processor grid, e.g. 4 or 2x2x2 (default: sequential; "
        "exclusive with --processors)",
    )
    parser.add_argument(
        "--processors",
        type=int,
        default=None,
        help="processor count; the synthesis system picks the best "
        "logical grid shape (exclusive with --grid)",
    )
    parser.add_argument(
        "--cache", type=int, default=MachineModel.cache.capacity,
        help="cache capacity in elements",
    )
    parser.add_argument(
        "--memory", type=int, default=MachineModel.memory.capacity,
        help="physical memory capacity in elements",
    )
    parser.add_argument(
        "--disk", type=int, default=MachineModel.disk.capacity,
        help="disk capacity in elements",
    )
    parser.add_argument(
        "--capacity-level",
        default="memory", metavar="{memory,disk}",
        help="level the fused computation must fit into",
    )
    parser.add_argument(
        "--comm-cost", type=float, default=10.0,
        help="communication cost per element (in op units)",
    )
    parser.add_argument(
        "--no-cache-opt", action="store_true",
        help="skip the data-locality tile search",
    )
    parser.add_argument(
        "--semiring", default="plus_times", metavar="NAME",
        help="scalar algebra for every contraction: plus_times "
        "(default), min_plus (shortest paths), max_plus (critical "
        "paths), max_times (widest/most-reliable paths), or or_and "
        "(reachability); see repro.semiring",
    )
    parser.add_argument(
        "--sparse-aware", action="store_true",
        help="scale operation-minimization costs by declared "
        "sparse(fill) annotations",
    )
    parser.add_argument(
        "--no-sparse-exec", action="store_true",
        help="ignore sparse(fill) declarations at execution: terms "
        "with sparse operands run dense on the kernels and the "
        "loop-IR interpreter alike",
    )
    parser.add_argument(
        "--show-structure", action="store_true",
        help="print the synthesized loop structure",
    )
    parser.add_argument(
        "--show-code", action="store_true",
        help="print the generated Python source",
    )
    parser.add_argument(
        "--show-plans", action="store_true",
        help="print the chosen data distributions",
    )
    parser.add_argument(
        "--emit", metavar="FILE", default=None,
        help="write the generated Python kernel to FILE",
    )
    parser.add_argument(
        "--emit-spmd", metavar="FILE", default=None,
        help="write the generated per-rank SPMD program(s) to FILE "
        "(requires --grid)",
    )
    parser.add_argument(
        "--budget-ms", type=float, default=None,
        help="search deadline in milliseconds; exhausted stages degrade "
        "to documented greedy fallbacks",
    )
    parser.add_argument(
        "--budget-nodes", type=int, default=None,
        help="search node budget shared across all stages",
    )
    parser.add_argument(
        "--budget-strict", action="store_true",
        help="fail (exit code 3) instead of degrading when the search "
        "budget is exhausted",
    )
    parser.add_argument(
        "--run", action="store_true",
        help="execute the synthesized computation (compiled kernels, "
        "sparse steps included, unless the program exceeds --memory) on "
        "deterministic random inputs and validate against the "
        "reference executor",
    )
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="with --run: execute on the loop interpreter, with "
        "checkpoint/restart in DIR",
    )
    parser.add_argument(
        "--inject-fault", metavar="SPEC", default=None,
        help="with --run and a grid: inject SPMD faults, e.g. "
        "'drop:0,3', 'drop:0x5' (5 attempts), 'crash:1', or "
        "'drop:0;crash:2'",
    )
    parser.add_argument(
        "--inject-chaos", metavar="SPEC", default=None,
        help="with --run and --backend process: inject process-level "
        "chaos, e.g. 'kill_worker@0', 'hang_worker@1', 'drop_reply@2' "
        "(joined with ';'); a supervised pool recovers by respawn + "
        "session replay with bit-identical results",
    )
    parser.add_argument(
        "--backend",
        choices=("local", "process"),
        default="local",
        help="with --run and a grid: SPMD execution backend -- 'local' "
        "(in-process lock-step driver) or 'process' (worker OS "
        "processes, bit-identical results)",
    )
    parser.add_argument(
        "--procs", type=int, default=None,
        help="with --backend process: worker process count "
        "(default: one per rank)",
    )
    parser.add_argument(
        "--codegen",
        default="auto", metavar="{auto,native,gemm,einsum}",
        help="kernel codegen target: 'native' compiles fused tiled "
        "loop nests (C; machines without a compiler degrade "
        "to gemm and say so), 'gemm'/'einsum' force those lowerings, "
        "'auto' uses gemm and lets --autotune measure native",
    )
    parser.add_argument(
        "--kernel-threads", type=int, default=None, metavar="N",
        help="with --codegen native: thread count for compiled loop "
        "nests (OpenMP when the compiler supports -fopenmp, a portable "
        "chunked thread pool otherwise; results stay bit-identical to "
        "the sequential nest; default 1, or the autotuner's pick)",
    )
    parser.add_argument(
        "--fuse-statements", action="store_true",
        help="with --codegen native: fuse consecutive statements that "
        "share an output iteration space into single jointly-parallel "
        "kernels (one parallel region per fused group)",
    )
    parser.add_argument(
        "--artifact-store", metavar="DIR", default=None,
        help="content-addressed compiled-kernel store directory: warm "
        "runs load shared objects instead of re-invoking the compiler",
    )
    parser.add_argument(
        "--plan-cache", metavar="DIR", default=None,
        help="content-addressed synthesis cache directory: reuse the "
        "complete plan when program + config + version match",
    )
    parser.add_argument(
        "--autotune", action="store_true",
        help="measure the analytical searches' top candidates (kernel "
        "lowering, nest threads, grid shape) on this machine and keep "
        "the fastest",
    )
    parser.add_argument(
        "--tuning-db", metavar="DIR", default=None,
        help="with --autotune: persistent tuning database directory; "
        "repeat syntheses on the same machine skip measurement",
    )
    parser.add_argument(
        "--tune-trials", type=int, default=3,
        help="with --autotune: timed repetitions per candidate "
        "(median-of-N with outlier rejection; default 3)",
    )
    return parser


def _check_flags(args) -> None:
    """Range checks on the flags that are not ``SynthesisConfig`` fields
    (those are ``SynthesisConfig.validate``'s)."""
    if args.procs is not None and args.procs < 1:
        raise SpecError(
            f"--procs must be a positive worker count, got {args.procs}"
        )
    if args.budget_ms is not None and args.budget_ms <= 0:
        raise SpecError(
            f"--budget-ms must be a positive deadline, got {args.budget_ms:g}"
        )
    if args.budget_nodes is not None and args.budget_nodes < 0:
        raise SpecError(
            f"--budget-nodes must be >= 0, got {args.budget_nodes}"
        )
    if args.tune_trials < 1:
        raise SpecError(f"--tune-trials must be >= 1, got {args.tune_trials}")
    if args.tuning_db is not None and not args.autotune:
        raise SpecError("--tuning-db requires --autotune")
    if args.inject_fault is not None and not args.run:
        raise SpecError("--inject-fault requires --run")
    if args.inject_chaos is not None and not (
        args.run and args.backend == "process"
    ):
        raise SpecError(
            "--inject-chaos requires --run --backend process "
            "(chaos acts on worker OS processes)"
        )


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "serve":
        from repro.server.app import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "run":
        return _demo_main(argv[1:])
    args = build_parser().parse_args(argv)
    try:
        # every bad flag value is diagnosed here, before the input is opened
        _check_flags(args)
        faults = chaos = None
        if args.inject_fault is not None:
            faults = parse_fault_spec(args.inject_fault)
        if args.inject_chaos is not None:
            chaos = parse_chaos_spec(args.inject_chaos)
        budget = None
        if (
            args.budget_ms is not None
            or args.budget_nodes is not None
            or args.budget_strict
        ):
            budget = Budget(
                deadline_ms=args.budget_ms,
                max_nodes=args.budget_nodes,
                strict=args.budget_strict,
            )
        config = SynthesisConfig(
            machine=MachineModel.with_capacities(
                args.cache, args.memory, args.disk
            ),
            grid=args.grid,
            processors=args.processors,
            comm=CommModel(comm_cost=args.comm_cost),
            capacity_level=args.capacity_level,
            optimize_cache=not args.no_cache_opt,
            sparse_aware=args.sparse_aware,
            sparse_execution=not args.no_sparse_exec,
            budget=budget,
            codegen=args.codegen,
            kernel_threads=args.kernel_threads,
            fuse_statements=args.fuse_statements,
            semiring=args.semiring,
        )
        config.validate()
    except SpecError as exc:
        return _fail(exc, EXIT_SPEC)
    if args.input == "-":
        source = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
            return 2
    if args.artifact_store is not None:
        from repro.kernels import configure_default_engine

        configure_default_engine(directory=args.artifact_store)
    cache = None
    if args.plan_cache is not None:
        from repro.runtime.plan_cache import PlanCache

        cache = PlanCache(directory=args.plan_cache)
    autotune = None
    if args.autotune:
        from repro.autotune import AutotuneOptions, TuningDB

        autotune = AutotuneOptions(
            trials=args.tune_trials,
            db=(
                TuningDB(directory=args.tuning_db)
                if args.tuning_db is not None
                else None
            ),
            budget=budget,
        )
    try:
        result = synthesize(source, config, cache=cache, autotune=autotune)
    except ParseError as exc:
        return _fail(exc, EXIT_SPEC)
    except ReproError as exc:
        return _fail(exc, exc.exit_code)
    except ValueError as exc:
        return _fail(exc, 1)

    print(result.describe())
    if args.show_structure:
        print("\n# synthesized loop structure")
        print(result.render_structure())
    if args.show_plans and result.partition_plans:
        print("\n# distribution plans")
        for name, plan in result.partition_plans.items():
            print(f"-- {name} --")
            print(plan.describe())
    if args.show_code:
        print("\n# generated Python")
        print(result.source)
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as handle:
            handle.write("import numpy as _np\n\n")
            handle.write(result.source)
        print(f"\nwrote kernel to {args.emit}")
    if args.emit_spmd:
        if not result.partition_plans:
            return _fail(
                SpecError(
                    "--emit-spmd requires --grid and plannable statements"
                ),
                EXIT_SPEC,
            )
        with open(args.emit_spmd, "w", encoding="utf-8") as handle:
            for name, source in result.spmd_sources().items():
                handle.write(f"# ==== statement producing {name} ====\n")
                handle.write(source)
                handle.write("\n")
        print(f"wrote SPMD program(s) to {args.emit_spmd}")
    if args.run:
        rc = _run_and_validate(
            result, faults, args.checkpoint_dir,
            backend=args.backend, procs=args.procs, chaos=chaos,
        )
        if rc:
            return rc
    return 0


def _run_and_validate(
    result, faults, checkpoint_dir, *, backend="local", procs=None,
    chaos=None,
) -> int:
    """Execute the synthesis result on deterministic random inputs and
    compare against the reference einsum executor; 0 on success."""
    import numpy as np

    from repro.engine.executor import random_inputs, run_statements

    program = result.program
    bindings = result.config.bindings
    if any(t.is_function for t in program.tensors()):
        return _fail(
            SpecError(
                "--run cannot synthesize inputs for function tensors"
            ),
            EXIT_SPEC,
        )
    inputs = random_inputs(program, bindings, seed=0)
    try:
        if checkpoint_dir is not None:
            # checkpoint/restart is a feature of the interpreter
            env = result.execute(inputs, checkpoint=checkpoint_dir)
            substrate = "interp"
        else:
            env = result.run(inputs)
            substrate = env.substrate
        want = run_statements(
            program.statements, inputs, bindings,
            semiring=result.config.semiring,
        )
        for stmt in program.statements:
            name = stmt.result.name
            if not np.allclose(env[name], want[name], rtol=1e-8, atol=1e-10):
                return _fail(
                    ReproError(
                        f"output {name!r} does not match the reference "
                        "executor",
                        stage="validation",
                        tensor=name,
                    ),
                    EXIT_EXECUTION,
                )
        print(f"run: outputs match the reference executor ({substrate})")
        if result.partition_plans:
            supervisor = None
            if chaos is not None and chaos.any_chaos:
                from repro.parallel.session import worker_count
                from repro.robustness.faults import ChaosState
                from repro.runtime.supervisor import PoolSupervisor

                grid_size = next(
                    iter(result.partition_plans.values())
                ).grid.size
                supervisor = PoolSupervisor(
                    worker_count(grid_size, procs)[0],
                    chaos=ChaosState(chaos),
                )
            if supervisor is not None:
                with supervisor:
                    out = result.run_parallel(
                        inputs, faults=faults, backend=backend,
                        procs=procs, supervisor=supervisor,
                    )
            else:
                out = result.run_parallel(
                    inputs, faults=faults, backend=backend, procs=procs
                )
            from repro.parallel.session import FAULT_NOTE

            # what injected faults did is a report, not a warning
            reported = []
            for note in out.notes:
                if note.startswith(FAULT_NOTE):
                    reported.append(note)
                else:
                    print(f"warning: {note}", file=sys.stderr)
            for stmt in program.statements:
                name = stmt.result.name
                if name not in out:
                    continue
                if not np.allclose(
                    out[name], want[name], rtol=1e-8, atol=1e-10
                ):
                    return _fail(
                        ReproError(
                            f"parallel output {name!r} does not match "
                            "the reference executor",
                            stage="validation",
                            tensor=name,
                        ),
                        EXIT_EXECUTION,
                    )
            if supervisor is not None and (
                supervisor.respawns or supervisor.retries
            ):
                reported.append(
                    f"process chaos: {supervisor.respawns} respawn(s), "
                    f"{supervisor.retries} retried statement(s)"
                )
            suffix = f" ({'; '.join(reported)})" if reported else ""
            print(f"run: parallel outputs match the reference executor{suffix}")
        elif faults is not None:
            print(
                "run: no partition plans; fault injection had nothing "
                "to act on"
            )
    except ReproError as exc:
        return _fail(exc, exc.exit_code)
    return 0


def _demo_main(argv: List[str]) -> int:
    """``repro run``: the semiring graph-analytics demonstration.

    Synthesizes an all-pairs shortest-path (repeated-squaring) program
    under the chosen algebra and executes it on three independent
    substrates -- the loop-IR interpreter, the native-threaded kernel
    runner, and the process-backend SPMD driver -- checking the outputs
    bit-identical against each other and (for ``min_plus`` /
    ``or_and``) against a pure-Python oracle.  Also demonstrates the
    plan cache going cold -> warm and the semiring participating in the
    cache key.
    """
    parser = argparse.ArgumentParser(
        prog="repro run",
        description=(
            "All-pairs shortest paths as a tensor contraction program: "
            "cross-substrate bit-identity demo for --semiring"
        ),
    )
    parser.add_argument(
        "--semiring", default="min_plus", metavar="NAME",
        help="scalar algebra (default min_plus; see repro.semiring)",
    )
    parser.add_argument(
        "--codegen",
        choices=("auto", "native", "gemm", "einsum"),
        default="auto",
        help="kernel codegen target for the kernel-runner substrate",
    )
    parser.add_argument(
        "--nodes", type=int, default=10,
        help="graph size (default 10)",
    )
    parser.add_argument(
        "--density", type=float, default=0.4,
        help="edge density in [0, 1] (default 0.4)",
    )
    parser.add_argument("--seed", type=int, default=0, help="input seed")
    parser.add_argument(
        "--procs", type=int, default=2,
        help="worker processes for the SPMD substrate (default 2)",
    )
    args = parser.parse_args(argv)

    import numpy as np

    from repro.graphs import (
        apsp_program,
        floyd_warshall,
        random_weight_matrix,
        reachability,
    )
    from repro.runtime.plan_cache import PlanCache, plan_key
    from repro.semiring import get_semiring

    try:
        sr = get_semiring(args.semiring)
        if args.nodes < 2:
            raise SpecError(f"--nodes must be >= 2, got {args.nodes}")
        if not 0.0 <= args.density <= 1.0:
            raise SpecError(
                f"--density must be in [0, 1], got {args.density:g}"
            )
        if args.procs < 1:
            raise SpecError(f"--procs must be >= 1, got {args.procs}")
    except SpecError as exc:
        return _fail(exc, EXIT_SPEC)

    n = args.nodes
    source, res = apsp_program(n)
    base = random_weight_matrix(n, args.density, args.seed)
    if sr.name in ("min_plus", "max_plus"):
        weights = np.where(np.isfinite(base), base, sr.zero)
        np.fill_diagonal(weights, sr.one)
    else:
        # boolean-style carrier: present edges are 1, the diagonal too
        weights = np.isfinite(base).astype(np.float64)
        np.fill_diagonal(weights, 1.0)
    inputs = {"W": weights}
    print(
        f"run: apsp n={n} semiring={sr.name} codegen={args.codegen} "
        f"({sr.describe()})"
    )

    config = SynthesisConfig(
        semiring=sr.name, codegen=args.codegen, kernel_threads=2,
    )
    grid_config = SynthesisConfig(
        semiring=sr.name, grid=ProcessorGrid((args.procs,)),
    )
    try:
        import tempfile

        with tempfile.TemporaryDirectory(prefix="repro-plan-") as tmp:
            cache = PlanCache(directory=tmp)
            result = synthesize(source, config, cache=cache)
            cold = (cache.misses, cache.hits)
            result = synthesize(source, config, cache=cache)
            warm = (cache.misses, cache.hits)
        key = plan_key(result.program, config)
        other = plan_key(
            result.program,
            SynthesisConfig(codegen=args.codegen, kernel_threads=2),
        )
        if warm[1] <= cold[1] or key == other:
            return _fail(
                ReproError(
                    "plan cache did not distinguish the semiring",
                    stage="validation",
                ),
                EXIT_EXECUTION,
            )
        print(
            f"run: plan-cache cold miss -> warm hit "
            f"(key {key[:12]}..., plus_times key {other[:12]}...)"
        )

        out_interp = result.execute(inputs)[res]
        runner = result.kernel_runner()
        out_kernel = runner.run(inputs, copy=True)[res]
        grid_result = synthesize(source, grid_config)
        out_spmd = grid_result.run_parallel(
            inputs, backend="process", procs=args.procs
        )[res]
    except ReproError as exc:
        return _fail(exc, exc.exit_code)

    if not (
        np.array_equal(out_interp, out_kernel)
        and np.array_equal(out_interp, out_spmd)
    ):
        return _fail(
            ReproError(
                "substrates disagree: interp / native kernel / "
                "process-spmd outputs are not bit-identical",
                stage="validation",
                semiring=sr.name,
            ),
            EXIT_EXECUTION,
        )
    print(
        "run: interp, kernel-runner, and process-spmd outputs are "
        "bit-identical"
    )

    if sr.name == "min_plus":
        oracle = floyd_warshall(weights)
        ok = bool(np.allclose(out_interp, oracle, rtol=1e-12, atol=1e-12))
        label = "floyd_warshall"
    elif sr.name == "or_and":
        oracle = reachability(weights)
        ok = bool(np.array_equal(out_interp, oracle))
        label = "reachability"
    else:
        print(f"run: no pure-Python oracle registered for {sr.name}")
        return 0
    if not ok:
        return _fail(
            ReproError(
                f"result does not match the {label} oracle",
                stage="validation",
                semiring=sr.name,
            ),
            EXIT_EXECUTION,
        )
    print(f"run: matches the {label} oracle")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
