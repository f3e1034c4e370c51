"""Thread-parallel native nests and cross-statement fusion.

The headline contract under test: a parallel nest (OpenMP pragmas or
the portable chunked fallback, fused or unfused) is **bit-identical**
to the sequential nest -- each output element is computed by exactly
one thread in an unchanged inner order, so there is no reassociation
to tolerate, and ``np.array_equal`` is the right assertion.  The
concurrency tests pin the engine's per-key coalescing (one compiler
fork under an 8-thread hammer) and the arena's single-threaded
contract (structured error, never silent corruption).
"""

import os
import re
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.codegen.cgen import (
    PACK_LIMIT,
    UNITS,
    _check_parallel,
    c_fused_source,
    c_source,
    py_fused_source,
    render_fused_ir,
)
from repro.engine.executor import run_statements
from repro.expr.parser import parse_program
from repro.kernels import (
    ArtifactStore,
    BufferArena,
    FusedSpec,
    KernelRunner,
    NativeEngine,
    artifact_key,
    compile_kernel_plan,
    native_available,
)
from repro.pipeline import SynthesisConfig, synthesize
from repro.semiring import available_semirings, get_semiring
from repro.robustness.errors import ReproError, SpecError

from tests.test_kernels import _CountingArena, _CountingRunner
from tests.test_kernels_native import (
    COMMON,
    SCHEDULED,
    _spec,
    _compiled_nest,
    _engine_for,
    _unit_id,
    _einsum_of,
    _matmul_stmt,
    _nest_inputs,
    _reference_nest,
    _spec_of,
    nest_specs,
    nest_statements,
)

RTOL, ATOL = 1e-12, 1e-12

needs_compiler = pytest.mark.skipif(
    not native_available(),
    reason="no native backend (a C compiler) on this machine",
)

needs_cc = pytest.mark.skipif(
    NativeEngine(backend="cc").backend != "cc",
    reason="no C compiler on this machine",
)


FUSABLE_SRC = """
range V = 7; range O = 4;
index a, b, c : V; index k : O;
tensor A(a, c); tensor B(c, b); tensor C(a, c); tensor D(c, b);
T1(a, b) = sum(c) A(a, c) * B(c, b);
T2(a, b) = sum(c) C(a, c) * D(c, b);
"""

# same pair, closed over a final result so the full pipeline accepts it
PIPE_SRC = """
range V = 7;
index a, b, c : V;
tensor A(a, c); tensor B(c, b); tensor C(a, c); tensor D(c, b);
T1(a, b) = sum(c) A(a, c) * B(c, b);
T2(a, b) = sum(c) C(a, c) * D(c, b);
R(a, b) = T1(a, b) + T2(a, b);
"""

# T2 reads T1 at the identity output point (a, b): legal to fuse, but
# the buffers alias, so ``restrict`` must come off the fused kernel.
ALIASED_SRC = """
range V = 6; range O = 4;
index a, b, c : V; index k : O;
tensor A(a, c); tensor B(c, b); tensor W(k);
T1(a, b) = sum(c) A(a, c) * B(c, b);
T2(a, b) = sum(k) T1(a, b) * W(k);
"""

# T2 reads T1 at a *different* point than it writes: fusing would read
# elements another thread/iteration has not produced yet -- illegal.
PERMUTED_READ_SRC = """
range V = 6;
index a, b, c : V;
tensor A(a, c); tensor B(c, b);
T1(a, b) = sum(c) A(a, c) * B(c, b);
T2(a, b) = sum(c) T1(b, c) * B(c, a);
"""

# the probe of ISSUE 20 / EXPERIMENTS.md E29 (at N = 192 there): operation
# minimisation makes it two matrix products and their pointwise product,
# one aliased group of three members
PROBE_SRC = """
range N = 40;
index i, j, k, l : N;
tensor A(i, k); tensor B(k, j); tensor C(i, l); tensor D(l, j);
Y(i, j) = sum(k, l) A(i, k) * B(k, j) * C(i, l) * D(l, j);
"""

# groups whose members take different renderings, over rows that do not
# divide the 4-row block (nor split evenly over 2 or 3 threads) and one
# summation longer than the tile
GROUPS = {
    # T1 is packed and register-blocked on v0, T2 reads it and is plain
    "aliased, scheduled then plain": """
        range I = 9; range J = 8; range K = 70;
        index i : I; index j : J; index k : K;
        tensor A(i, k); tensor B(j, k); tensor W(k);
        T1(i, j) = sum(k) A(i, k) * B(j, k);
        T2(i, j) = sum(k) T1(i, j) * W(k);
    """,
    # R is one slot two members fold into, in term order
    "two-term statement, one slot": """
        range I = 9; range J = 8; range K = 70;
        index i : I; index j : J; index k : K;
        tensor A(i, k); tensor B(k, j); tensor C(i, k); tensor D(j, k);
        R(i, j) = sum(k) A(i, k) * B(k, j) + sum(k) C(i, k) * D(j, k);
        S(i, j) = sum(k) A(i, k) * D(j, k);
    """,
}


def _probe_group():
    """The probe's fused group, lowered the way the pipeline does."""
    result = synthesize(PROBE_SRC, SynthesisConfig(optimize_cache=False))
    plan = compile_kernel_plan(
        list(result.statements), mode="native", fuse=True
    )
    (group,) = plan.fused_groups
    return group.spec


#: what a kernel holds besides its nests' loops: comments, the
#: signature, the parallel region, a group's bindings, barriers and the
#: blocks that scope each member
_NOT_LOOPS = re.compile(
    r"/\*|#include|void kern|[{}]$|#pragma omp (parallel|barrier)"
    r"|.* = (coefs\[\d+\]|[go]\d+);$"
)


def _nest_lines(src):
    """The loops of an emitted kernel, indentation and ``restrict``
    aside (an aliased group drops the qualifier)."""
    return [
        line.strip().replace(" restrict", "") for line in src.splitlines()
        if not _NOT_LOOPS.match(line.strip())
    ]


def _py_group(plan, group, inputs, semiring="plus_times"):
    """``exec(py_fused_source(group))`` over ``inputs``: name -> array."""
    namespace = {}
    exec(py_fused_source(group.spec), namespace)  # noqa: S102
    fspec = group.spec
    outs = [
        np.full(fspec.out_extents, get_semiring(semiring).zero)
        for _ in range(fspec.nslots)
    ]
    by_name = dict(zip(group.outputs, outs))
    coefs, ops = [], []
    for si, ti in group.members:
        term = plan.statements[si].terms[ti]
        coefs.append(term.coef)
        for op in term.operands:
            src = by_name.get(op.name, inputs.get(op.name))
            ops.append(np.ascontiguousarray(src).ravel())
    namespace["kern"](
        np.asarray(coefs, dtype=np.float64), *ops,
        *[o.ravel() for o in outs],
    )
    return by_name


def _check_group_parity(name, semiring, strategy):
    """Fused == unfused == the Python reference, bit for bit, at
    threads 1, 2, 3 -- the group is its members' own nests."""
    stmts = list(parse_program(GROUPS[name]).statements)
    fused = compile_kernel_plan(
        stmts, mode="native", fuse=True, semiring=semiring
    )
    plain = compile_kernel_plan(stmts, mode="native", semiring=semiring)
    (group,) = fused.fused_groups
    assert group.stop - group.start == len(stmts)
    inputs = _parity_inputs(stmts, seed=17)
    engine = NativeEngine(backend="cc")
    want = KernelRunner(
        plain, engine=engine, threads=1, keep=group.outputs
    ).run(dict(inputs), copy=True)
    reference = _py_group(fused, group, inputs, semiring)
    for threads in (1, 2, 3):
        if threads > 1:
            assert engine.parallel_strategy(threads) == strategy
        runner = KernelRunner(
            fused, engine=engine, threads=threads, keep=group.outputs
        )
        got = runner.run(dict(inputs))
        assert runner.notes == [], runner.notes
        for out in group.outputs:
            assert np.array_equal(got[out], want[out]), (out, threads)
            assert np.array_equal(got[out], reference[out]), (out, threads)


def _parity_inputs(stmts, seed):
    rng = np.random.default_rng(seed)
    names = {}
    for stmt in stmts:
        for ref in stmt.expr.refs():
            if ref.tensor.name not in names and not ref.tensor.is_function:
                names[ref.tensor.name] = tuple(
                    i.extent() for i in ref.indices
                )
    produced = {s.result.name for s in stmts}
    return {
        name: rng.standard_normal(shape)
        for name, shape in names.items()
        if name not in produced
    }


class TestEmission:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="parallel strategy"):
            _check_parallel("cuda", 2)

    def test_parallel_scalar_output_rejected(self):
        with pytest.raises(ValueError, match="output loop"):
            _check_parallel("omp", 0)

    def test_omp_pragmas_land_on_the_right_loops(self):
        spec = _spec_of(compile_kernel_plan([_matmul_stmt()], mode="native"))
        src = c_source(spec, threads=3, parallel="omp", simd=True)
        assert "#pragma omp parallel num_threads(3)" in src
        lines = src.splitlines()
        for_line = next(
            i for i, l in enumerate(lines) if "#pragma omp for" in l
        )
        # the work-shared loop is the outermost *output* loop
        assert "for (long v0" in lines[for_line + 1]
        assert any("#pragma omp simd" in l for l in lines)
        assert "restrict" in src

    def test_chunk_kernel_gains_bounds_arguments(self):
        spec = _spec_of(compile_kernel_plan([_matmul_stmt()], mode="native"))
        src = c_source(spec, parallel="chunk")
        assert "long lo, long hi" in src
        # v0 is this nest's register-block loop: full blocks, then rows
        assert "for (long v0 = lo; v0 < hi - 3; v0 += 4)" in src
        assert "for (long v0 = lo + (hi - lo) / 4 * 4; v0 < hi; ++v0)" in src
        assert "#pragma omp" not in src

    def test_sequential_source_is_unchanged_by_the_feature(self):
        spec = _spec_of(compile_kernel_plan([_matmul_stmt()], mode="native"))
        assert c_source(spec) == c_source(spec, threads=1, parallel="none")

    def test_fused_ir_is_deterministic_and_content_bearing(self):
        prog = parse_program(FUSABLE_SRC)
        plan = compile_kernel_plan(
            list(prog.statements), mode="native", fuse=True
        )
        assert plan.fused_groups
        fspec = plan.fused_groups[0].spec
        assert isinstance(fspec, FusedSpec)
        ir = render_fused_ir(fspec)
        assert ir == render_fused_ir(fspec)
        assert "fused nout=" in ir
        assert "member0:" in ir and "member1:" in ir
        assert ir != render_fused_ir(
            FusedSpec(
                nout=fspec.nout,
                out_extents=fspec.out_extents,
                members=fspec.members,
                out_slots=fspec.out_slots,
                nslots=fspec.nslots,
                aliased=not fspec.aliased,
            )
        )

    def test_aliased_group_drops_restrict(self):
        prog = parse_program(ALIASED_SRC)
        plan = compile_kernel_plan(
            list(prog.statements), mode="native", fuse=True
        )
        assert plan.fused_groups and plan.fused_groups[0].spec.aliased
        src = c_fused_source(plan.fused_groups[0].spec)
        assert "restrict" not in src

    def test_unaliased_group_keeps_restrict(self):
        prog = parse_program(FUSABLE_SRC)
        plan = compile_kernel_plan(
            list(prog.statements), mode="native", fuse=True
        )
        assert not plan.fused_groups[0].spec.aliased
        assert "restrict" in c_fused_source(plan.fused_groups[0].spec)

    def test_group_members_keep_the_nest_they_get_alone(self):
        """A group emits no loops of its own: each member's block holds
        exactly the lines ``c_source`` renders for that nest alone --
        register-block accumulators, pack panels and all."""
        for fspec in (
            _probe_group(),
            compile_kernel_plan(
                list(parse_program(
                    GROUPS["aliased, scheduled then plain"]
                ).statements),
                mode="native", fuse=True,
            ).fused_groups[0].spec,
        ):
            for how in (
                dict(),
                dict(threads=3, parallel="omp", simd=True),
                dict(parallel="chunk"),
            ):
                group = c_fused_source(fspec, **how)
                assert "m0v" not in group  # the per-point emitter's names
                alone = [
                    line
                    for member in fspec.members
                    for line in _nest_lines(c_source(member, **how))
                ]
                assert any("acc0[" in line for line in alone)
                assert _nest_lines(group) == alone
        packed = c_fused_source(fspec)
        assert "acc0[" in packed and " p1[" in packed
        assert "acc0[" in c_fused_source(_probe_group())

    def test_omp_group_has_a_barrier_between_consecutive_members(self):
        fspec = _probe_group()
        src = c_fused_source(fspec, threads=2, parallel="omp")
        assert src.count("#pragma omp barrier") == len(fspec.members) - 1
        assert src.count("#pragma omp parallel") == 1
        assert "#pragma omp barrier" not in c_fused_source(fspec)
        assert "#pragma omp" not in c_fused_source(fspec, parallel="chunk")

    def test_pack_limit_bounds_the_whole_group(self):
        """``PACK_LIMIT`` is per kernel: members' panels add up in
        statement order, and the member that would pass the limit is
        rendered plain, as a lone nest over it is."""
        member = _spec((4, 16, 70, 70, 70), 2, [(0, 2, 3, 4), (1, 2, 4, 3)])
        fspec = FusedSpec(
            nout=2, out_extents=(4, 8), members=(member, member),
            out_slots=(0, 1), nslots=2,
        )
        panel = f" p1[{PACK_LIMIT}] "
        assert panel in c_source(member, tile=16)  # alone it just fits
        src = c_fused_source(fspec, tile=16)
        assert src.count(panel) == 1
        first, second = src.split("coef = coefs[1]")
        assert "acc0[" in first and "acc0[" not in second
        assert " acc = " in second
        assert c_fused_source(fspec, tile=4).count(" p1[1024] ") == 2

    def test_py_fused_source_matches_statements(self):
        prog = parse_program(ALIASED_SRC)
        stmts = list(prog.statements)
        plan = compile_kernel_plan(stmts, mode="native", fuse=True)
        inputs = _parity_inputs(stmts, seed=3)
        want = run_statements(stmts, dict(inputs))
        got = _py_group(plan, plan.fused_groups[0], inputs)
        for name, out in got.items():
            np.testing.assert_allclose(
                out, want[name], rtol=RTOL, atol=ATOL
            )


class TestFusionLegality:
    def _groups(self, src, **kwargs):
        prog = parse_program(src)
        plan = compile_kernel_plan(
            list(prog.statements), mode="native", fuse=True, **kwargs
        )
        return plan

    def test_independent_same_space_statements_fuse(self):
        plan = self._groups(FUSABLE_SRC)
        assert len(plan.fused_groups) == 1
        group = plan.fused_groups[0]
        assert group.outputs == ("T1", "T2")
        assert plan.fused_statements == 2

    def test_identity_read_of_earlier_member_fuses_as_aliased(self):
        plan = self._groups(ALIASED_SRC)
        assert len(plan.fused_groups) == 1
        assert plan.fused_groups[0].spec.aliased

    def test_permuted_read_of_earlier_member_blocks_fusion(self):
        plan = self._groups(PERMUTED_READ_SRC)
        assert plan.fused_groups == ()

    def test_different_output_spaces_block_fusion(self):
        plan = self._groups(
            """
            range V = 6;
            index a, b, c : V;
            tensor A(a, c); tensor B(c, b);
            T1(a, b) = sum(c) A(a, c) * B(c, b);
            T2(a) = sum(b, c) A(a, c) * B(c, b);
            """
        )
        assert plan.fused_groups == ()

    def test_fuse_flag_off_builds_no_groups(self):
        prog = parse_program(FUSABLE_SRC)
        plan = compile_kernel_plan(list(prog.statements), mode="native")
        assert plan.fused_groups == ()
        assert plan.fused_statements == 0

    def test_non_native_modes_ignore_fuse(self):
        prog = parse_program(FUSABLE_SRC)
        plan = compile_kernel_plan(
            list(prog.statements), mode="gemm", fuse=True
        )
        assert plan.fused_groups == ()

    def test_groups_pickle_with_the_plan(self):
        import pickle

        plan = self._groups(FUSABLE_SRC)
        again = pickle.loads(pickle.dumps(plan))
        assert again.fused_groups[0].outputs == ("T1", "T2")
        assert again.fused_groups[0].spec.ir() == (
            plan.fused_groups[0].spec.ir()
        )


@needs_compiler
class TestParallelParity:
    @settings(max_examples=25, **COMMON)
    @given(
        stmt=nest_statements(),
        threads=st.sampled_from([2, 4, 8]),
        seed=st.integers(0, 2**16),
    )
    def test_threaded_nest_is_bit_identical_to_sequential(
        self, stmt, threads, seed
    ):
        plan = compile_kernel_plan([stmt], mode="native")
        if plan.native_terms == 0:
            return
        spec = _spec_of(plan)
        engine = NativeEngine()
        fn1 = engine.function(spec, np.float64, threads=1)
        fnN = engine.function(spec, np.float64, threads=threads)
        assert fn1 is not None and fnN is not None
        rng = np.random.default_rng(seed)
        ops = [
            np.ascontiguousarray(
                rng.standard_normal(
                    tuple(spec.extents[p] for p in axes)
                )
            )
            for axes in spec.operands
        ]
        a = np.zeros(spec.out_shape)
        b = np.zeros(spec.out_shape)
        fn1(1.5, ops, a)
        fnN(1.5, ops, b)
        assert np.array_equal(a, b)
        np.testing.assert_allclose(
            a, 1.5 * _einsum_of(spec, ops), rtol=RTOL, atol=ATOL
        )

    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_runner_parity_across_threads_and_dtypes(self, threads, dtype):
        stmt = _matmul_stmt((9, 8, 70))
        plan = compile_kernel_plan([stmt], mode="native")
        rng = np.random.default_rng(21)
        inputs = {
            "A": rng.standard_normal((9, 70)).astype(dtype),
            "B": rng.standard_normal((70, 8)).astype(dtype),
        }
        runner = KernelRunner(plan, threads=threads)
        got = runner.run(inputs)["S"]
        want = inputs["A"].astype(np.float64) @ inputs["B"].astype(
            np.float64
        )
        rtol = RTOL if dtype is np.float64 else 2e-4
        np.testing.assert_allclose(
            got.astype(np.float64), want, rtol=rtol, atol=rtol
        )

    def test_fused_group_bit_identical_across_threads(self):
        prog = parse_program(ALIASED_SRC)
        stmts = list(prog.statements)
        plan = compile_kernel_plan(stmts, mode="native", fuse=True)
        assert plan.fused_groups
        inputs = _parity_inputs(stmts, seed=5)
        want = run_statements(stmts, dict(inputs))
        runs = {}
        for threads in (1, 2, 4, 8):
            runner = KernelRunner(plan, threads=threads)
            runs[threads] = runner.run(dict(inputs))
            assert runner.notes == []
        for name in plan.outputs:
            np.testing.assert_allclose(
                runs[1][name], want[name], rtol=RTOL, atol=ATOL
            )
            assert np.array_equal(runs[1][name], runs[2][name])
            assert np.array_equal(runs[1][name], runs[4][name])
            assert np.array_equal(runs[1][name], runs[8][name])

    def test_fused_matches_unfused_exactly(self):
        prog = parse_program(FUSABLE_SRC)
        stmts = list(prog.statements)
        fused = compile_kernel_plan(stmts, mode="native", fuse=True)
        plain = compile_kernel_plan(stmts, mode="native")
        assert fused.fused_groups and not plain.fused_groups
        inputs = _parity_inputs(stmts, seed=6)
        got_f = KernelRunner(fused).run(dict(inputs))
        got_p = KernelRunner(plain).run(dict(inputs))
        for name in ("T1", "T2"):
            assert np.array_equal(got_f[name], got_p[name])

    @pytest.mark.parametrize("semiring", available_semirings())
    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_fused_group_equals_unfused_and_reference(self, name, semiring):
        if not NativeEngine(backend="cc").openmp():
            pytest.skip("this compiler has no OpenMP")
        _check_group_parity(name, semiring, "omp")

    def test_thread_count_capped_by_outer_extent(self):
        """Requesting more threads than the outer loop has iterations
        degrades to the extent (and to sequential at extent 1)."""
        stmt = _matmul_stmt((2, 6, 7))
        spec = _spec_of(compile_kernel_plan([stmt], mode="native"))
        engine = NativeEngine()
        fn = engine.function(spec, np.float64, threads=16)
        assert fn is not None
        rng = np.random.default_rng(8)
        ops = [
            np.ascontiguousarray(rng.standard_normal((2, 7))),
            np.ascontiguousarray(rng.standard_normal((7, 6))),
        ]
        out = np.zeros(spec.out_shape)
        fn(1.0, ops, out)
        np.testing.assert_allclose(
            out, _einsum_of(spec, ops), rtol=RTOL, atol=ATOL
        )


@needs_cc
class TestChunkFallback:
    def test_no_openmp_machine_degrades_to_chunk(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_OPENMP", "1")
        engine = NativeEngine(backend="cc")
        assert not engine.openmp()
        assert engine.parallel_strategy(2) == "chunk"
        note = engine.parallel_note(2)
        assert note is not None and "chunked outer-loop fallback" in note
        assert "OpenMP disabled" in note

    def test_chunk_results_bit_identical(self, monkeypatch):
        stmt = _matmul_stmt((11, 5, 40))
        spec = _spec_of(compile_kernel_plan([stmt], mode="native"))
        rng = np.random.default_rng(13)
        ops = [
            np.ascontiguousarray(rng.standard_normal((11, 40))),
            np.ascontiguousarray(rng.standard_normal((40, 5))),
        ]
        seq = NativeEngine(backend="cc")
        fn1 = seq.function(spec, np.float64, threads=1)
        a = np.zeros(spec.out_shape)
        fn1(2.0, ops, a)
        monkeypatch.setenv("REPRO_NO_OPENMP", "1")
        chunked = NativeEngine(backend="cc")
        fnN = chunked.function(spec, np.float64, threads=4)
        assert chunked.parallel_strategy(4) == "chunk"
        b = np.zeros(spec.out_shape)
        fnN(2.0, ops, b)
        assert np.array_equal(a, b)

    def test_broken_compiler_probe_reports_structured_reason(
        self, monkeypatch
    ):
        from repro.kernels.native import _openmp_supported

        # the env kill-switch outranks the probe; clear it so the
        # broken-compiler path itself is what produces the reason
        monkeypatch.delenv("REPRO_NO_OPENMP", raising=False)
        ok, reason = _openmp_supported("/bin/false")
        assert not ok
        assert "-fopenmp" in reason

    def test_working_compiler_keeps_omp(self):
        engine = NativeEngine(backend="cc")
        if not engine.openmp():
            pytest.skip("this compiler has no OpenMP")
        assert engine.parallel_strategy(2) == "omp"
        assert engine.parallel_note(2) is None
        assert "-fopenmp" in engine.flags(2)


@needs_cc
class TestScheduledChunkLeg:
    """The scheduled rendering under the portable strategy: ``(lo, hi)``
    slices of the work-shared loop -- which may be the register-block
    loop, split mid-block -- still equal the reference bit for bit."""

    @pytest.fixture(autouse=True)
    def _no_openmp(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_OPENMP", "1")

    @pytest.mark.parametrize("unit", UNITS, ids=_unit_id)
    @pytest.mark.parametrize("semiring", ["plus_times", "min_plus"])
    @pytest.mark.parametrize("name", sorted(SCHEDULED))
    def test_chunked_scheduled_nest_equals_reference(
        self, name, semiring, unit, monkeypatch
    ):
        import dataclasses

        spec = dataclasses.replace(SCHEDULED[name], semiring=semiring)
        ops, coef = _nest_inputs(spec, seed=11)
        engine = _engine_for(monkeypatch, unit)
        assert engine.parallel_strategy(2) == "chunk"
        want = _reference_nest(spec, engine.tile, coef, ops)
        for threads in (2, 4):
            got = _compiled_nest(engine, spec, threads, coef, ops)
            assert np.array_equal(got, want), threads

    @pytest.mark.parametrize("semiring", ["plus_times", "min_plus"])
    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_chunked_fused_group_equals_unfused_and_reference(
        self, name, semiring
    ):
        _check_group_parity(name, semiring, "chunk")

    @settings(
        max_examples=15,
        deadline=None,
        derandomize=True,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(
        spec=nest_specs(),
        threads=st.sampled_from([2, 4]),
        unit=st.sampled_from(UNITS),
        seed=st.integers(0, 2**16),
    )
    def test_chunked_random_nest_equals_reference(
        self, spec, threads, unit, seed
    ):
        ops, coef = _nest_inputs(spec, seed)
        engine = NativeEngine(backend="cc")
        assume(unit.bits <= engine.vector_unit().bits)  # runnable here
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(NativeEngine, "vector_unit", lambda self: unit)
            got = _compiled_nest(engine, spec, threads, coef, ops)
        assert np.array_equal(
            got, _reference_nest(spec, engine.tile, coef, ops)
        )


@needs_compiler
class TestEngineConcurrency:
    def test_hammer_compiles_once(self, tmp_path):
        """8 threads demanding the same threaded nest fork the compiler
        exactly once; everyone else waits on the in-flight event."""
        stmt = _matmul_stmt((8, 8, 8))
        spec = _spec_of(compile_kernel_plan([stmt], mode="native"))
        engine = NativeEngine(store=ArtifactStore(directory=str(tmp_path)))
        results = [None] * 8
        barrier = threading.Barrier(8)

        def worker(slot):
            barrier.wait()
            results[slot] = engine.function(spec, np.float64, threads=2)

        threads = [
            threading.Thread(target=worker, args=(s,)) for s in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(fn is not None for fn in results)
        assert len({id(fn) for fn in results}) == 1
        assert engine.compile_invocations == 1

    def test_distinct_thread_counts_are_distinct_artifacts(self, tmp_path):
        stmt = _matmul_stmt((8, 8, 8))
        spec = _spec_of(compile_kernel_plan([stmt], mode="native"))
        engine = NativeEngine(store=ArtifactStore(directory=str(tmp_path)))
        keys = {engine.key(spec, np.float64, threads=t) for t in (1, 2, 4)}
        assert len(keys) == 3

    def test_warm_store_loads_threaded_and_fused_keys(self, tmp_path):
        prog = parse_program(FUSABLE_SRC)
        stmts = list(prog.statements)
        plan = compile_kernel_plan(stmts, mode="native", fuse=True)
        fspec = plan.fused_groups[0].spec
        specs = [t.native for sp in plan.statements for t in sp.terms
                 if t.native is not None]
        cold = NativeEngine(store=ArtifactStore(directory=str(tmp_path)))
        if cold.backend != "cc":
            pytest.skip("warm .so loading is the cc backend's property")
        for spec in specs:
            assert cold.function(spec, np.float64, threads=2) is not None
        assert cold.function(fspec, np.float64, threads=2) is not None
        warm = NativeEngine(store=ArtifactStore(directory=str(tmp_path)))
        for spec in specs:
            assert warm.function(spec, np.float64, threads=2) is not None
        assert warm.function(fspec, np.float64, threads=2) is not None
        assert warm.compile_invocations == 0
        assert warm.store_loads >= 1

    def test_per_point_fused_artifact_is_a_clean_miss(self, tmp_path):
        """A group kernel published by the per-point emitter (PR 19 and
        before: the same IR without the ``form`` line) is never loaded:
        its key no longer occurs.  Single nests were not re-keyed and
        still load warm."""
        prog = parse_program(FUSABLE_SRC)
        plan = compile_kernel_plan(
            list(prog.statements), mode="native", fuse=True
        )
        fspec = plan.fused_groups[0].spec
        cold = NativeEngine(store=ArtifactStore(directory=str(tmp_path)))
        if cold.backend != "cc":
            pytest.skip("warm .so loading is the cc backend's property")
        for spec in fspec.members:
            assert cold.function(spec, np.float64, threads=2) is not None
        stale_ir = "\n".join(
            line for line in fspec.ir().splitlines()
            if not line.startswith("form=")
        )
        assert stale_ir != fspec.ir()
        stale_key = artifact_key(
            stale_ir, np.dtype(np.float64).str, cold.backend,
            cold.compiler_identity(), cold.flags(2, fspec),
        )
        cold.store.put(stale_key, b"a kernel with the per-point loops")
        warm = NativeEngine(store=ArtifactStore(directory=str(tmp_path)))
        assert warm.key(fspec, np.float64, threads=2) != stale_key
        for spec in fspec.members:
            assert warm.function(spec, np.float64, threads=2) is not None
        assert warm.compile_invocations == 0 and warm.store_loads >= 1
        assert warm.function(fspec, np.float64, threads=2) is not None
        assert warm.compile_invocations == 1
        assert warm.recovery(fspec, np.float64, threads=2) is None

    def test_stats_count_parallel_and_fused_builds(self, tmp_path):
        prog = parse_program(FUSABLE_SRC)
        plan = compile_kernel_plan(
            list(prog.statements), mode="native", fuse=True
        )
        engine = NativeEngine(store=ArtifactStore(directory=str(tmp_path)))
        engine.function(plan.fused_groups[0].spec, np.float64, threads=2)
        stats = engine.stats()
        assert stats["fused_functions"] == 1
        assert stats["parallel_functions"] == 1
        assert "openmp" in stats and "threads" in stats


class TestArenaOwnership:
    def test_cross_thread_take_with_outstanding_raises(self):
        arena = BufferArena()
        arena.take((4,))
        caught = []

        def other():
            try:
                arena.take((4,))
            except ReproError as exc:
                caught.append(exc)

        t = threading.Thread(target=other)
        t.start()
        t.join()
        assert len(caught) == 1
        assert "single-threaded" in str(caught[0])
        assert caught[0].context["outstanding"] == 1

    def test_cross_thread_release_raises(self):
        arena = BufferArena()
        buf = arena.take((4,))
        caught = []

        def other():
            try:
                arena.release(buf)
            except ReproError as exc:
                caught.append(exc)

        t = threading.Thread(target=other)
        t.start()
        t.join()
        assert len(caught) == 1

    def test_quiescent_arena_rebinds_to_a_new_thread(self):
        """A runner built on one thread and driven from another (the
        server's executor pattern) keeps working."""
        arena = BufferArena()
        arena.release(arena.take((4,)))
        ok = []

        def other():
            buf = arena.take((4,))
            arena.release(buf)
            ok.append(True)

        t = threading.Thread(target=other)
        t.start()
        t.join()
        assert ok == [True]

    @needs_compiler
    def test_runner_rejects_concurrent_drives_structurally(self):
        stmt = _matmul_stmt((6, 6, 6))
        plan = compile_kernel_plan([stmt], mode="native")
        runner = KernelRunner(plan)
        rng = np.random.default_rng(2)
        inputs = {
            "A": rng.standard_normal((6, 6)),
            "B": rng.standard_normal((6, 6)),
        }
        runner.run(inputs)  # bind the arena to this thread
        runner.arena.take((1,))  # simulate an in-flight statement
        err = []

        def other():
            try:
                runner.arena.take((2,))
            except ReproError as exc:
                err.append(exc)

        t = threading.Thread(target=other)
        t.start()
        t.join()
        assert len(err) == 1 and "single-threaded" in str(err[0])


# a step of each kind the runner's one buffer discipline has to serve:
# (source, fuse, which compiled kernel -- in first-use order -- is in
# flight when the case's buffers are)
STEP_CASES = {
    # T1 and T2 are one fused group, R folds them and releases both
    "fused": (PIPE_SRC, True, 0),
    # X is rewritten from its own old value: old and scratch side by side
    "re-assignment": ("""
        range V = 6; index a, b, c : V;
        tensor A(a, c);
        X(a, b) = sum(c) A(a, c) * A(c, b);
        X(a, b) = sum(c) X(a, c) * X(c, b);
        Y(a, b) = sum(c) X(a, c) * A(c, b);
    """, False, 1),
    # S starts from the caller's array, then is added to in place
    "+= seeded": ("""
        range V = 6; index a, b, c : V;
        tensor A(a, c);
        T(a, b) = sum(c) A(a, c) * A(c, b);
        S(a, b) += sum(c) T(a, c) * A(c, b);
        S(a, b) += sum(c) A(a, c) * T(c, b);
    """, False, 2),
}


@needs_compiler
class TestRunnerSteps:
    """Group or single statement, every step acquires, computes,
    publishes and releases the same way -- and unwinds the same way."""

    def _case(self, name):
        src, fuse, _ = STEP_CASES[name]
        stmts = list(parse_program(src).statements)
        plan = compile_kernel_plan(stmts, mode="native", fuse=fuse)
        assert bool(plan.fused_groups) == fuse
        inputs = _parity_inputs(stmts, seed=11)
        if name == "+= seeded":
            inputs["S"] = np.ones((6, 6))
        return stmts, plan, inputs

    @pytest.mark.parametrize("name", sorted(STEP_CASES))
    def test_peak_live_elements_is_the_observed_high_water(self, name):
        stmts, plan, inputs = self._case(name)
        runner = _CountingRunner(plan, arena=_CountingArena())
        got = runner.run(inputs)
        assert runner.notes == []
        want = run_statements(stmts, dict(inputs))
        for out in plan.outputs:
            np.testing.assert_allclose(got[out], want[out], rtol=RTOL)
        assert runner.arena.peak == plan.peak_live_elements()
        assert runner.arena.outstanding == 0

    @pytest.mark.parametrize("name", sorted(STEP_CASES))
    def test_a_raising_kernel_leaves_nothing_outstanding(self, name):
        """Mid-group or mid-statement, with a re-assignment's scratch or
        a group's fresh outputs in flight."""
        _, plan, inputs = self._case(name)
        runner = KernelRunner(plan)
        want = runner.run(inputs, copy=True)

        def raising(*args):
            raise RuntimeError("injected kernel failure")

        compiled = dict(runner._compiled_fns)
        victim = list(compiled)[STEP_CASES[name][2]]
        runner._compiled_fns[victim] = raising
        with pytest.raises(RuntimeError, match="injected"):
            runner.run(inputs)
        assert runner.arena.outstanding == 0
        runner._compiled_fns.update(compiled)
        got = runner.run(inputs)
        for out in plan.outputs:
            assert np.array_equal(got[out], want[out])
        assert runner.arena.outstanding == 0

    def test_unavailable_group_runs_unfused_through_the_same_steps(self):
        _, plan, inputs = self._case("fused")
        real = NativeEngine(backend="cc")

        class NoGroups:
            def __getattr__(self, attr):
                return getattr(real, attr)

            def function(self, spec, dtype, threads=1):
                if isinstance(spec, FusedSpec):
                    return None
                return real.function(spec, dtype, threads=threads)

        want = KernelRunner(plan, engine=real).run(inputs, copy=True)
        runner = _CountingRunner(
            plan, engine=NoGroups(), arena=_CountingArena()
        )
        got = runner.run(inputs)
        assert any("statements run unfused" in n for n in runner.notes)
        for out in plan.outputs:
            assert np.array_equal(got[out], want[out])
        assert runner.arena.outstanding == 0
        assert runner.arena.peak <= plan.peak_live_elements()


@needs_compiler
class TestPipelineParallel:
    def test_threads_and_fusion_reach_the_report(self):
        prog = parse_program(PIPE_SRC)
        result = synthesize(
            prog,
            SynthesisConfig(
                codegen="native", kernel_threads=2, fuse_statements=True
            ),
        )
        report = next(
            r for r in result.reports if r.name == "Code generation"
        )
        assert report.details["kernel threads"] == 2
        assert report.details["parallel strategy"] in ("omp", "chunk")
        runner = result.kernel_runner()
        assert runner.threads == 2

    def test_invalid_kernel_threads_rejected(self, monkeypatch):
        # rejected up front: no search stage runs on a bad config
        monkeypatch.setattr("repro.pipeline.optimize_program", None)
        with pytest.raises(SpecError, match="kernel_threads"):
            synthesize(
                PIPE_SRC,
                SynthesisConfig(codegen="native", kernel_threads=0),
            )

    def test_no_openmp_pipeline_records_degradation(self, monkeypatch):
        """Satellite: threads on a no-OpenMP machine degrade to the
        chunked fallback with a structured note -- never an exception."""
        import repro.kernels.native as native_mod

        engine = NativeEngine(backend="cc")
        if engine.backend != "cc":
            pytest.skip("degradation note is the cc backend's property")
        monkeypatch.setenv("REPRO_NO_OPENMP", "1")
        monkeypatch.setattr(
            native_mod, "_default_engine", NativeEngine(backend="cc")
        )
        result = synthesize(
            PIPE_SRC,
            SynthesisConfig(codegen="native", kernel_threads=2),
        )
        report = next(
            r for r in result.reports if r.name == "Code generation"
        )
        assert report.details["parallel strategy"] == "chunk"
        assert any(
            "chunked outer-loop fallback" in n for n in report.notes
        )
        assert any(
            "chunked outer-loop fallback" in n
            for n in result.synthesis_notes
        )
        inputs = _parity_inputs(list(result.statements), seed=4)
        got = result.kernel_runner().run(inputs)
        want = run_statements(result.statements, dict(inputs))
        for name in got:
            if name in want:
                np.testing.assert_allclose(
                    got[name], want[name], rtol=RTOL, atol=ATOL
                )

    def test_fused_pipeline_zero_recompiles_when_warm(self, tmp_path):
        from repro.kernels import configure_default_engine, default_engine
        import repro.kernels.native as native_mod

        saved = native_mod._default_engine
        try:
            configure_default_engine(directory=str(tmp_path))
            cfg = SynthesisConfig(
                codegen="native", kernel_threads=2, fuse_statements=True
            )
            synthesize(PIPE_SRC, cfg)
            configure_default_engine(directory=str(tmp_path))
            if default_engine().backend != "cc":
                pytest.skip("warm loading is the cc backend's property")
            warm = synthesize(PIPE_SRC, cfg)
            report = next(
                r for r in warm.reports if r.name == "Code generation"
            )
            compiles = report.details[
                "artifact store (compiles/warm loads)"
            ]
            assert compiles.startswith("0/")
        finally:
            native_mod._default_engine = saved

    def test_threads_dimension_persists_in_tuning_db(
        self, tmp_path, monkeypatch
    ):
        """The autotuner's threads pick lands in TuningDecisions and in
        the persisted DB payload, and replays on a warm hit."""
        from repro.autotune import AutotuneOptions, TuningDB

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = SynthesisConfig(codegen="native")
        opts = AutotuneOptions(
            trials=1, warmup=0, db=TuningDB(directory=str(tmp_path))
        )
        cold = synthesize(PIPE_SRC, cfg, autotune=opts)
        assert cold.tuning.threads in (1, 2)
        warm = synthesize(
            PIPE_SRC,
            cfg,
            autotune=AutotuneOptions(
                trials=1, warmup=0, db=TuningDB(directory=str(tmp_path))
            ),
        )
        report = next(
            r for r in warm.reports if r.name == "Autotuning"
        )
        assert report.details["measurement runs"] == 0
        assert warm.tuning.threads == cold.tuning.threads
