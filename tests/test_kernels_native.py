"""Native codegen backend: lowering, emitted nests, artifact store.

Parity discipline: the compiled nests must agree with the einsum
oracle -- float64 to the documented 1e-12 reassociation tolerance,
float32 to single-precision accumulation tolerance.  The store tests
assert the headline cache property: a warm process loads shared
objects with **zero** compiler invocations.  The degradation tests
assert the headline robustness property: a machine without any
compiler completes every plan through the embedded GEMM/einsum
fallback and says so in notes, never via an exception.
"""

import dataclasses
import math
import os
import pickle
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chem.workloads import random_contraction_program
from repro.codegen.cgen import (
    Schedule,
    c_source,
    nest_schedule,
    py_source,
    render_nest_ir,
)
from repro.engine.executor import random_inputs, run_statements
from repro.expr.ast import Mul, Statement, Sum, TensorRef
from repro.expr.indices import Index, IndexRange
from repro.expr.tensor import Tensor
from repro.kernels import (
    ArtifactStore,
    KernelRunner,
    NativeEngine,
    NativeSpec,
    artifact_key,
    compile_kernel_plan,
    native_available,
)
from repro.pipeline import SynthesisConfig, synthesize
from repro.robustness.errors import ShapeError, SpecError
from repro.semiring import available_semirings
from tests.test_kernels import BAD_INPUTS, bad_input_run
from tests.test_kernels import _matmul_stmt as shared_matmul_stmt

COMMON = dict(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

RTOL, ATOL = 1e-12, 1e-12

needs_compiler = pytest.mark.skipif(
    not native_available(),
    reason="no native backend (a C compiler) on this machine",
)


def _indices(extents):
    return [
        Index(f"i{k}", IndexRange(f"R{k}", e)) for k, e in enumerate(extents)
    ]


def _matmul_stmt(extents=(5, 6, 7)):
    i, j, k = _indices(extents)
    A = Tensor("A", (i, k))
    B = Tensor("B", (k, j))
    S = Tensor("S", (i, j))
    return Statement(
        S, Sum((k,), Mul((TensorRef(A, (i, k)), TensorRef(B, (k, j)))))
    )


def _spec_of(plan):
    """The first native nest spec in a compiled plan."""
    for sp in plan.statements:
        for term in sp.terms:
            if term.native is not None:
                return term.native
    raise AssertionError("plan lowered no native nests")


def _einsum_of(spec, ops):
    """The einsum oracle for a nest spec (handles diagonals)."""
    letters = [chr(ord("a") + p) for p in range(len(spec.extents))]
    sub = ",".join(
        "".join(letters[p] for p in axes) for axes in spec.operands
    )
    out = "".join(letters[: spec.nout])
    return np.einsum(f"{sub}->{out}", *ops, optimize=True)


@st.composite
def nest_statements(draw):
    """A random 2-3 operand contraction Statement (diagonals allowed)."""
    n = draw(st.integers(min_value=1, max_value=5))
    extents = [draw(st.integers(min_value=1, max_value=4)) for _ in range(n)]
    idx = _indices(extents)
    nops = draw(st.integers(min_value=2, max_value=3))
    refs = []
    used = set()
    for k in range(nops):
        arity = draw(st.integers(min_value=1, max_value=min(3, n)))
        axes = draw(
            st.lists(
                st.sampled_from(idx), min_size=arity, max_size=arity
            )
        )
        used.update(axes)
        refs.append((f"X{k}", tuple(axes)))
    used = sorted(used, key=lambda i: i.name)
    kept = [i for i in used if draw(st.booleans())]
    out = tuple(draw(st.permutations(kept))) if kept else ()
    sums = tuple(i for i in used if i not in out)
    tensors = [Tensor(name, axes) for name, axes in refs]
    S = Tensor("S", out)
    product = Mul(
        tuple(
            TensorRef(t, axes) for t, (_, axes) in zip(tensors, refs)
        )
    )
    expr = Sum(sums, product) if sums else product
    return Statement(S, expr)


needs_cc = pytest.mark.skipif(
    NativeEngine(backend="cc").backend != "cc",
    reason="no C compiler on this machine",
)

#: extents that do not divide the 4-row block or the 16-element strip,
#: and one (70) longer than the summation tile
AWKWARD = (1, 3, 9, 17, 70)


def _spec(extents, nout, operands, semiring="plus_times"):
    return NativeSpec(
        names=tuple(f"i{p}" for p in range(len(extents))),
        extents=tuple(extents),
        nout=nout,
        operands=tuple(tuple(axes) for axes in operands),
        semiring=semiring,
    )


@st.composite
def nest_specs(draw):
    """A random nest spec over awkward extents: 2-3 operands, diagonals
    allowed, any output arity, any registered semiring; sized so the
    pure-Python reference stays fast."""
    n = draw(st.integers(min_value=2, max_value=5))
    extents = [draw(st.sampled_from(AWKWARD)) for _ in range(n)]
    while math.prod(extents) > 30_000:
        big = extents.index(max(extents))
        extents[big] = AWKWARD[AWKWARD.index(extents[big]) - 1]
    nops = draw(st.integers(min_value=2, max_value=3))
    nout = draw(st.sampled_from([0, 1, 2, 2, 3, 3]))
    nout = min(nout, n)
    operands = [
        draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
        for _ in range(nops)
    ]
    if nout >= 2 and draw(st.booleans()):
        # lean toward nests the schedule accepts: one operand without
        # the vector index, the others without the loop before it
        operands[0] = [p for p in operands[0] if p != nout - 1]
        operands[1:] = [
            [p for p in axes if p != nout - 2] for axes in operands[1:]
        ]
    for k in range(nops):  # every loop is carried by some operand
        fill = [
            p for p in range(n) if not any(p in axes for axes in operands)
        ]
        if k == 0:
            fill = [p for p in fill if p != nout - 1 or nout < 2]
        operands[k] += fill
    return _spec(
        extents, nout, operands,
        draw(st.sampled_from(available_semirings())),
    )


def _nest_inputs(spec, seed):
    """Operand arrays and the coefficient a spec's algebra admits."""
    rng = np.random.default_rng(seed)
    ops = [
        np.ascontiguousarray(
            rng.standard_normal(tuple(spec.extents[p] for p in axes))
        )
        for axes in spec.operands
    ]
    return ops, (2.5 if spec.semiring == "plus_times" else 1.0)


def _nest_identity(spec):
    from repro.semiring import get_semiring

    return get_semiring(spec.semiring).zero


def _reference_nest(spec, tile, coef, ops):
    """``exec(py_source(spec))``: the compiler-independent reference."""
    ns = {}
    exec(py_source(spec, tile=tile), ns)  # noqa: S102
    out = np.full(math.prod(spec.out_shape), _nest_identity(spec))
    ns["kern"](coef, *[op.ravel() for op in ops], out)
    return out.reshape(spec.out_shape)


def _compiled_nest(engine, spec, threads, coef, ops):
    fn = engine.function(spec, np.float64, threads=threads)
    assert fn is not None, engine.failure(spec, np.float64, threads)
    out = np.full(spec.out_shape, _nest_identity(spec))
    fn(coef, ops, out)
    return out


#: nests the schedule rule accepts, one per shape of its output
SCHEDULED = {
    "matmul: no pack, v0 register-blocked, tiled sum": _spec(
        (9, 17, 70), 2, [(0, 2), (2, 1)]
    ),
    "vector index already unit-stride in its operand": _spec(
        (3, 9, 17, 9), 3, [(0, 3, 2), (1, 3)]
    ),
    "packed operand, work-shared loop outside the pack": _spec(
        (17, 9, 3, 9, 3), 3, [(0, 3, 2, 4), (1, 4, 3)]
    ),
    "packed operand, work-shared loop inside the pack": _spec(
        (9, 3, 17, 70), 3, [(0, 3), (1, 2, 3)]
    ),
    "diagonal of the vector index in the packed operand": _spec(
        (9, 9, 17, 3), 3, [(2, 2, 3), (0, 1, 3)]
    ),
    "three operands, the packed one in the middle": _spec(
        (9, 3, 17, 3, 9), 3, [(0, 3), (2, 3, 4), (1, 4)]
    ),
}


class TestSchedule:
    def test_fig1_dominant_nest(self):
        """T1(b,c,d,f) = sum(e,l) B(b,e,f,l) * D(c,d,e,l): f is the
        vector index, B carries it at stride 8 and is packed, D is
        broadcast, d is the innermost loop only D carries."""
        spec = _spec(
            (32, 32, 32, 32, 32, 8), 4, [(0, 4, 3, 5), (1, 2, 4, 5)]
        )
        assert nest_schedule(spec) == Schedule(vec=3, rblock=2, packed=(0,))
        assert "schedule=vec:3 rows:2x4 strip:16 pack:0" in spec.ir()

    def test_matmul_needs_no_pack(self):
        spec = _spec((5, 6, 7), 2, [(0, 2), (2, 1)])
        assert nest_schedule(spec) == Schedule(vec=1, rblock=0, packed=())

    @pytest.mark.parametrize(
        "spec",
        [
            _spec((5, 7), 0, [(0, 1), (1,)]),  # scalar output
            _spec((5, 7), 1, [(0, 1), (1,)]),  # no second output index
            _spec((5, 6, 7), 2, [(0, 1, 2), (1, 2)]),  # all carry it
            _spec((5, 6, 7), 2, [(0, 1, 2), (2,)]),  # no row to block
        ],
    )
    def test_no_legal_schedule_keeps_the_plain_form(self, spec):
        assert nest_schedule(spec) is None
        assert "schedule=none" in spec.ir()
        assert " acc = " in c_source(spec)

    def test_oversized_panel_keeps_the_plain_form(self):
        """Pack scratch is bounded: a nest whose panel would exceed the
        limit under this tile is rendered unpacked, not with a bigger
        buffer."""
        spec = _spec((4, 8, 70, 70, 70), 2, [(0, 2, 3, 4), (1, 2, 4, 3)])
        assert nest_schedule(spec).packed == (1,)
        assert "p1[" in c_source(spec, tile=16)
        assert "p1[" not in c_source(spec, tile=0)

    @pytest.mark.parametrize("name", sorted(SCHEDULED))
    def test_parametrized_nests_are_scheduled(self, name):
        assert nest_schedule(SCHEDULED[name]) is not None


@needs_cc
class TestScheduledParity:
    """Every compiled rendering of a nest equals ``exec(py_source)`` bit
    for bit: the schedule moves where values are read from, never the
    order one output element folds its summation in."""

    @pytest.mark.parametrize("semiring", available_semirings())
    @pytest.mark.parametrize("name", sorted(SCHEDULED))
    def test_scheduled_nest_equals_reference(self, name, semiring):
        spec = dataclasses.replace(SCHEDULED[name], semiring=semiring)
        ops, coef = _nest_inputs(spec, seed=7)
        engine = NativeEngine(backend="cc")
        want = _reference_nest(spec, engine.tile, coef, ops)
        for threads in (1, 2, 4):
            got = _compiled_nest(engine, spec, threads, coef, ops)
            assert np.array_equal(got, want), threads

    @settings(max_examples=40, **COMMON)
    @given(
        spec=nest_specs(),
        threads=st.sampled_from([1, 2, 4]),
        tile=st.sampled_from([4, 16, 64]),
        seed=st.integers(0, 2**16),
    )
    def test_random_nest_equals_reference(self, spec, threads, tile, seed):
        ops, coef = _nest_inputs(spec, seed)
        engine = NativeEngine(backend="cc", tile=tile)
        want = _reference_nest(spec, tile, coef, ops)
        got = _compiled_nest(engine, spec, threads, coef, ops)
        assert np.array_equal(got, want)


class TestLowering:
    def test_every_non_copy_term_lowers(self):
        plan = compile_kernel_plan([_matmul_stmt()], mode="native")
        assert plan.mode == "native"
        assert plan.native_terms == 1
        spec = _spec_of(plan)
        assert spec.extents == (5, 6, 7)
        assert spec.nout == 2
        assert spec.out_shape == (5, 6)

    def test_gemm_fallback_is_embedded(self):
        """Native terms keep their GEMM lowering: the fallback is in
        the plan itself, so a no-compiler machine needs nothing new."""
        plan = compile_kernel_plan([_matmul_stmt()], mode="native")
        term = plan.statements[0].terms[0]
        assert term.native is not None
        assert term.kind == "gemm" and term.gemm is not None

    def test_repeated_output_index_does_not_lower(self):
        i, = _indices([4])
        A = Tensor("A", (i,))
        S = Tensor("S", (i, i))
        stmt = Statement(S, TensorRef(A, (i,)))
        plan = compile_kernel_plan([stmt], mode="native")
        assert plan.native_terms == 0  # falls back, never miscompiles

    def test_ir_is_deterministic_and_content_bearing(self):
        plan = compile_kernel_plan([_matmul_stmt()], mode="native")
        spec = _spec_of(plan)
        assert spec.ir() == render_nest_ir(spec)
        other = _spec_of(
            compile_kernel_plan([_matmul_stmt((5, 6, 8))], mode="native")
        )
        assert spec.ir() != other.ir()

    def test_specs_are_pickle_safe(self):
        plan = compile_kernel_plan([_matmul_stmt()], mode="native")
        revived = pickle.loads(pickle.dumps(plan))
        assert revived.native_terms == 1
        assert _spec_of(revived) == _spec_of(plan)


class TestEmission:
    def test_c_source_shape(self):
        spec = _spec_of(
            compile_kernel_plan([_matmul_stmt((3, 4, 100))], mode="native")
        )
        src = c_source(spec, "double", tile=64)
        assert "void kern(double coef," in src
        assert "restrict" in src
        assert "+= (double)coef * acc" in src
        assert "t2 += 64" in src  # the 100-extent sum loop is blocked

    def test_py_source_matches_einsum(self):
        spec = _spec_of(
            compile_kernel_plan([_matmul_stmt((3, 4, 70))], mode="native")
        )
        ns = {}
        exec(py_source(spec, tile=16), ns)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 70))
        b = rng.standard_normal((70, 4))
        out = np.zeros(12)
        ns["kern"](2.5, a.ravel(), b.ravel(), out)
        want = 2.5 * _einsum_of(spec, [a, b])
        np.testing.assert_allclose(
            out.reshape(3, 4), want, rtol=RTOL, atol=ATOL
        )


@needs_compiler
class TestCompiledParity:
    @settings(max_examples=60, **COMMON)
    @given(stmt=nest_statements(), seed=st.integers(0, 2**16))
    def test_native_plan_matches_einsum_oracle(self, stmt, seed):
        plan = compile_kernel_plan([stmt], mode="native")
        rng = np.random.default_rng(seed)
        inputs = {
            ref.tensor.name: rng.standard_normal(
                tuple(i.extent() for i in ref.indices)
            )
            for ref in stmt.expr.refs()
        }
        want = run_statements([stmt], inputs)[stmt.result.name]
        got = KernelRunner(plan).run(inputs)[stmt.result.name]
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)

    @settings(max_examples=30, **COMMON)
    @given(stmt=nest_statements(), seed=st.integers(0, 2**16))
    def test_compiled_nest_both_dtypes(self, stmt, seed):
        """The engine-level kernels agree with einsum in float64 and
        float32 (single-precision accumulation tolerance)."""
        plan = compile_kernel_plan([stmt], mode="native")
        if plan.native_terms == 0:
            return  # repeated-output draw: nothing to compile
        spec = _spec_of(plan)
        engine = NativeEngine()
        rng = np.random.default_rng(seed)
        base = [
            rng.standard_normal(
                tuple(spec.extents[p] for p in axes)
            )
            for axes in spec.operands
        ]
        for dtype, rtol in ((np.float64, RTOL), (np.float32, 2e-4)):
            fn = engine.function(spec, dtype)
            assert fn is not None, engine.failure(spec, dtype)
            ops = [np.ascontiguousarray(a, dtype=dtype) for a in base]
            out = np.zeros(spec.out_shape, dtype=dtype)
            fn(1.0, ops, out)
            want = _einsum_of(spec, [o.astype(np.float64) for o in ops])
            np.testing.assert_allclose(
                out.astype(np.float64), want, rtol=rtol, atol=rtol
            )

    def test_tiled_summation_matches(self):
        """Extents beyond the tile size take the blocked loops; the
        partial sums must compose exactly (caller-zeroed += contract)."""
        stmt = _matmul_stmt((4, 3, 3 * 64 + 17))
        plan = compile_kernel_plan([stmt], mode="native")
        rng = np.random.default_rng(7)
        inputs = {
            "A": rng.standard_normal((4, 3 * 64 + 17)),
            "B": rng.standard_normal((3 * 64 + 17, 3)),
        }
        want = run_statements([stmt], inputs)["S"]
        got = KernelRunner(plan).run(inputs)["S"]
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)

    def test_multi_statement_workload(self):
        program = random_contraction_program(seed=11)
        result = synthesize(program, SynthesisConfig(codegen="native"))
        inputs = random_inputs(result.program, None, seed=11)
        runner = result.kernel_runner()
        got = runner.run(inputs)
        want = run_statements(result.statements, inputs)
        for name in result.kernel_plan.outputs:
            np.testing.assert_allclose(
                got[name], want[name], rtol=1e-11, atol=1e-11
            )


@needs_compiler
class TestInputValidation:
    """The native leg of ``test_kernels.py::TestInputValidation``: a
    compiled nest indexes raw pointers by the extents it was generated
    for, so a wrong array must be refused before the call."""

    @pytest.mark.parametrize(
        "case, tensor, value, error", BAD_INPUTS,
        ids=[row[0] for row in BAD_INPUTS],
    )
    def test_bad_input_never_enters_a_compiled_nest(
        self, case, tensor, value, error
    ):
        plan = compile_kernel_plan(
            [shared_matmul_stmt(accumulate=tensor == "S")], mode="native"
        )
        runner = KernelRunner(plan)
        good = {"A": np.ones((5, 7)), "B": np.ones((7, 6))}
        np.testing.assert_array_equal(runner.run(good)["S"], 7.0)
        # the nest is loaded now: any further entry is through this table
        assert any(fn is not None for fn in runner._compiled_fns.values())
        entered = []
        for key, fn in list(runner._compiled_fns.items()):
            runner._compiled_fns[key] = (
                lambda *args, **kw: entered.append(args)
            )
        exc = bad_input_run(runner, tensor, value)
        assert type(exc) is error
        assert exc.stage == "execution" and exc.tensor == tensor
        assert entered == []

    @pytest.mark.parametrize("mode", ["gemm", "einsum", "native"])
    def test_undersized_input_through_the_pipeline(self, mode):
        """The reproducer: at the parent a native plan read past the
        end of ``B`` and returned garbage with no error."""
        result = synthesize(
            "range N = 64; index i, j, k : N;\n"
            "tensor A(i, k); tensor B(k, j);\n"
            "C(i, j) = sum(k) A(i, k) * B(k, j);",
            SynthesisConfig(codegen=mode),
        )
        rng = np.random.default_rng(0)
        bad = {"A": rng.random((64, 64)), "B": rng.random((8, 8))}
        for entry in (
            result.kernel_runner().run, result.compile_fast(), result.run,
        ):
            with pytest.raises(ShapeError, match=r"'B' has shape \(8, 8\)"):
                entry(bad)


@needs_compiler
class TestArtifactStore:
    def test_warm_hit_compiles_nothing(self, tmp_path):
        """The headline property: a second engine over the same store
        directory loads the shared object with zero compiler forks."""
        store = ArtifactStore(directory=str(tmp_path))
        stmt = _matmul_stmt((3, 4, 90))
        plan = compile_kernel_plan([stmt], mode="native")
        rng = np.random.default_rng(1)
        inputs = {
            "A": rng.standard_normal((3, 90)),
            "B": rng.standard_normal((90, 4)),
        }
        want = run_statements([stmt], inputs)["S"]

        cold = NativeEngine(store=store)
        got = KernelRunner(plan, engine=cold).run(inputs)["S"]
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)
        assert cold.stats()["compile_invocations"] >= 1

        warm = NativeEngine(store=store)
        got = KernelRunner(plan, engine=warm).run(inputs)["S"]
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)
        stats = warm.stats()
        assert stats["compile_invocations"] == 0
        assert stats["store_loads"] >= 1

    def test_memory_tier_revival_spills_and_loads(self):
        """A directory-less store still serves warm loads (bytes are
        spilled to engine scratch for the dynamic loader)."""
        store = ArtifactStore()
        spec = _spec_of(compile_kernel_plan([_matmul_stmt()], mode="native"))
        cold = NativeEngine(store=store)
        assert cold.function(spec) is not None
        warm = NativeEngine(store=store)
        assert warm.function(spec) is not None
        assert warm.stats()["compile_invocations"] == 0
        assert warm.stats()["store_loads"] == 1

    def test_key_includes_everything_the_bytes_depend_on(self):
        base = dict(
            nest_ir="nest-ir v1\nnames=a,b\nextents=2,3\nnout=1\nop0=0,1",
            dtype="<f8",
            backend="cc",
            compiler="cc 12.2.0 [/usr/bin/cc]",
            flags=("-O3",),
        )
        key = artifact_key(**base)
        assert key == artifact_key(**base)  # deterministic
        for field, other in [
            ("dtype", "<f4"),
            ("compiler", "cc 13.1.0 [/usr/bin/cc]"),
            ("backend", "none"),
            ("flags", ("-O2",)),
            ("nest_ir", base["nest_ir"].replace("2,3", "2,4")),
        ]:
            assert artifact_key(**{**base, field: other}) != key, field

    def test_engine_key_tracks_the_cpu_capability_token(self, monkeypatch):
        """A store directory written on one CPU model and read on
        another is a clean miss: what ``-march=native`` resolved to is
        part of every key, the literal flag never is."""
        import repro.kernels.native as native_mod

        spec = _spec_of(compile_kernel_plan([_matmul_stmt()], mode="native"))
        engine = NativeEngine(backend="cc")
        if engine.backend != "cc":
            pytest.skip("cc backend not available")
        keys = {}
        for token in ("cooperlake+0123456789ab", "znver4+ba9876543210"):
            monkeypatch.setitem(
                native_mod._target_cache, engine._cc, (True, token)
            )
            assert f"target={token}" in engine.flags()
            assert "target=native" not in engine.flags()
            keys[token] = engine.key(spec, np.float64)
        assert len(set(keys.values())) == 2

    def test_damaged_artifact_is_recompiled_not_pinned(self, tmp_path):
        """A truncated stored ``.so`` is evicted, recompiled once and
        republished with one note -- and the process after that loads
        the repaired object with no compiler fork.  Two fresh processes:
        truncating a file this process has mapped would be a SIGBUS."""
        script = """
import json, sys
import numpy as np
from repro.kernels import ArtifactStore, NativeEngine, NativeSpec
spec = NativeSpec(("i", "j", "k"), (5, 6, 7), 2, ((0, 2), (2, 1)))
engine = NativeEngine(store=ArtifactStore(directory=sys.argv[1]), backend="cc")
fn = engine.function(spec)
out = np.zeros((5, 6))
if fn is not None:
    fn(1.0, [np.ones((5, 7)), np.ones((7, 6))], out)
stats = engine.stats()
print(json.dumps({
    "loaded": fn is not None, "sum": out.sum(),
    "compiles": stats["compile_invocations"],
    "store_loads": stats["store_loads"], "recovered": stats["recovered"],
    "failure": engine.failure(spec), "note": engine.recovery(spec),
    "path": engine.store.disk_path(engine.key(spec, np.float64)),
}))
"""
        import json

        if NativeEngine(backend="cc").backend != "cc":
            pytest.skip("cc backend not available")

        def run():
            src = os.path.join(os.path.dirname(__file__), "..", "src")
            env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
            proc = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path)],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout.splitlines()[-1])

        cold = run()
        assert (cold["compiles"], cold["store_loads"]) == (1, 0)
        size = os.path.getsize(cold["path"])
        with open(cold["path"], "r+b") as handle:
            handle.truncate(size // 2)

        repaired = run()
        assert repaired["loaded"] and repaired["failure"] is None
        assert repaired["sum"] == 5 * 6 * 7
        assert repaired["compiles"] == 1 and repaired["recovered"] == 1
        assert repaired["store_loads"] == 0
        assert "evicted and recompiled" in repaired["note"]
        assert os.path.getsize(repaired["path"]) == size

        warm = run()
        assert (warm["compiles"], warm["store_loads"]) == (0, 1)
        assert warm["note"] is None and warm["sum"] == 5 * 6 * 7

        with open(warm["path"], "r+b") as handle:  # garbled, same size
            handle.seek(size // 2)
            handle.write(b"\xa5" * 64)
        garbled = run()
        assert garbled["loaded"] and garbled["sum"] == 5 * 6 * 7
        assert (garbled["compiles"], garbled["recovered"]) == (1, 1)

    def test_engine_key_tracks_dtype_and_tile(self):
        spec = _spec_of(compile_kernel_plan([_matmul_stmt()], mode="native"))
        engine = NativeEngine()
        assert engine.key(spec, np.float64) != engine.key(spec, np.float32)
        other = NativeEngine(tile=32)
        assert other.key(spec, np.float64) != engine.key(spec, np.float64)


class TestDegradation:
    def test_forced_off_engine_runs_on_fallback(self, monkeypatch):
        stmt = _matmul_stmt()
        plan = compile_kernel_plan([stmt], mode="native")
        rng = np.random.default_rng(4)
        inputs = {
            "A": rng.standard_normal((5, 7)),
            "B": rng.standard_normal((7, 6)),
        }
        want = run_statements([stmt], inputs)["S"]
        # the engine is the C compiler: no other backend is looked for
        looked_for = []  # every module the import system is asked for
        finder = SimpleNamespace(
            find_spec=lambda name, *_: looked_for.append(name)
        )
        monkeypatch.setattr(sys, "meta_path", [finder] + sys.meta_path)
        with pytest.raises(ValueError, match="unknown native backend"):
            NativeEngine(backend="numba")
        NativeEngine()
        engine = NativeEngine(backend="none")
        assert "numba" not in looked_for
        assert not engine.available()
        runner = KernelRunner(plan, engine=engine)
        got = runner.run(inputs)["S"]
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)
        assert any("unavailable" in note for note in runner.notes)

    def test_pipeline_degrades_native_to_gemm_with_note(self, monkeypatch):
        """codegen='native' on a compiler-less machine completes via
        the gemm path and records why -- never raises."""
        import repro.kernels.native as native_mod

        monkeypatch.setattr(
            native_mod, "_default_engine", NativeEngine(backend="none")
        )
        src = (
            "range N = 5; index i, j, k : N;\n"
            "tensor A(i, k); tensor B(k, j);\n"
            "C(i, j) = sum(k) A(i, k) * B(k, j);"
        )
        result = synthesize(src, SynthesisConfig(codegen="native"))
        assert result.codegen_mode == "gemm"
        assert result.native_artifacts == []
        assert result.kernel_plan.mode == "gemm"
        assert any(
            "native codegen requested" in n for n in result.synthesis_notes
        )
        inputs = random_inputs(result.program, None, seed=2)
        got = result.kernel_runner().run(inputs)["C"]
        np.testing.assert_allclose(
            got, inputs["A"] @ inputs["B"], rtol=1e-10
        )

    def test_compiler_rejecting_march_native_compiles_baseline(
        self, tmp_path, monkeypatch
    ):
        """A compiler that refuses ``-march=native`` is an answer, not an
        error: baseline flags, one structured note, correct kernels."""
        real = NativeEngine(backend="cc")
        if real.backend != "cc":
            pytest.skip("cc backend not available")
        stub = tmp_path / "cc"
        stub.write_text(
            "#!/bin/sh\n"
            'for a in "$@"; do\n'
            '  if [ "$a" = "-march=native" ]; then\n'
            '    echo "cc: error: unrecognized option -march=native" >&2\n'
            "    exit 1\n"
            "  fi\n"
            "done\n"
            f'exec {real._cc} "$@"\n'
        )
        stub.chmod(0o755)
        monkeypatch.setenv("CC", str(stub))
        engine = NativeEngine(backend="cc")
        assert engine._cc == str(stub)
        flags = engine.flags()
        assert "-march=native" not in flags
        assert "target=baseline" in flags
        assert "-ffp-contract=off" in flags
        note = engine.target_note()
        assert note is not None and "rejects -march=native" in note
        assert "unrecognized option" in note
        spec = SCHEDULED["packed operand, work-shared loop outside the pack"]
        ops, coef = _nest_inputs(spec, seed=3)
        got = _compiled_nest(engine, spec, 2, coef, ops)
        assert np.array_equal(
            got, _reference_nest(spec, engine.tile, coef, ops)
        )
        import repro.kernels.native as native_mod

        monkeypatch.setattr(native_mod, "_default_engine", engine)
        result = synthesize(
            TestPipelineIntegration.SRC, SynthesisConfig(codegen="native")
        )
        assert result.codegen_mode == "native"
        assert note in result.synthesis_notes

    @needs_compiler
    def test_broken_compiler_degrades_per_term(self):
        """A compiler that exists but fails still yields correct runs:
        the failure is remembered and the term uses its fallback."""
        stmt = _matmul_stmt()
        plan = compile_kernel_plan([stmt], mode="native")
        engine = NativeEngine(backend="cc")
        if engine.backend != "cc":
            pytest.skip("cc backend not available")
        engine._cc = "/bin/false"
        spec = _spec_of(plan)
        assert engine.function(spec) is None
        assert engine.failure(spec) is not None
        rng = np.random.default_rng(5)
        inputs = {
            "A": rng.standard_normal((5, 7)),
            "B": rng.standard_normal((7, 6)),
        }
        want = run_statements([stmt], inputs)["S"]
        runner = KernelRunner(plan, engine=engine)
        got = runner.run(inputs)["S"]
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)
        assert engine.stats()["failures"] == 1
        # the failure is remembered: no second compiler fork
        before = engine.stats()["compile_invocations"]
        assert engine.function(spec) is None
        assert engine.stats()["compile_invocations"] == before


@needs_compiler
class TestPipelineIntegration:
    SRC = (
        "range V = 10; range O = 5;\n"
        "index a, b : V; index i, j, k : O;\n"
        "tensor A(a, i); tensor B(i, j, k); tensor C(k, b);\n"
        "S(a, b, j) = sum(i, k) A(a,i) * B(i,j,k) * C(k,b);"
    )

    def test_native_mode_precompiles_and_reports(self):
        result = synthesize(self.SRC, SynthesisConfig(codegen="native"))
        assert result.codegen_mode == "native"
        assert result.kernel_plan.mode == "native"
        assert result.kernel_plan.native_terms >= 1
        assert len(result.native_artifacts) >= 1
        report = next(
            r for r in result.reports if r.name == "Code generation"
        )
        assert report.details["codegen mode"] == "native"
        assert "native backend" in report.details

    def test_distinct_nests_compile_concurrently_once_each(
        self, monkeypatch
    ):
        """The codegen stage hands a plan's distinct nests to the engine
        all at once; that is still exactly one compiler fork per nest."""
        import repro.kernels.native as native_mod

        engine = NativeEngine(store=ArtifactStore(), threads=2)
        monkeypatch.setattr(native_mod, "_default_engine", engine)
        fig1 = (
            "range V = 4; range O = 3;\n"
            "index a, b, c, d, e, f : V; index i, j, k, l : O;\n"
            "tensor A(a, c, i, k); tensor B(b, e, f, l);\n"
            "tensor C(d, f, j, k); tensor D(c, d, e, l);\n"
            "S(a, b, i, j) = sum(c, d, e, f, k, l)\n"
            "    A(a,c,i,k) * B(b,e,f,l) * C(d,f,j,k) * D(c,d,e,l);"
        )
        result = synthesize(
            fig1, SynthesisConfig(codegen="native", kernel_threads=2)
        )
        assert result.kernel_plan.native_terms == 3
        assert len(result.native_artifacts) == 3
        stats = engine.stats()
        assert stats["compile_invocations"] == 3
        assert stats["functions_loaded"] == 3 and stats["failures"] == 0
        inputs = random_inputs(result.program, None, seed=1)
        want = run_statements(result.statements, dict(inputs))["S"]
        got = result.kernel_runner().run(inputs)["S"]
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-11)
        assert engine.stats()["compile_invocations"] == 3

    def test_auto_mode_stays_gemm(self):
        result = synthesize(self.SRC, SynthesisConfig(codegen="auto"))
        assert result.codegen_mode == "gemm"
        assert result.native_artifacts == []

    def test_unknown_mode_rejected(self, monkeypatch):
        # rejected up front: no search stage runs on a bad config
        monkeypatch.setattr("repro.pipeline.optimize_program", None)
        with pytest.raises(SpecError, match="unknown codegen mode"):
            synthesize(self.SRC, SynthesisConfig(codegen="fortran"))

    def test_native_result_survives_the_plan_cache(self, tmp_path):
        from repro.runtime.plan_cache import PlanCache

        cfg = SynthesisConfig(codegen="native")
        cache = PlanCache(directory=str(tmp_path))
        cold = synthesize(self.SRC, cfg, cache=cache)
        warm = synthesize(
            self.SRC, cfg, cache=PlanCache(directory=str(tmp_path))
        )
        assert warm.codegen_mode == "native"
        assert warm.native_artifacts == cold.native_artifacts
        inputs = random_inputs(warm.program, None, seed=9)
        np.testing.assert_allclose(
            warm.kernel_runner().run(inputs)["S"],
            cold.kernel_runner().run(inputs)["S"],
            rtol=RTOL,
            atol=ATOL,
        )
