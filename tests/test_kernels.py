"""Tests for the compiled execution kernels (repro.kernels).

The GEMM lowering is property-tested against the einsum oracle across
random index patterns -- including the degenerate corners (scalar
results, outer products, single-operand reductions) -- with the
documented tolerance: the GEMM path regroups floating-point sums, so
agreement is ``allclose`` at 1e-12 relative, while the einsum-fallback
and path-cache paths must be **bit-for-bit** equal to the uncached
reference.
"""

import math
import pickle
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chem.workloads import ccsd_doubles_program, random_contraction_program
from repro.engine.executor import random_inputs, run_statements
from repro.expr.ast import Mul, Statement, Sum, TensorRef
from repro.expr.indices import Index, IndexRange
from repro.expr.parser import parse_program
from repro.expr.tensor import Tensor
from repro.kernels import (
    BufferArena,
    KernelPlan,
    KernelRunner,
    cached_einsum,
    cached_einsum_path,
    clear_einsum_path_cache,
    compile_kernel_plan,
    einsum_path_cache_stats,
    lower_binary_term,
)
from repro.kernels import lowering
from repro.kernels import plan as kernel_plan
from repro.kernels.lowering import exec_gemm_arena
from repro.pipeline import SynthesisConfig, synthesize
from repro.robustness.errors import ShapeError, SpecError

COMMON = dict(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: documented GEMM-vs-einsum tolerance (sum regrouping only)
RTOL, ATOL = 1e-12, 1e-12


def _gemm(a, b, spec):
    """``spec`` on ``a`` and ``b``, allocating per call (a C-ordered
    product, the arena form with an arena that pools nothing)."""
    return exec_gemm_arena(a, b, spec, BufferArena(enabled=False))[0]


def _indices(extents):
    return [
        Index(f"i{k}", IndexRange(f"R{k}", e)) for k, e in enumerate(extents)
    ]


def _oracle(left, right, out, a, b):
    """Reference einsum for one binary term (sums everything not in out)."""
    letters = {}
    for i in list(left) + list(right) + list(out):
        letters.setdefault(i, chr(ord("a") + len(letters)))
    spec = (
        "".join(letters[i] for i in left)
        + ","
        + "".join(letters[i] for i in right)
        + "->"
        + "".join(letters[i] for i in out)
    )
    return np.einsum(spec, a, b, optimize=True)


@st.composite
def binary_terms(draw):
    """A random binary contraction: index memberships, orders, extents."""
    n = draw(st.integers(min_value=1, max_value=6))
    extents = [draw(st.integers(min_value=1, max_value=4)) for _ in range(n)]
    idx = _indices(extents)
    membership = [
        draw(st.sampled_from(["l", "r", "b"])) for _ in range(n)
    ]
    kept = [draw(st.booleans()) for _ in range(n)]
    left = [i for i, m in zip(idx, membership) if m in ("l", "b")]
    right = [i for i, m in zip(idx, membership) if m in ("r", "b")]
    out = [i for i, k in zip(idx, kept) if k]
    # random axis orders on each operand and the output
    left = draw(st.permutations(left)) if left else []
    right = draw(st.permutations(right)) if right else []
    out = draw(st.permutations(out)) if out else []
    return tuple(left), tuple(right), tuple(out)


class TestGemmLowering:
    @settings(max_examples=120, **COMMON)
    @given(term=binary_terms(), seed=st.integers(0, 2**16))
    def test_matches_einsum_oracle(self, term, seed):
        left, right, out = term
        sums = frozenset(set(left) | set(right)) - set(out)
        spec = lower_binary_term(left, right, sums, out)
        assert spec is not None, "no degenerate features drawn; must lower"
        rng = np.random.default_rng(seed)
        a = rng.standard_normal([i.extent() for i in left])
        b = rng.standard_normal([i.extent() for i in right])
        want = _oracle(left, right, out, a, b)
        got = _gemm(a, b, spec)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)

    def test_scalar_result(self):
        i, j = _indices([3, 4])
        spec = lower_binary_term((i, j), (i, j), frozenset({i, j}), ())
        a = np.arange(12.0).reshape(3, 4)
        b = np.ones((3, 4))
        got = _gemm(a, b, spec)
        assert got.shape == ()
        assert got == pytest.approx(a.sum())

    def test_outer_product(self):
        i, j = _indices([3, 4])
        spec = lower_binary_term((i,), (j,), frozenset(), (i, j))
        a = np.arange(3.0)
        b = np.arange(4.0)
        got = _gemm(a, b, spec)
        np.testing.assert_allclose(got, np.outer(a, b), rtol=RTOL)

    def test_single_operand_reduction(self):
        # an index summed in only one operand is pre-reduced (lred/rred)
        i, j, k = _indices([3, 4, 5])
        spec = lower_binary_term((i, k), (i, j), frozenset({i, k}), (j,))
        assert spec.lred == (1,)
        a = np.random.default_rng(0).standard_normal((3, 5))
        b = np.random.default_rng(1).standard_normal((3, 4))
        got = _gemm(a, b, spec)
        np.testing.assert_allclose(
            got, np.einsum("ik,ij->j", a, b), rtol=RTOL, atol=ATOL
        )

    def test_repeated_index_declines(self):
        # diagonal within one operand: GEMM cannot express it
        i, j = _indices([3, 3])
        assert (
            lower_binary_term((i, i), (i, j), frozenset({i}), (j,)) is None
        )

    def test_output_index_from_neither_operand_declines(self):
        i, j = _indices([3, 4])
        assert lower_binary_term((i,), (i,), frozenset(), (i, j)) is None


class TestKernelPlan:
    @settings(max_examples=25, **COMMON)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_runner_matches_reference_on_synthesized_sequences(self, seed):
        prog = random_contraction_program(seed, extents=(3, 4, 5))
        res = synthesize(prog, SynthesisConfig())
        inputs = random_inputs(prog, seed=seed)
        want = run_statements(
            res.statements, inputs, None, None, path_cache=False
        )
        plan = res.kernel_plan
        assert plan is not None
        got = KernelRunner(plan).run(inputs)
        for name in plan.outputs:
            np.testing.assert_allclose(
                got[name], want[name], rtol=1e-10, atol=1e-12, err_msg=name
            )

    def test_einsum_fallback_on_repeated_indices(self):
        # B(j,j) is a diagonal read: the statement must compile to an
        # einsum-fallback term and still match the reference executor
        i, j = _indices([3, 3])
        A = Tensor("A", (i, j))
        B = Tensor("B", (j, j))
        S = Tensor("S", (i,))
        stmt = Statement(
            S,
            Sum((j,), Mul((TensorRef(A, (i, j)), TensorRef(B, (j, j))))),
        )
        plan = compile_kernel_plan([stmt])
        assert plan.einsum_terms == 1 and plan.gemm_terms == 0
        inputs = {
            "A": np.arange(9.0).reshape(3, 3),
            "B": np.random.default_rng(2).standard_normal((3, 3)),
        }
        want = run_statements([stmt], inputs)["S"]
        got = KernelRunner(plan).run(inputs)["S"]
        np.testing.assert_array_equal(got, want)

    def test_accumulate_statements(self):
        i, = _indices([4])
        A = Tensor("A", (i,))
        S = Tensor("S", (i,))
        stmts = [
            Statement(S, TensorRef(A, (i,))),
            Statement(S, TensorRef(A, (i,)), accumulate=True),
        ]
        plan = compile_kernel_plan(stmts)
        a = np.arange(4.0)
        want = run_statements(stmts, {"A": a})["S"]
        got = KernelRunner(plan).run({"A": a})["S"]
        np.testing.assert_allclose(got, want, rtol=RTOL)

    def test_accumulate_does_not_mutate_caller_seed(self):
        i, = _indices([4])
        A = Tensor("A", (i,))
        S = Tensor("S", (i,))
        stmts = [Statement(S, TensorRef(A, (i,)), accumulate=True)]
        plan = compile_kernel_plan(stmts)
        a = np.arange(4.0)
        seed = np.ones(4)
        out = KernelRunner(plan).run({"A": a, "S": seed})
        np.testing.assert_array_equal(seed, np.ones(4))  # caller untouched
        np.testing.assert_allclose(out["S"], seed + a, rtol=RTOL)

    def test_liveness_releases_temporaries(self):
        prog = ccsd_doubles_program(V=6, O=3)
        res = synthesize(prog)
        plan = res.kernel_plan
        released = [n for sp in plan.statements for n in sp.release]
        produced = {sp.result for sp in plan.statements}
        # multi-statement factorized sequence: temporaries exist and are
        # all released; outputs never are
        assert len(produced) > 1
        assert set(released) == produced - set(plan.outputs)
        assert "R" in plan.outputs and "R" not in released

    def test_plan_pickle_round_trip(self):
        prog = ccsd_doubles_program(V=5, O=3)
        res = synthesize(prog)
        plan = res.kernel_plan
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        inputs = random_inputs(prog, None, seed=3)
        a = KernelRunner(plan).run(inputs)
        b = KernelRunner(clone).run(inputs)
        for name in plan.outputs:
            np.testing.assert_array_equal(a[name], b[name])

    def test_plan_survives_plan_cache_round_trip(self, tmp_path):
        from repro.runtime.plan_cache import PlanCache

        prog = ccsd_doubles_program(V=5, O=3)
        cache = PlanCache(directory=str(tmp_path))
        first = synthesize(prog, cache=cache)
        assert first.kernel_plan is not None
        # cold memory tier, warm disk tier: full serialization exercised
        second = synthesize(prog, cache=PlanCache(directory=str(tmp_path)))
        assert second.kernel_plan == first.kernel_plan
        inputs = random_inputs(prog, None, seed=1)
        got = second.kernel_runner().run(inputs)
        want = run_statements(second.statements, inputs)
        np.testing.assert_allclose(
            got["R"], want["R"], rtol=1e-10, atol=1e-12
        )

    def test_runner_output_buffers_are_reused(self):
        prog = ccsd_doubles_program(V=5, O=3)
        res = synthesize(prog)
        runner = res.kernel_runner()
        inputs = random_inputs(prog, None, seed=0)
        first = runner.run(inputs)["R"]
        second = runner.run(inputs)["R"]
        assert first is second  # same persistent buffer, rewritten
        detached = runner.run(inputs, copy=True)["R"]
        assert detached is not second
        np.testing.assert_array_equal(detached, second)

    def test_steady_state_allocation_free(self):
        prog = ccsd_doubles_program(V=5, O=3)
        res = synthesize(prog)
        runner = res.kernel_runner()
        inputs = random_inputs(prog, None, seed=0)
        runner.run(inputs)
        runner.run(inputs)
        before = runner.arena.allocations
        for _ in range(4):
            runner.run(inputs)
        assert runner.arena.allocations == before

    def test_failing_step_releases_every_arena_buffer(self):
        """Regression: a kernel step raising mid-run used to leak the
        statement's output buffer and every live temporary.  The
        runner must hand all arena-owned buffers back before
        propagating, so a caller that catches and retries does not
        accumulate scratch."""
        prog = ccsd_doubles_program(V=5, O=3)
        res = synthesize(prog)
        runner = res.kernel_runner()
        assert len(res.kernel_plan.statements) > 1
        inputs = random_inputs(prog, None, seed=0)
        want = runner.run(inputs, copy=True)["R"]

        original = kernel_plan.exec_term
        calls = {"n": 0}

        def failing(*args):
            calls["n"] += 1
            if calls["n"] > 1:  # fail inside a later statement
                raise RuntimeError("injected kernel failure")
            return original(*args)

        baseline = runner.arena.outstanding
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel_plan, "exec_term", failing)
            with pytest.raises(RuntimeError, match="injected"):
                runner.run(inputs)
        assert runner.arena.outstanding == baseline  # nothing leaked

        # the runner stays fully usable after a caught failure
        got = runner.run(inputs)["R"]
        np.testing.assert_array_equal(got, want)
        assert runner.arena.outstanding == baseline


def _matmul_stmt(accumulate=False):
    i, j, k = _indices([5, 6, 7])
    A = Tensor("A", (i, k))
    B = Tensor("B", (k, j))
    S = Tensor("S", (i, j))
    return Statement(
        S,
        Sum((k,), Mul((TensorRef(A, (i, k)), TensorRef(B, (k, j))))),
        accumulate=accumulate,
    )


#: (case, tensor at fault, its bad value or None for "left out", error)
BAD_INPUTS = [
    ("undersized", "B", np.ones((3, 3)), ShapeError),
    ("oversized", "B", np.ones((9, 9)), ShapeError),
    ("transposed same-size", "B", np.ones((6, 7)), ShapeError),
    ("object dtype", "B", np.empty((7, 6), dtype=object), ShapeError),
    ("missing", "B", None, SpecError),
    ("bad += seed", "S", np.ones((6, 5)), ShapeError),
]


def bad_input_run(runner, tensor, value):
    """Run the ``S (+)= A B`` plan with one input at fault; returns the
    typed error, having proved no kernel step ran before it."""
    inputs = {"A": np.ones((5, 7)), "B": np.ones((7, 6))}
    if value is None:
        del inputs[tensor]
    else:
        inputs[tensor] = value

    def entered(*args, **kwargs):
        raise AssertionError("a kernel step ran on unchecked inputs")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel_plan, "exec_term", entered)
        with pytest.raises((ShapeError, SpecError)) as caught:
            runner.run(inputs)
    return caught.value


class TestInputValidation:
    """``KernelRunner.run`` holds caller arrays to the shapes the plan
    was compiled for, before any kernel step (the native twin is in
    ``test_kernels_native.py``)."""

    @pytest.mark.parametrize("mode", ["gemm", "einsum"])
    @pytest.mark.parametrize(
        "case, tensor, value, error", BAD_INPUTS,
        ids=[row[0] for row in BAD_INPUTS],
    )
    def test_bad_input_is_a_typed_error(self, mode, case, tensor, value, error):
        plan = compile_kernel_plan(
            [_matmul_stmt(accumulate=tensor == "S")], mode=mode
        )
        exc = bad_input_run(KernelRunner(plan), tensor, value)
        assert type(exc) is error
        assert exc.stage == "execution" and exc.tensor == tensor

    def test_plan_records_the_shapes_it_was_compiled_for(self):
        plan = compile_kernel_plan([_matmul_stmt(accumulate=True)])
        assert dict(plan.input_shapes) == {"A": (5, 7), "B": (7, 6)}
        assert dict(plan.seed_shapes) == {"S": (5, 6)}
        # a name the plan produces before reading it is not an input
        prog = ccsd_doubles_program(V=4, O=2)
        res = synthesize(prog)
        assert {n for n, _ in res.kernel_plan.input_shapes} == {
            t.name for t in prog.inputs()
        }
        assert res.kernel_plan.seed_shapes == ()

    def test_words_the_error_as_the_reference_executor_does(self):
        stmt = _matmul_stmt()
        inputs = {"A": np.ones((5, 7)), "B": np.ones((3, 3))}
        with pytest.raises(ShapeError) as want:
            run_statements([stmt], inputs)
        with pytest.raises(ShapeError) as got:
            KernelRunner(compile_kernel_plan([stmt])).run(inputs)
        assert str(got.value) == str(want.value)

    def test_valid_lists_and_integer_arrays_still_run(self):
        stmt = _matmul_stmt()
        a = np.arange(35).reshape(5, 7)
        b = np.arange(42).reshape(7, 6)
        got = KernelRunner(compile_kernel_plan([stmt])).run(
            {"A": a.tolist(), "B": b}
        )["S"]
        np.testing.assert_array_equal(got, a @ b)


class TestPeakLiveElements:
    def test_ccsd_hand_count(self):
        res = synthesize(ccsd_doubles_program(V=4, O=2))
        plan = res.kernel_plan
        # seven statements, every result V*V*O*O = 64 elements: five
        # temporaries, then T6 (six live; T7 dies there), then R (five
        # temporaries + R; they die there)
        assert [sp.result for sp in plan.statements] == [
            "T1", "T3", "T4", "T5", "T7", "T6", "R",
        ]
        assert plan.peak_live_elements() == 6 * 64
        # a kept temporary is never handed back
        assert plan.peak_live_elements(keep=["T7"]) == 7 * 64

    def test_reassignment_chain_hand_count(self):
        i, j, k = (Index(n, IndexRange("R", 4)) for n in "ijk")
        A = Tensor("A", (i, k))
        X = Tensor("X", (i, j))
        Y = Tensor("Y", (i, j))
        square = lambda t: Sum(  # noqa: E731
            (k,), Mul((TensorRef(t, (i, k)), TensorRef(t, (k, j))))
        )
        stmts = [
            Statement(X, square(A)),   # X allocated: 16
            Statement(X, square(X)),   # reads its old value: 16 + 16
            Statement(Y, square(X)),   # Y beside X: 32
            Statement(X, square(A)),   # overwritten in place: still 32
        ]
        plan = compile_kernel_plan(stmts)
        assert plan.peak_live_elements() == 32
        assert compile_kernel_plan(stmts[:1]).peak_live_elements() == 16
        assert compile_kernel_plan(stmts[:2]).peak_live_elements() == 32
        a = np.random.default_rng(0).standard_normal((4, 4))
        got = KernelRunner(plan).run({"A": a})
        want = run_statements(stmts, {"A": a})
        for name in ("X", "Y"):
            np.testing.assert_allclose(got[name], want[name], rtol=1e-10)


class TestBufferArena:
    def test_take_release_reuses_exact_key(self):
        arena = BufferArena()
        a = arena.take((3, 4))
        arena.release(a)
        b = arena.take((3, 4))
        assert b is a
        assert arena.reuses == 1
        c = arena.take((4, 3))  # different shape: fresh allocation
        assert c is not a
        assert arena.allocations == 2

    def test_dtype_is_part_of_the_key(self):
        arena = BufferArena()
        a = arena.take((5,), np.float64)
        arena.release(a)
        b = arena.take((5,), np.float32)
        assert b is not a

    def test_disabled_arena_never_pools(self):
        arena = BufferArena(enabled=False)
        a = arena.take((2, 2))
        arena.release(a)
        assert arena.pooled == 0
        assert arena.take((2, 2)) is not a

    def test_release_resolves_views_to_base(self):
        arena = BufferArena()
        a = arena.take((4, 4))
        arena.release(a.reshape(2, 8))  # view: the base buffer is pooled
        assert arena.pooled == 1
        assert arena.take((4, 4)) is a

    def test_clear_empties_pool(self):
        arena = BufferArena()
        arena.release(arena.take((2,)))
        arena.clear()
        assert arena.pooled == 0

    def test_outstanding_tracks_takes_and_releases(self):
        arena = BufferArena()
        a = arena.take((3,))
        b = arena.take((3,))
        assert arena.outstanding == 2
        arena.release(a)
        arena.release(b)
        assert arena.outstanding == 0
        # disabled arenas count too: the counter is the leak detector
        off = BufferArena(enabled=False)
        off.release(off.take((2,)))
        assert off.outstanding == 0


class TestEinsumPathCache:
    def test_bit_for_bit_vs_optimize_true(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 7, 8))
        b = rng.standard_normal((8, 7, 5))
        clear_einsum_path_cache()
        for _ in range(2):  # miss then hit: both must be identical
            got = cached_einsum("abc,cbd->ad", a, b)
            want = np.einsum("abc,cbd->ad", a, b, optimize=True)
            np.testing.assert_array_equal(got, want)

    def test_hit_miss_accounting(self):
        clear_einsum_path_cache()
        a = np.ones((3, 4))
        b = np.ones((4, 5))
        cached_einsum("ij,jk->ik", a, b)
        stats = einsum_path_cache_stats()
        assert stats == {"entries": 1, "hits": 0, "misses": 1}
        cached_einsum("ij,jk->ik", a, b)
        assert einsum_path_cache_stats()["hits"] == 1
        # different shapes under the same spec re-plan
        cached_einsum("ij,jk->ik", np.ones((2, 2)), np.ones((2, 2)))
        assert einsum_path_cache_stats()["misses"] == 2

    def test_executor_path_cache_is_bit_for_bit(self):
        prog = ccsd_doubles_program(V=5, O=3)
        inputs = random_inputs(prog, None, seed=0)
        cached = run_statements(prog.statements, inputs)
        uncached = run_statements(
            prog.statements, inputs, path_cache=False
        )
        for name in cached:
            np.testing.assert_array_equal(
                cached[name], uncached[name], err_msg=name
            )

    def test_dtype_is_part_of_the_key(self):
        """float32 and float64 operands of the same shapes plan
        separately: the greedy optimizer weighs intermediates in bytes,
        so sharing one entry would silently cross-apply decisions."""
        clear_einsum_path_cache()
        a = np.ones((3, 4))
        b = np.ones((4, 5))
        cached_einsum_path("ij,jk->ik", a, b)
        cached_einsum_path(
            "ij,jk->ik", a.astype(np.float32), b.astype(np.float32)
        )
        stats = einsum_path_cache_stats()
        assert stats == {"entries": 2, "hits": 0, "misses": 2}

    def test_concurrent_hammer_stays_consistent(self):
        """Many threads over a shared spec set: no exceptions, no torn
        counters, exactly one entry per distinct signature (the
        module-global cache is mutated under a lock)."""
        clear_einsum_path_cache()
        specs = [
            ("ij,jk->ik", (3 + n, 4), (4, 5)) for n in range(8)
        ]
        arrays = [
            (np.ones(sa), np.ones(sb)) for _, sa, sb in specs
        ]
        threads, errors = 8, []
        rounds = 40
        barrier = threading.Barrier(threads)

        def work():
            try:
                barrier.wait()
                for _ in range(rounds):
                    for (spec, _, _), (a, b) in zip(specs, arrays):
                        cached_einsum(spec, a, b)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        pool = [threading.Thread(target=work) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert errors == []
        stats = einsum_path_cache_stats()
        assert stats["entries"] == len(specs)
        # a racing duplicate plan counts one extra miss, never a lost
        # call: every lookup is accounted a hit or a miss
        assert stats["hits"] + stats["misses"] == (
            threads * rounds * len(specs)
        )
        assert stats["misses"] < stats["hits"]


def _stored(rng, shape, order):
    """Random values of ``shape`` laid out in memory in axis ``order``."""
    base = rng.standard_normal([shape[ax] for ax in order])
    return base.transpose(np.argsort(order))


def _product_term(m, n, k=5, batch=0):
    """``C(b, i, j) = sum(l) A(b, i, l) * B(b, l, j)`` at the given
    extents (no ``b`` without a batch)."""
    b, i, j, l = _indices([max(batch, 1), m, n, k])
    lead = (b,) if batch else ()
    spec = lower_binary_term(lead + (i, l), lead + (l, j), frozenset({l}),
                             lead + (i, j))
    rng = np.random.default_rng(m * n)
    a = rng.standard_normal([x.extent() for x in lead + (i, l)])
    bb = rng.standard_normal([x.extent() for x in lead + (l, j)])
    return spec, a, bb


class TestGemmOnViews:
    """A binary term is one ``np.matmul`` on operand views: bound in
    place where its index groups are blocks, oriented by its shape when
    the caller leaves the result layout free."""

    @settings(max_examples=120, **COMMON)
    @given(term=binary_terms(), data=st.data())
    def test_every_binding_and_orientation_matches_einsum(self, term, data):
        left, right, out = term
        sums = frozenset(set(left) | set(right)) - set(out)
        spec = lower_binary_term(left, right, sums, out)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        # operands stored in any axis order: read in place, read through
        # a transposed view, or packed, as their strides allow
        a = _stored(rng, [i.extent() for i in left],
                    data.draw(st.permutations(range(len(left)))))
        b = _stored(rng, [i.extent() for i in right],
                    data.draw(st.permutations(range(len(right)))))
        want = _oracle(left, right, out, a, b)
        arena = BufferArena()
        for any_layout in (False, True):
            got, live = exec_gemm_arena(a, b, spec, arena,
                                        any_layout=any_layout)
            np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)
            for buf in live:
                arena.release(buf)
        direct = np.empty(want.shape)
        got, live = exec_gemm_arena(a, b, spec, arena, out=direct)
        assert (got is direct) == (spec.operm == tuple(range(len(out))))
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)
        for buf in live:
            arena.release(buf)
        assert arena.outstanding == 0

    @pytest.mark.parametrize("case, m, n, batch, stored", [
        ("tall", 12, 3, 0, (3, 12)),
        ("square", 6, 6, 0, (6, 6)),
        ("wide", 3, 12, 0, (3, 12)),
        ("batched", 12, 3, 2, (2, 12, 3)),
    ])
    def test_only_a_tall_free_result_is_stored_transposed(
        self, case, m, n, batch, stored
    ):
        spec, a, b = _product_term(m, n, batch=batch)
        want = np.matmul(a, b)
        arena = BufferArena()
        got, (buf,) = exec_gemm_arena(a, b, spec, arena, any_layout=True)
        assert buf.shape == stored and np.shares_memory(got, buf)
        assert got.flags.c_contiguous == (case != "tall")
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)
        # a result whose layout is not free is always C-ordered
        got, (buf,) = exec_gemm_arena(a, b, spec, arena)
        assert buf.shape == want.shape and got.flags.c_contiguous
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)

    def test_two_block_operands_are_read_in_place(self):
        x = np.random.default_rng(0).standard_normal((6, 5, 4, 3))
        arena = BufferArena()
        scratch = []
        # (m l | i j) as stored, and (i j | m l): a transposed view
        for perm in [(0, 1, 2, 3), (2, 3, 0, 1)]:
            x2, _ = lowering._bind(x, (), perm, 0, (2, 2), arena, scratch)
            assert np.shares_memory(x2, x)
            np.testing.assert_array_equal(
                x2, x.transpose(perm).reshape(x2.shape)
            )
        assert scratch == [] and arena.allocations == 0
        # (m i | l j): the groups interleave, so the operand is packed
        x2, _ = lowering._bind(x, (), (0, 2, 1, 3), 0, (2, 2), arena, scratch)
        assert not np.shares_memory(x2, x) and len(scratch) == 1
        np.testing.assert_array_equal(
            x2, x.transpose(0, 2, 1, 3).reshape(x2.shape)
        )

    def test_ccsd_packs_four_operands_and_folds_no_product(self, monkeypatch):
        """Per run of the V=16 O=6 default plan: T3, T7 and T6 read
        operands whose groups interleave; every other operand binds in
        place, and every product is its statement's value."""
        prog = ccsd_doubles_program(V=16, O=6)
        res = synthesize(prog)
        runner = res.kernel_runner()
        inputs = random_inputs(prog, seed=0)
        runner.run(inputs)
        packs, folds = _count_copies(runner, monkeypatch)
        got = runner.run(inputs)["R"]
        products = [
            sp.result for sp in res.kernel_plan.statements
            if [t.kind for t in sp.terms] == ["gemm"]
        ]
        assert {name: packs[name] for name in products} == {
            "T1": 0, "T3": 1, "T4": 0, "T5": 0, "T7": 2, "T6": 1,
        }
        assert sum(packs.values()) == 4
        assert folds == {"R": 5}  # the output folds its five copy terms
        want = run_statements(res.statements, inputs)["R"]
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def _count_copies(runner, monkeypatch):
    """Counters, per statement result, of the operands ``runner`` packs
    and the values it folds into a statement's buffer from now on."""
    packs, folds = Counter(), Counter()
    current = []
    step, pack, accumulate = (
        runner._run_step, lowering._pack, kernel_plan._accumulate
    )

    def run_step(group, sps, *args):
        current[:] = [sps[0].result]
        return step(group, sps, *args)

    def counting_pack(*args):
        packs[current[0]] += 1
        return pack(*args)

    def counting_accumulate(*args):
        folds[current[0]] += 1
        return accumulate(*args)

    runner._run_step = run_step
    monkeypatch.setattr(kernel_plan, "_accumulate", counting_accumulate)
    monkeypatch.setattr(lowering, "_pack", counting_pack)
    return packs, folds


class _CountingArena(BufferArena):
    """An arena that tracks the elements it has lent out."""

    live = peak = 0

    def lend(self, elements):
        self.live += elements
        self.peak = max(self.peak, self.live)

    def take(self, shape, dtype=np.float64):
        buf = super().take(shape, dtype)
        self.lend(buf.size)
        return buf

    def release(self, array):
        self.live -= array.size
        super().release(array)


class _CountingRunner(KernelRunner):
    """Counts the output buffers the runner owns beside the arena's, from
    the step that first hands each out."""

    def _out_buffer(self, name, shape):
        if name in self._kept:
            self.arena.lend(math.prod(shape))
        return super()._out_buffer(name, shape)


class _PublishSampler(_CountingRunner):
    """Reads the elements held as each step publishes, when every
    transient buffer of the step (pack scratch, a folded product) is
    back."""

    published_peak = 0

    def _publish(self, sp, out, env, pending):
        self.published_peak = max(self.published_peak, self.arena.live)
        super()._publish(sp, out, env, pending)


GEMM_STEP_SOURCES = {
    # X is rewritten from its own old value (old and new side by side),
    # then overwritten (its old value goes back before the new is taken)
    "re-assignment": """
        range V = 6; index a, b, c : V;
        tensor A(a, c); tensor w(c);
        X(a, b) = sum(c) A(a, c) * A(c, b);
        X(a, b) = sum(c) X(a, c) * X(c, b);
        Y(a, b) = sum(c) X(a, c) * A(c, b);
        X(a, b) = sum(c) A(a, c) * A(c, b);
        z(a) = sum(c) X(a, c) * w(c);
    """,
    # S starts from the caller's array; each product is folded into it
    "+= seeded": """
        range V = 6; index a, b, c : V;
        tensor A(a, c);
        T(a, b) = sum(c) A(a, c) * A(c, b);
        S(a, b) += sum(c) T(a, c) * A(c, b);
        S(a, b) += sum(c) A(a, c) * T(c, b);
    """,
}


def _gemm_step_case(name):
    """``(statements, gemm plan, inputs)`` of a step case; ``"ccsd"`` is
    the factorized CCSD doubles sequence (published, tall and packed
    products)."""
    if name == "ccsd":
        prog = ccsd_doubles_program(V=6, O=3)
        stmts = list(synthesize(prog).statements)
        inputs = random_inputs(prog, seed=11)
    else:
        prog = parse_program(GEMM_STEP_SOURCES[name])
        stmts = list(prog.statements)
        inputs = random_inputs(prog, seed=11)
        if name == "+= seeded":
            inputs["S"] = np.ones((6, 6))
    return stmts, compile_kernel_plan(stmts), inputs


GEMM_STEP_CASES = sorted(GEMM_STEP_SOURCES) + ["ccsd"]


class TestGemmRunnerSteps:
    """The gemm-mode twin of ``test_kernels_parallel.TestRunnerSteps``:
    a product published as its statement's value, written into an
    output, or folded, keeps the one buffer discipline."""

    @pytest.mark.parametrize("name", GEMM_STEP_CASES)
    def test_peak_live_elements_is_the_observed_high_water(self, name):
        stmts, plan, inputs = _gemm_step_case(name)
        assert plan.gemm_terms and not plan.native_terms
        runner = _PublishSampler(plan, arena=_CountingArena())
        got = runner.run(inputs)
        want = run_statements(stmts, dict(inputs))
        for out in plan.outputs:
            np.testing.assert_allclose(got[out], want[out], rtol=1e-10)
        assert runner.published_peak == plan.peak_live_elements()
        assert runner.arena.outstanding == 0

    @pytest.mark.parametrize("name", GEMM_STEP_CASES)
    def test_a_raising_gemm_leaves_nothing_outstanding(
        self, name, monkeypatch
    ):
        """Whichever product raises -- published, written into an
        output, or folded -- its pack scratch, its own buffer and every
        live temporary go back, and the runner stays usable."""
        _, plan, inputs = _gemm_step_case(name)
        runner = KernelRunner(plan)
        want = runner.run(inputs, copy=True)
        matmul = np.matmul
        for victim in range(plan.gemm_terms):
            calls = iter(range(plan.gemm_terms))

            def raising(*args, **kwargs):
                if next(calls) == victim:
                    raise RuntimeError("injected GEMM failure")
                return matmul(*args, **kwargs)

            monkeypatch.setattr(np, "matmul", raising)
            with pytest.raises(RuntimeError, match="injected"):
                runner.run(inputs)
            assert runner.arena.outstanding == 0
            monkeypatch.setattr(np, "matmul", matmul)
            got = runner.run(inputs)
            for out in plan.outputs:
                assert np.array_equal(got[out], want[out])
            assert runner.arena.outstanding == 0

    def test_steady_state_allocates_nothing_on_ccsd(self):
        """Transposed ``(N, M)`` product buffers pool like any other;
        every contraction of the factorized sequence is a GEMM."""
        prog = ccsd_doubles_program(V=16, O=6)
        runner = synthesize(prog).kernel_runner()
        assert runner.plan.gemm_terms > 0 and runner.plan.einsum_terms == 0
        inputs = random_inputs(prog, seed=0)
        runner.run(inputs)
        before = runner.arena.allocations
        for _ in range(3):
            runner.run(inputs)
        assert runner.arena.allocations == before
        assert runner.arena.outstanding == 0

    def test_outputs_and_kept_names_come_back_c_ordered(self, monkeypatch):
        prog = ccsd_doubles_program(V=6, O=3)
        res = synthesize(prog)
        # a tall product, a square one un-permuted, a wide one un-permuted
        keep = ["T4", "T7", "T5"]
        runner = res.kernel_runner(keep=keep)
        inputs = random_inputs(prog, seed=0)
        _, folds = _count_copies(runner, monkeypatch)
        got = runner.run(inputs)
        # T4 is written straight into its buffer; an un-permute folds
        assert folds == {"T7": 1, "T5": 1, "R": 5}
        want = run_statements(res.statements, inputs)
        shapes = {sp.result: sp.out_shape for sp in res.kernel_plan.statements}
        for name in keep + ["R"]:
            assert got[name].flags.c_contiguous, name
            assert got[name].shape == shapes[name]
            np.testing.assert_allclose(
                got[name], want[name], rtol=1e-10, atol=1e-12, err_msg=name
            )
        detached = runner.run(inputs, copy=True)
        again = runner.run(inputs)
        for name in keep + ["R"]:
            assert not np.shares_memory(detached[name], again[name])
            np.testing.assert_array_equal(detached[name], again[name])


MATMUL_40 = """
range N = 40;
index i, j, k : N;
tensor A(i, k); tensor B(k, j);
C(i, j) = sum(k) A(i, k) * B(k, j);
"""


def _draw(rng, dtype, shape):
    if dtype == "float32":
        return rng.standard_normal(shape).astype(dtype)
    high = {"int32": 2**20, "int64": 2**20, "uint8": 256, "bool": 2}[dtype]
    return rng.integers(0, high, shape).astype(dtype)


class TestInputDtypes:
    """``KernelRunner.run`` computes in float64 whatever the caller's
    dtype: an integer product used to wrap on the gemm and einsum
    paths."""

    @pytest.mark.parametrize("mode", ["gemm", "einsum", "native"])
    @pytest.mark.parametrize(
        "dtype", ["int32", "int64", "uint8", "bool", "float32"]
    )
    def test_run_agrees_with_execute(self, dtype, mode):
        rng = np.random.default_rng(5)
        inputs = {name: _draw(rng, dtype, (40, 40)) for name in "AB"}
        before = {name: a.copy() for name, a in inputs.items()}
        res = synthesize(MATMUL_40, SynthesisConfig(codegen=mode))
        want = res.execute(inputs)["C"]
        got = res.run(inputs)["C"]
        assert got.dtype == np.float64
        if dtype == "float32":
            np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)
        else:  # integer sums this small are exact in float64
            np.testing.assert_array_equal(got, want)
        for name, a in inputs.items():
            assert a.dtype == before[name].dtype
            np.testing.assert_array_equal(a, before[name])

    def test_float64_inputs_are_read_in_place(self):
        runner = KernelRunner(compile_kernel_plan([_matmul_stmt()]))
        rng = np.random.default_rng(0)
        inputs = {
            "A": rng.standard_normal((5, 7)),
            "B": np.asfortranarray(rng.standard_normal((7, 6))),
        }
        seen = []
        operands = runner._operands

        def recording(*args):
            ops = operands(*args)
            seen.extend(ops)
            return ops

        runner._operands = recording
        runner.run(inputs)
        assert seen[0] is inputs["A"] and seen[1] is inputs["B"]
