"""The rank-local ``contract`` step: oracle agreement, driver parity,
and the memory claim.

A product and the partial sums directly above it are one step of the
generated rank program, emitted through the kernel ladder (GEMM under
``plus_times``, the semiring-aware einsum where that declines).  Three
things are pinned here:

* ``run_spmd`` agrees with the reference executor -- exactly under the
  idempotent semirings (min/max folds are order-free), within
  :data:`PLUS_TIMES_RTOL` under ``plus_times`` where a GEMM reassociates
  the sum like every other GEMM term of the repository;
* ``run_spmd`` and ``run_spmd_process`` agree bit-for-bit, superstep
  and traffic counters included;
* no rank ever stores a block with more axes than the step's operands
  and result, while the traffic still equals the cost model's count.
"""

import numpy as np
import pytest

from repro.chem.workloads import ccsd_doubles_program
from repro.engine.executor import random_inputs, run_statements
from repro.expr.parser import parse_program
from repro.parallel.grid import ProcessorGrid
from repro.parallel.partition import canonical_plan, optimize_distribution
from repro.parallel.ptree import expression_to_ptree
from repro.parallel.simulate import GridSimulator
from repro.parallel.spmd import (
    compile_schedule,
    generate_spmd_source,
    load_rank_program,
    LocalComm,
    run_spmd,
)
from repro.pipeline import SynthesisConfig, synthesize
from repro.runtime.process import SpmdProcessPool, run_spmd_process
from repro.semiring import available_semirings, get_semiring

#: the stated bound of a rank-local GEMM against the interpreter
PLUS_TIMES_RTOL = 1e-10

HEADER = """
range N = 5; range M = 4;
index a, i, j, k : N; index b, l : M;
"""

#: name -> (statement, planner); every index group of the GEMM lowering
#: and both of its ways out
CASES = {
    # m, n, k
    "matmul": (
        "tensor A(i, k); tensor B(k, j);"
        "C(i, j) = sum(k) A(i, k) * B(k, j);",
        optimize_distribution,
    ),
    # a batch index carried through both operands
    "batch": (
        "tensor A(b, i, k); tensor B(b, k, j);"
        "C(b, i, j) = sum(k) A(b, i, k) * B(b, k, j);",
        optimize_distribution,
    ),
    # l is summed but lives in one operand only (GemmSpec.lred)
    "operand_only_sum": (
        "tensor A(i, k, l); tensor B(k, j);"
        "C(i, j) = sum(k, l) A(i, k, l) * B(k, j);",
        optimize_distribution,
    ),
    # the canonical plan distributes the first sorted index, here the
    # summed one: partial results meet in a combine after the contract
    "distributed_sum": (
        "tensor A(i, a); tensor B(a, j);"
        "C(i, j) = sum(a) A(i, a) * B(a, j);",
        canonical_plan,
    ),
    # a diagonal: lower_binary_term declines, the einsum takes it
    "repeated_index": (
        "tensor A(i, i, k); tensor B(k, j);"
        "C(i, j) = sum(k) A(i, i, k) * B(k, j);",
        optimize_distribution,
    ),
}
GRIDS = [(2,), (3,), (2, 2)]


def build(case, dims):
    text, planner = CASES[case]
    prog = parse_program(HEADER + text)
    stmt = prog.statements[0]
    plan = planner(expression_to_ptree(stmt.expr), ProcessorGrid(dims))
    return prog, stmt, plan


def inputs(prog, seed):
    """Non-negative data: the carrier every registered algebra accepts
    (``max_times`` and ``or_and`` fold from a zero of 0)."""
    return {k: np.abs(v) for k, v in random_inputs(prog, seed=seed).items()}


def oracle(prog, stmt, arrays, semiring):
    """The reference result in the ptree's sorted-index axis order."""
    want = run_statements([stmt], arrays, semiring=semiring)[stmt.result.name]
    declared = list(stmt.result.indices)
    return np.transpose(want, [declared.index(i) for i in sorted(declared)])


def assert_comm_equal(a, b):
    assert a.sent_elements == b.sent_elements
    assert a.received_elements == b.received_elements
    assert a.messages == b.messages
    assert a.total_traffic == b.total_traffic


@pytest.fixture(scope="module")
def pool():
    with SpmdProcessPool(2) as pool:
        yield pool


class TestSchedule:
    def test_partial_chain_folds_into_the_product(self):
        _, _, plan = build("operand_only_sum", (2,))
        kinds = [s.kind for s in compile_schedule(plan)]
        assert kinds.count("contract") == 1
        assert "partial" not in kinds
        (step,) = [s for s in compile_schedule(plan) if s.kind == "contract"]
        assert {i.name for i in step.args[4]} == {"k", "l"}

    @pytest.mark.parametrize("dims", GRIDS)
    def test_distributed_sum_is_contract_then_combine(self, dims):
        _, _, plan = build("distributed_sum", dims)
        kinds = [s.kind for s in compile_schedule(plan)]
        at = kinds.index("contract")
        assert kinds[at + 1] == "combine"

    def test_product_feeding_a_product_stays_a_plain_contract(self):
        """Only the partial chain *directly* above a product folds: the
        inner product of a three-factor chain is consumed by a product,
        so it sums nothing."""
        prog = parse_program(
            HEADER + "tensor A(i, k); tensor B(k, a); tensor D(a, j);"
            "C(i, j) = sum(k, a) A(i, k) * B(k, a) * D(a, j);"
        )
        plan = optimize_distribution(
            expression_to_ptree(prog.statements[0].expr), ProcessorGrid((2,))
        )
        sums = [
            s.args[4] for s in compile_schedule(plan) if s.kind == "contract"
        ]
        assert len(sums) == 2 and sums[0] == () and len(sums[1]) == 2

    def test_emitted_kernel_is_the_ladder(self):
        _, _, plan = build("matmul", (2,))
        gemm = generate_spmd_source(plan)
        assert "exec_gemm(" in gemm and "cached_einsum" not in gemm
        tropical = generate_spmd_source(plan, semiring="min_plus")
        assert "semiring='min_plus'" in tropical
        assert "exec_gemm" not in tropical
        _, _, plan = build("repeated_index", (2,))
        declined = generate_spmd_source(plan)
        assert "cached_einsum(" in declined and "exec_gemm" not in declined
        for text in (gemm, tropical, declined):
            assert "broadcast_to_axes" not in text


class TestAgainstOracle:
    @pytest.mark.parametrize("semiring", available_semirings())
    @pytest.mark.parametrize("dims", GRIDS)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_run_spmd_matches_run_statements(self, case, dims, semiring):
        prog, stmt, plan = build(case, dims)
        arrays = inputs(prog, 11)
        want = oracle(prog, stmt, arrays, semiring)
        run = run_spmd(plan, arrays, semiring=semiring)
        if get_semiring(semiring).idempotent:
            np.testing.assert_array_equal(run.result, want)
        else:
            np.testing.assert_allclose(
                run.result, want, rtol=PLUS_TIMES_RTOL, atol=0
            )


class TestDriverParity:
    @pytest.mark.parametrize("semiring", ["plus_times", "min_plus"])
    @pytest.mark.parametrize("dims", GRIDS)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_local_equals_process(self, pool, case, dims, semiring):
        prog, _, plan = build(case, dims)
        arrays = inputs(prog, 12)
        local = run_spmd(plan, arrays, semiring=semiring)
        proc = run_spmd_process(plan, arrays, pool=pool, semiring=semiring)
        np.testing.assert_array_equal(local.result, proc.result)
        assert local.supersteps == proc.supersteps
        assert local.restarts == proc.restarts == 0
        assert_comm_equal(local.comm, proc.comm)


class TestFullyLocalPlan:
    """A plan that never communicates still emits a generator: with
    compute steps no longer yielding, its body has no other ``yield``."""

    def _plan(self):
        prog, stmt, plan = build("batch", (1,))
        assert not any(
            s.kind in ("move", "combine", "bcast")
            for s in compile_schedule(plan)
        )
        return prog, stmt, plan

    def test_local_driver(self):
        prog, stmt, plan = self._plan()
        arrays = inputs(prog, 13)
        run = run_spmd(plan, arrays)
        assert run.supersteps == 1 and run.comm.total_traffic == 0
        np.testing.assert_allclose(
            run.result, oracle(prog, stmt, arrays, "plus_times"),
            rtol=PLUS_TIMES_RTOL,
        )

    def test_process_driver(self, pool):
        prog, stmt, plan = self._plan()
        arrays = inputs(prog, 13)
        local = run_spmd(plan, arrays)
        proc = run_spmd_process(plan, arrays, pool=pool)
        assert proc.supersteps == local.supersteps == 1
        np.testing.assert_array_equal(local.result, proc.result)


class TestMemoryClaim:
    """CCSD doubles on two processors (the ``ccsd_spmd`` program): the
    search prices a rank at its share of the multiply-adds plus what it
    receives, and the program that runs now holds nothing bigger."""

    def test_no_joint_block_and_traffic_matches_the_model(self):
        prog = ccsd_doubles_program(V=6, O=3)
        res = synthesize(prog, SynthesisConfig(grid=ProcessorGrid((2,))))
        arrays = dict(random_inputs(prog, seed=14))
        want = run_statements(res.statements, arrays)
        session = res.spmd_session()
        ranks = list(session.grid.ranks())
        # the session by hand: one tensor table per rank (a plain array
        # stands for its whole box), results entered where they are made
        tables = {r: dict(arrays) for r in ranks}
        planned = 0
        for stage in session.programs():
            program = load_rank_program(stage.source, stage.fname)
            comm = LocalComm(session.grid)
            states = {r: {} for r in ranks}
            live = {
                r: program(r, comm, tables[r], states[r]) for r in ranks
            }
            while live:
                for rank in list(live):
                    try:
                        next(live[rank])
                    except StopIteration:
                        del live[rank]
            for r in ranks:
                tables[r][stage.name] = states[r].pop("__result__")
            plan = res.partition_plans.get(stage.name)
            if plan is None:
                continue  # the rank-local fold of R: no contraction in it
            planned += 1
            ndim = {}
            for step in compile_schedule(plan):
                if step.kind == "slice":
                    ndim[step.out] = len(step.args[2])
                elif step.kind == "move":
                    ndim[step.out] = len(step.args[1])
                elif step.kind == "contract":
                    ndim[step.out] = len(step.args[5])
            limit = max(ndim.values())
            blocks = 0
            for state in states.values():
                for box, blk in state.values():
                    if blk is not None:
                        blocks += 1
                        assert blk.ndim <= limit, (stage.name, blk.shape)
            assert blocks

            _, report = GridSimulator(plan.grid).run(plan, want)
            assert comm.total_traffic == report.total_received, stage.name
        assert planned == len(res.partition_plans)
