"""One SPMD run is one resident session (:mod:`repro.parallel.session`).

What the router moves is asserted, not assumed: every tensor a run reads
is shipped to a worker once, as the box its ranks slice; a statement's
result stays where it was produced, a later statement redistributes from
there (the moves the sequence planner charges) and a multi-term combine
folds rank-locally; only what the caller asked for comes back.  Every
program shape that bends those rules -- renamed indices at the use site,
two consumers, a re-assigned name, a diagonal, a statement the router
has to evaluate mid-chain -- runs on the process backend, bit for bit
equal to the in-process one, and matches the reference executor.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chem.workloads import ccsd_doubles_program
from repro.engine.executor import random_inputs, run_statements
from repro.expr.parser import parse_program
from repro.parallel.commcost import move_cost_elements
from repro.parallel.grid import ProcessorGrid
from repro.parallel.program_plan import plan_sequence
from repro.parallel.session import Chain, plan_session, run_session
from repro.parallel.spmd import run_spmd
from repro.pipeline import SynthesisConfig, synthesize
from repro.runtime.process import SpmdProcessPool


@pytest.fixture(scope="module")
def pool():
    with SpmdProcessPool(2, shm_min_bytes=0) as made:
        yield made


class TestCcsdResidency:
    """CCSD doubles V=6 O=3 on two workers: six contractions, one fold."""

    @pytest.fixture(scope="class")
    def ccsd(self):
        prog = ccsd_doubles_program(V=6, O=3)
        res = synthesize(prog, SynthesisConfig(grid=ProcessorGrid((2,))))
        inputs = random_inputs(prog, seed=14)
        return res, inputs, run_statements(res.statements, inputs)

    def test_one_chain_and_only_r_comes_back(self, ccsd, pool):
        res, inputs, _ = ccsd
        session = res.spmd_session()
        (chain,) = session.items  # one load, no statement on the router
        assert isinstance(chain, Chain)
        assert [st.name for st in chain.stages][-1] == "R"
        assert [st.name for st in chain.want] == ["R"]
        out = run_session(session, inputs, backend="process", pool=pool)
        assert sorted(out.arrays) == sorted(list(inputs) + ["R"])
        assert out.gathered_elements == out.arrays["R"].size

    def test_every_tensor_is_shipped_once_as_its_box(self, ccsd, pool):
        res, inputs, _ = ccsd
        session = res.spmd_session()
        (chain,) = session.items
        ranks = list(session.grid.ranks())
        # T2 is read by six statements under four distributions, and
        # the small operands are sliced where their contraction
        # replicates them: each worker needs all of these, and gets
        # each once
        whole = ("T2", "Fae", "Fmi", "Wmnij", "Vmnef")
        for rank in ranks:
            for name in whole:
                assert chain.ships[name][rank] == tuple(
                    (0, n) for n in inputs[name].shape
                ), name
        # Wabef is read once, split along a: the two boxes tile it
        boxes = [chain.ships["Wabef"][rank] for rank in ranks]
        assert boxes[0][0][1] == boxes[1][0][0]
        sizes = {
            name: sum(
                int(np.prod([hi - lo for lo, hi in box]))
                for box in chain.ships[name].values()
            )
            for name in chain.ships
        }
        assert sorted(sizes) == sorted(whole + ("Wabef",))
        for name in whole:
            assert sizes[name] == 2 * inputs[name].size, name
        assert sizes["Wabef"] == inputs["Wabef"].size
        first = run_session(session, inputs, backend="process", pool=pool)
        again = run_session(session, inputs, backend="process", pool=pool)
        assert first.shipped_elements == sum(sizes.values())
        assert again.shipped_elements == first.shipped_elements  # per run

    def test_traffic_is_each_statements_own_plus_the_planned_moves(
        self, ccsd, pool
    ):
        res, inputs, want = ccsd
        session = res.spmd_session()
        out = run_session(session, inputs, backend="process", pool=pool)
        runs = dict(out.runs)
        # a contraction communicates what it does run alone from global
        # arrays: its operands were either shipped or already in place
        for name, plan in res.partition_plans.items():
            alone = run_spmd(plan, want)
            assert runs[name].comm.total_traffic == alone.comm.total_traffic
            assert runs[name].placed_elements == alone.placed_elements
            assert runs[name].supersteps == alone.supersteps, name
        assert out.placed_elements == sum(
            run.placed_elements for run in runs.values()
        ) > 0
        # the fold's alignment moves are independent: one round
        assert runs["R"].supersteps == 2
        # the fold's whole traffic is the alignment the planner priced:
        # every operand not already where the first one lies moves there
        grid = session.grid
        stmt = res.statements[-1]
        indices = tuple(sorted(stmt.result.indices))
        held = {
            st.name: st.held.dist for st in session.programs()
        }
        refs = list(stmt.expr.refs())
        base = held[refs[0].tensor.name]
        planned = sum(
            move_cost_elements(indices, held[r.tensor.name], base, grid)
            for r in refs
            if held[r.tensor.name].effective(indices) != base.effective(indices)
        )
        assert planned > 0
        assert max(runs["R"].comm.received_elements.values()) == planned
        assert out.total_traffic == sum(
            run.comm.total_traffic for run in runs.values()
        )

    def test_process_equals_local_bit_for_bit(self, ccsd, pool):
        res, inputs, want = ccsd
        local = res.run_parallel(dict(inputs), backend="local")
        proc = res.run_parallel(dict(inputs), backend="process", pool=pool)
        assert sorted(local) == sorted(proc)
        np.testing.assert_array_equal(local["R"], proc["R"])
        np.testing.assert_allclose(proc["R"], want["R"], rtol=1e-9)


class TestTwoRoundTrips:
    """The ``ccsd_spmd`` program (CCSD doubles V=16 O=6 on two workers)
    is a ``load`` and one ``go``: every input is sliced where its
    contraction needs it, and the fold's independent moves share a
    round."""

    def test_counts_per_run(self, pool, monkeypatch):
        from repro.parallel import session as session_module

        prog = ccsd_doubles_program(V=16, O=6)
        res = synthesize(prog, SynthesisConfig(processors=2))
        inputs = random_inputs(prog, seed=0)
        session = res.spmd_session()
        assert [
            (st.name, st.source.count("\n    yield\n"))
            for st in session.programs()
        ] == [
            ("T1", 0), ("T3", 0), ("T4", 0), ("T5", 0), ("T7", 0),
            ("T6", 0), ("R", 1),
        ]
        trips = []
        real = session_module._recv_all

        def counting(ports):
            trips.append(len(ports))
            return real(ports)

        monkeypatch.setattr(session_module, "_recv_all", counting)
        first = run_session(session, inputs, backend="process", pool=pool)
        trips.clear()  # the first run also sent the program texts
        out = run_session(session, inputs, backend="process", pool=pool)
        assert trips == [2, 2]
        assert out.total_supersteps == 8
        # only R's fold still sends anything
        assert out.total_traffic == 18432
        assert dict(out.runs)["R"].comm.total_traffic == 18432
        assert out.placed_elements == 29236
        assert out.shipped_elements == 105576
        np.testing.assert_array_equal(first.arrays["R"], out.arrays["R"])
        local = run_session(session, inputs)
        np.testing.assert_array_equal(local.arrays["R"], out.arrays["R"])


# every shape that bends the rules, as (text, functions, what to check)
RENAMED = """
range N = {n};
index a, b, c, i, j, k : N;
tensor A(a, c); tensor B(c, b);
X(a, b) = sum(c) A(a, c) * B(c, b);
S(i, j) = sum(k) X(i, k) * X(k, j);
"""
TWO_CONSUMERS = """
range N = {n};
index a, b, c : N;
tensor A(a, b); tensor B(b, c);
X(b, a) = A(a, b);
S(a, c) = sum(b) X(b, a) * B(b, c);
Y(a) = sum(b) X(b, a) * A(a, b);
"""
REASSIGNED = """
range N = {n};
index a, b, c : N;
tensor A(a, c); tensor B(c, b);
X(a, b) = sum(c) A(a, c) * B(c, b);
X(a, b) = sum(c) X(a, c) * B(c, b);
S(a, b) = sum(c) X(a, c) * A(c, b);
"""
DIAGONAL = """
range N = {n};
index a, b, c : N;
tensor A(a, c); tensor B(c, b);
X(a, b) = sum(c) A(a, c) * B(c, b);
Y(a) = sum(b) X(b, b) * A(a, b);
Z(a) = sum(b) B(b, b) * X(a, b);
"""
FUNCTION = """
range N = {n};
index a, b, c : N;
tensor A(a, c); tensor B(c, b);
function f(a, b) cost 10;
X(a, b) = sum(c) A(a, c) * B(c, b);
F(a, b) = f(a, b) * X(a, b);
S(a, b) = sum(c) F(a, c) * X(c, b);
"""
FOLD = """
range N = {n};
index a, b, c : N;
tensor A(a, c); tensor B(c, b); tensor G(a, b);
X(a, b) = sum(c) A(a, c) * B(c, b);
Y(b, a) = sum(c) B(c, b) * A(a, c);
R(a, b) = X(a, b) + Y(b, a) + G(a, b);
"""
#: a long summed index: the plan splits the sum, so partials combine
SUMMED = """
range N = {n}; range K = 64;
index a, b, c : N; index k : K;
tensor A(a, k); tensor B(k, b); tensor C(b, c);
X(a, b) = sum(k) A(a, k) * B(k, b);
S(a, c) = sum(b) X(a, b) * C(b, c);
"""
CASES = {
    "renamed": (RENAMED, ["S"]),
    "two-consumers": (TWO_CONSUMERS, ["S", "Y"]),
    "reassigned": (REASSIGNED, ["X", "S"]),
    "diagonal": (DIAGONAL, ["Y", "Z"]),
    "function": (FUNCTION, ["S"]),
    "fold": (FOLD, ["R"]),
    "summed": (SUMMED, ["S"]),
}
FUNCTIONS = {"f": lambda a, b: 1.0 + a + 2.0 * b}


def moved_inputs(source):
    """Values a rank program slices out of an input and then moves."""
    sliced = re.findall(r"state\[('v\d+')\] = \(_box, take\(", source)
    moved = re.findall(r"_mybox, _myblk = state\[('v\d+')\]", source)
    return set(sliced) & set(moved)


def both_backends(text, outputs, dims, semiring, seed, pool):
    prog = parse_program(text)
    grid = ProcessorGrid(dims)
    seq = plan_sequence(prog.statements, grid)
    session = plan_session(prog.statements, seq.plans, semiring, outputs)
    inputs = random_inputs(prog, seed=seed)
    how = dict(functions=FUNCTIONS)
    local = run_session(session, inputs, **how)
    proc = run_session(session, inputs, backend="process", pool=pool, **how)
    want = run_statements(
        prog.statements, inputs, functions=FUNCTIONS, semiring=semiring
    )
    return session, local, proc, want


class TestProgramShapes:
    @settings(
        max_examples=12, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        case=st.sampled_from(sorted(CASES)),
        n=st.integers(3, 5),
        dims=st.sampled_from([(2,), (2, 2), (3,)]),
        semiring=st.sampled_from(["plus_times", "min_plus"]),
        seed=st.integers(0, 1000),
    )
    def test_process_equals_local_and_matches_the_reference(
        self, pool, case, n, dims, semiring, seed
    ):
        text, outputs = CASES[case]
        session, local, proc, want = both_backends(
            text.format(n=n), outputs, dims, semiring, seed, pool
        )
        for name in outputs:
            np.testing.assert_array_equal(
                local.arrays[name], proc.arrays[name], err_msg=name
            )
            if semiring == "min_plus":  # min folds in any order, exactly
                np.testing.assert_array_equal(
                    proc.arrays[name], want[name], err_msg=name
                )
            np.testing.assert_allclose(
                proc.arrays[name], want[name], rtol=1e-9, atol=1e-12,
                err_msg=name,
            )
        assert local.total_traffic == proc.total_traffic
        assert local.total_supersteps == proc.total_supersteps
        assert local.placed_elements == proc.placed_elements
        # (what is shipped depends on how many workers share the ranks)
        assert local.gathered_elements == proc.gathered_elements
        for stage in session.programs():
            assert not moved_inputs(stage.source), stage.name

    def test_split_sum_combines_in_its_own_round(self, pool):
        """The ``summed`` case really exercises a ``combine``: partial
        sums meet at a root, counted alike by both backends."""
        session, local, proc, _ = both_backends(
            SUMMED.format(n=4), ["S"], (2, 2), "plus_times", 5, pool
        )
        (stage,) = session.programs()
        assert "combine partials" in stage.source
        assert local.total_traffic == proc.total_traffic > 0

    def test_renamed_use_moves_from_the_producers_distribution(self, pool):
        """``X(i,k)`` and ``X(k,j)`` read one resident block through
        two renamings: neither is shipped, neither is gathered."""
        session, _, proc, _ = both_backends(
            RENAMED.format(n=4), ["S"], (2,), "plus_times", 0, pool
        )
        (chain,) = session.items
        assert "X" not in chain.ships
        assert [st.name for st in chain.want] == ["S"]
        assert "X" not in proc.arrays

    def test_reassigned_name_binds_a_new_entry(self, pool):
        """The second ``X`` reads the first and replaces it; both are
        planned, and only the last one comes back."""
        session, _, proc, want = both_backends(
            REASSIGNED.format(n=4), ["X", "S"], (2,), "plus_times", 1, pool
        )
        assert [st.name for st in session.programs()] == ["X", "X", "S"]
        np.testing.assert_allclose(proc.arrays["X"], want["X"], rtol=1e-9)

    def test_diagonal_of_a_resident_tensor_forces_a_gather(self, pool):
        session, _, proc, _ = both_backends(
            DIAGONAL.format(n=4), ["Y", "Z"], (2,), "plus_times", 2, pool
        )
        first, second = session.items
        # X(b,b) is no distribution's block: X comes back and is
        # re-shipped as the box the diagonal's readers need
        assert [st.name for st in first.want] == ["X"]
        assert "X" in second.ships
        assert "X" in proc.arrays

    def test_function_statement_splits_the_chain(self, pool):
        session, _, proc, _ = both_backends(
            FUNCTION.format(n=4), ["S"], (2,), "plus_times", 3, pool
        )
        first, local, second = session.items
        assert [st.name for st in first.want] == ["X"]  # what F reads
        assert local.name == "F" and "function" in local.reason
        assert "F" in second.ships  # the router's result goes back out
        assert "X" not in second.ships  # X is still where it was made
        assert [st.name for st in second.want] == ["S"]

    def test_router_says_why_a_statement_is_not_distributed(self):
        """Only a multi-term combine is "kept data-local"; a contraction
        that was handed no plan says just that."""
        prog = parse_program(FOLD.format(n=4))
        session = plan_session(prog.statements, [], outputs=["R"])
        assert {st.name: st.reason for st in session.local()} == {
            "X": "no partition plan",
            "Y": "no partition plan",
            "R": "no partition plan (multi-term combine kept data-local)",
        }

    def test_unwanted_statement_is_not_run(self, pool):
        session, _, proc, _ = both_backends(
            TWO_CONSUMERS.format(n=4), ["S"], (2,), "plus_times", 4, pool
        )
        assert [st.name for st in session.programs()] == ["X", "S"]
        assert "Y" not in proc.arrays


MATMUL_2X2 = """
range N = 8;
index i, j, k : N;
tensor A(i, k); tensor B(k, j);
C(i, j) = sum(k) A(i, k) * B(k, j);
"""


class TestInputsAreChecked:
    """The router checks what it is about to ship: rank programs slice
    their arrays unchecked, so a bad one used to die inside a worker as
    a numpy reshape error naming no tensor."""

    @pytest.mark.parametrize("backend", ["local", "process"])
    def test_misshaped_input_is_a_shape_error_naming_it(self, backend, pool):
        from repro.robustness.errors import ShapeError, SpecError

        prog = ccsd_doubles_program(V=4, O=2)
        res = synthesize(prog, SynthesisConfig(grid=ProcessorGrid((2,))))
        inputs = random_inputs(prog, seed=3)
        how = {"backend": backend}
        if backend == "process":
            how["pool"] = pool
        with pytest.raises(ShapeError, match="'T2'.*declared shape") as info:
            res.run_parallel(dict(inputs, T2=inputs["T2"][:3]), **how)
        assert info.value.tensor == "T2"
        with pytest.raises(SpecError, match="'T2'") as info:
            res.run_parallel(
                {k: v for k, v in inputs.items() if k != "T2"}, **how
            )
        assert info.value.tensor == "T2"
        # nothing was posted: the pool serves the next run as it is
        out = res.run_parallel(inputs, **how)
        want = run_statements(res.program.statements, inputs)
        np.testing.assert_allclose(out["R"], want["R"], rtol=1e-10)

    def test_an_intermediate_the_router_computes_is_not_demanded(self):
        """Only what no earlier statement produces must be in ``inputs``."""
        text = """
        range N = 4;
        index i, j, k : N;
        tensor A(i, k); tensor B(k, j); function F(i, j) cost 5;
        X(i, j) = F(i, j) * A(i, j);
        C(i, j) = sum(k) X(i, k) * B(k, j);
        """
        prog = parse_program(text)
        seq = plan_sequence(prog.statements, ProcessorGrid((2,)))
        session = plan_session(prog.statements, seq.plans, outputs=["C"])
        assert sorted({r.tensor.name for r in session.external}) == ["B"]


class TestWorkerCount:
    """One rule (:func:`repro.parallel.session.worker_count`) behind the
    four places that each used to compute an SPMD worker count."""

    @pytest.mark.parametrize(
        "procs, ncpu, want, clamp",
        [
            (None, 8, 4, None),
            (3, 8, 3, None),
            (None, 2, 2, "procs clamped 4 -> 2"),
            (9, 1, 1, "procs clamped 4 -> 1"),
        ],
    )
    def test_every_front_end_agrees(
        self, procs, ncpu, want, clamp, monkeypatch, tmp_path, capsys
    ):
        import asyncio
        import os

        from repro.cli import main
        from repro.parallel.session import worker_count
        from repro.server.app import ReproServer, ServerConfig
        from repro.server.client import arequest

        monkeypatch.setattr(os, "cpu_count", lambda: ncpu)
        count, note = worker_count(4, procs)
        assert count == want
        assert (note or "").startswith(clamp or "")
        assert bool(note) == bool(clamp)

        used = []
        real = SpmdProcessPool.workers

        def spy(self, n):
            ports = real(self, n)
            used.append(len(ports))
            return ports

        monkeypatch.setattr(SpmdProcessPool, "workers", spy)
        res = synthesize(
            MATMUL_2X2, SynthesisConfig(grid=ProcessorGrid((2, 2)))
        )
        inputs = random_inputs(res.program, seed=0)
        seen = {}

        out = run_session(
            res.spmd_session(), inputs, backend="process", procs=procs
        )
        seen["run_session"] = (used.pop(), out.notes)

        ran = res.run_parallel(inputs, backend="process", procs=procs)
        seen["run_parallel"] = (used.pop(), ran.notes)

        path = tmp_path / "mm.tce"
        path.write_text(MATMUL_2X2)
        argv = [
            str(path), "--no-cache-opt", "--grid", "2x2", "--run",
            "--backend", "process", "--inject-chaos", "kill_worker@999",
        ]
        if procs is not None:
            argv += ["--procs", str(procs)]
        assert main(argv) == 0
        warnings = [
            line[len("warning: "):]
            for line in capsys.readouterr().err.splitlines()
            if line.startswith("warning: ")
        ]
        seen["cli"] = (used.pop(), warnings)

        async def served():
            app = ReproServer(ServerConfig(port=0))
            await app.start()
            try:
                request = {
                    "program": MATMUL_2X2, "backend": "process",
                    "options": {"grid": "2x2"}, "result": "checksum",
                }
                if procs is not None:
                    request["procs"] = procs
                status, body = await arequest(
                    app.host, app.port, "POST", "/v1/execute", request
                )
                assert status == 200, body
                return body
            finally:
                await app.stop()

        body = asyncio.run(served())
        assert body["pool"]["procs"] == want
        seen["server"] = (used.pop(), body["notes"])

        assert not used
        for site, (workers, notes) in seen.items():
            assert workers == want, site
            assert [n for n in notes if "clamped" in n] == (
                [note] if note else []
            ), site

    @pytest.mark.parametrize("procs", [0, -3])
    def test_fewer_than_one_worker_is_refused(self, procs):
        """The library refuses ``procs < 1`` as the CLI and the wire do,
        before any worker is spawned."""
        from repro.parallel.session import worker_count
        from repro.robustness import SpecError

        with pytest.raises(SpecError, match="procs must be >= 1"):
            worker_count(2, procs)
        res = synthesize(
            MATMUL_2X2, SynthesisConfig(grid=ProcessorGrid((2, 2)))
        )
        inputs = random_inputs(res.program, seed=0)
        with pytest.raises(SpecError, match="procs must be >= 1"):
            res.run_parallel(inputs, backend="process", procs=procs)
