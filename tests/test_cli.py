"""Tests for the command-line interface."""

import re
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import build_parser, main

SRC = """
range V = 4;
range O = 2;
index a, b, c, d, e, f : V;
index i, j, k, l : O;
tensor A(a, c, i, k); tensor B(b, e, f, l);
tensor C(d, f, j, k); tensor D(c, d, e, l);
S(a, b, i, j) = sum(c, d, e, f, k, l)
    A(a,c,i,k) * B(b,e,f,l) * C(d,f,j,k) * D(c,d,e,l);
"""


@pytest.fixture
def src_file(tmp_path):
    path = tmp_path / "input.tce"
    path.write_text(SRC)
    return str(path)


class TestParser:
    def test_grid_parsing(self):
        parser = build_parser()
        args = parser.parse_args(["x.tce", "--grid", "2x2x2"])
        assert args.grid.dims == (2, 2, 2)

    def test_grid_single(self):
        args = build_parser().parse_args(["x.tce", "--grid", "4"])
        assert args.grid.dims == (4,)

    def test_bad_grid_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["x.tce", "--grid", "two"])


class TestMain:
    def test_basic_run(self, src_file, capsys):
        rc = main([src_file, "--no-cache-opt"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Algebraic transformations" in out
        assert "Code generation" in out

    def test_show_structure(self, src_file, capsys):
        rc = main([src_file, "--no-cache-opt", "--show-structure"])
        assert rc == 0
        assert "for " in capsys.readouterr().out

    def test_show_code(self, src_file, capsys):
        rc = main([src_file, "--no-cache-opt", "--show-code"])
        assert rc == 0
        assert "def kernel(" in capsys.readouterr().out

    def test_grid_plans(self, src_file, capsys):
        rc = main([src_file, "--no-cache-opt", "--grid", "2", "--show-plans"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "distribution plans" in out

    def test_missing_file(self, capsys):
        rc = main(["/nonexistent/path.tce"])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_parse_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.tce"
        bad.write_text("range V = ;")
        rc = main([str(bad)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_emit_kernel_is_importable(self, src_file, tmp_path, capsys):
        out_py = tmp_path / "kernel.py"
        rc = main([src_file, "--no-cache-opt", "--emit", str(out_py)])
        assert rc == 0
        namespace = {}
        exec(out_py.read_text(), namespace)
        kernel = namespace["kernel"]
        rng = np.random.default_rng(0)
        arrays = {
            "A": rng.standard_normal((4, 4, 2, 2)),
            "B": rng.standard_normal((4, 4, 4, 2)),
            "C": rng.standard_normal((4, 4, 2, 2)),
            "D": rng.standard_normal((4, 4, 4, 2)),
        }
        env = kernel(dict(arrays), {})
        assert env["S"].shape == (4, 4, 2, 2)

    def test_module_invocation(self, src_file):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", src_file, "--no-cache-opt"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "Algebraic transformations" in proc.stdout


class TestEmitSpmd:
    def test_emit_spmd_with_grid(self, src_file, tmp_path, capsys):
        out_py = tmp_path / "spmd.py"
        rc = main([
            src_file, "--no-cache-opt", "--grid", "2",
            "--emit-spmd", str(out_py),
        ])
        assert rc == 0
        text = out_py.read_text()
        assert "def rank_program_" in text
        assert "yield" in text
        compile(text, str(out_py), "exec")

    def test_emit_spmd_without_grid_fails(self, src_file, tmp_path, capsys):
        out_py = tmp_path / "spmd.py"
        rc = main([src_file, "--no-cache-opt", "--emit-spmd", str(out_py)])
        assert rc == 2
        assert "requires --grid" in capsys.readouterr().err

    def test_processors_flag(self, src_file, capsys):
        rc = main([src_file, "--no-cache-opt", "--processors", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "chose grid" in out


SMALL_SRC = """
range N = 4;
index i, j, k : N;
tensor A(i, k); tensor B(k, j);
C(i, j) = sum(k) A(i, k) * B(k, j);
"""


#: a long summed index: on a 2x2 grid the plan splits the sum, so the
#: ranks communicate in three rounds (supersteps 0-3, four messages)
#: where SMALL_SRC only places its inputs and sends nothing
SUMMED_SRC = """
range N = 6; range K = 64;
index i, j : N; index k : K;
tensor A(i, k); tensor B(k, j);
C(i, j) = sum(k) A(i, k) * B(k, j);
"""


@pytest.fixture
def small_file(tmp_path):
    path = tmp_path / "small.tce"
    path.write_text(SMALL_SRC)
    return str(path)


@pytest.fixture
def summed_file(tmp_path):
    path = tmp_path / "summed.tce"
    path.write_text(SUMMED_SRC)
    return str(path)


class TestExitCodes:
    """The documented exit-code contract: 2 spec, 3 budget, 4 execution."""

    def test_strict_budget_exhaustion_is_exit_3(self, src_file, capsys):
        rc = main([
            src_file, "--no-cache-opt",
            "--budget-nodes", "0", "--budget-strict",
        ])
        assert rc == 3
        err = capsys.readouterr().err
        assert "BudgetExceeded" in err

    def test_lenient_budget_degrades_to_success(self, src_file, capsys):
        rc = main([src_file, "--no-cache-opt", "--budget-nodes", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "degraded" in out

    def test_bad_fault_spec_is_exit_2(self, small_file, capsys):
        rc = main([
            small_file, "--no-cache-opt", "--run",
            "--inject-fault", "explode:9",
        ])
        assert rc == 2
        assert "fault spec" in capsys.readouterr().err

    def test_inject_fault_requires_run(self, small_file, capsys):
        rc = main([small_file, "--no-cache-opt", "--inject-fault", "drop:0"])
        assert rc == 2
        assert "requires --run" in capsys.readouterr().err

    def test_unrecoverable_fault_is_exit_4(self, summed_file, capsys):
        # a superstep is a communication round, so outlasting the three
        # restarts takes a statement with four supersteps: the split
        # sum on a 2x2 grid has exactly four
        rc = main([
            summed_file, "--no-cache-opt", "--grid", "2x2", "--run",
            "--inject-fault", "crash:0;crash:1;crash:2;crash:3;crash:4",
        ])
        assert rc == 4
        assert "restart" in capsys.readouterr().err

    def test_recoverable_crashes_are_exit_0(self, summed_file, capsys):
        """The same program survives exactly as many crashes as the
        restart budget allows -- the boundary the test above crosses --
        and says how many fired."""
        rc = main([
            summed_file, "--no-cache-opt", "--grid", "2x2", "--run",
            "--inject-fault", "crash:0;crash:1;crash:2",
        ])
        assert rc == 0
        assert (
            "parallel outputs match the reference executor "
            "(injected faults: 3 restarts)"
        ) in capsys.readouterr().out


class TestRun:
    def test_run_validates_against_reference(self, small_file, capsys):
        rc = main([small_file, "--no-cache-opt", "--run"])
        assert rc == 0
        assert "match the reference executor" in capsys.readouterr().out

    def test_run_parallel_with_recovered_faults(self, summed_file, capsys):
        rc = main([
            summed_file, "--no-cache-opt", "--grid", "2x2", "--run",
            "--inject-fault", "drop:0",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert (
            "parallel outputs match the reference executor "
            "(injected faults: 1 dropped message retried)"
        ) in out

    def test_faults_that_never_fire_are_not_claimed(self, small_file, capsys):
        """The square matmul only places its inputs on a 2x2 grid: no
        message exists for ``drop:0`` and no second superstep for
        ``crash:1``, and the report says so instead of claiming a
        recovery."""
        rc = main([
            small_file, "--no-cache-opt", "--grid", "2x2", "--run",
            "--inject-fault", "drop:0;crash:1",
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "(injected faults: scheduled, none fired)" in captured.out
        assert "recovered" not in captured.out
        assert "injected faults" not in captured.err

    def test_run_with_checkpoint_dir(self, small_file, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        rc = main([
            small_file, "--no-cache-opt", "--run",
            "--checkpoint-dir", str(ckpt),
        ])
        assert rc == 0
        assert "match the reference executor" in capsys.readouterr().out
        # checkpoint is cleared after a successful run
        assert not (ckpt / "checkpoint.pkl").exists()

    def test_run_reports_the_substrate_it_ran_on(self, small_file, capsys):
        """``--run`` executes what it compiled (``result.run``), under
        every codegen mode; the substrate is on the report line."""
        for mode in ("auto", "native"):
            rc = main([small_file, "--no-cache-opt", "--codegen", mode, "--run"])
            assert rc == 0
            assert (
                "run: outputs match the reference executor (kernels)"
                in capsys.readouterr().out
            )
        # past --memory the chooser falls back, and says so
        rc = main([small_file, "--no-cache-opt", "--memory", "8", "--run"])
        assert rc == 0
        assert "reference executor (interp)" in capsys.readouterr().out

    def test_checkpoint_dir_resumes_on_the_interpreter(
        self, small_file, tmp_path, capsys
    ):
        """An interrupted interpreter run leaves a checkpoint; ``--run
        --checkpoint-dir`` picks it up instead of starting over (a
        tampered snapshot shows in the result) and clears it."""
        import pickle

        from repro.engine.executor import random_inputs
        from repro.pipeline import SynthesisConfig, synthesize
        from repro.robustness.errors import InjectedFault

        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        saved = ckpt / "checkpoint.pkl"
        result = synthesize(SMALL_SRC, SynthesisConfig(optimize_cache=False))
        inputs = random_inputs(result.program, None, seed=0)

        def interrupt():
            from repro.codegen.interp import execute

            with pytest.raises(InjectedFault):
                execute(
                    result.structure, inputs, checkpoint=str(ckpt),
                    interrupt_after=3,
                )
            assert saved.exists()

        args = [
            small_file, "--no-cache-opt", "--run",
            "--checkpoint-dir", str(ckpt),
        ]
        interrupt()
        assert main(args) == 0
        assert "reference executor (interp)" in capsys.readouterr().out
        assert not saved.exists()

        interrupt()
        state = pickle.loads(saved.read_bytes())
        done = state["arrays"]["C"]
        done[np.nonzero(done)[0][0]] += 1.0  # a row the run had finished
        saved.write_bytes(pickle.dumps(state))
        assert main(args) == 4
        assert "does not match" in capsys.readouterr().err


class TestProcessBackend:
    def test_run_with_process_backend(self, small_file, capsys):
        rc = main([
            small_file, "--no-cache-opt", "--grid", "2", "--run",
            "--backend", "process", "--procs", "2",
        ])
        assert rc == 0
        assert "parallel outputs match" in capsys.readouterr().out

    def test_process_backend_recovers_faults(self, summed_file, capsys):
        # 2x2: three rounds, so message 0 and superstep 1 exist
        rc = main([
            summed_file, "--no-cache-opt", "--grid", "2x2", "--run",
            "--backend", "process", "--inject-fault", "drop:0;crash:1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert (
            "(injected faults: 1 dropped message retried, 1 restart)" in out
        )

    def test_local_fallback_warning_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "mixed.tce"
        # F + G combines two inputs: no rank holds anything to fold it
        # over, so the router evaluates it, and says so
        path.write_text("""
        range N = 4;
        index a, b, c : N;
        tensor F(a, b); tensor G(a, b); tensor B(b, c);
        R(a, c) = sum(b) (F(a, b) + G(a, b)) * B(b, c);
        """)
        rc = main([str(path), "--no-cache-opt", "--grid", "2", "--run"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "executed locally" in err


class TestPlanCacheFlag:
    def test_cold_then_warm(self, small_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "plans")
        rc = main([small_file, "--no-cache-opt", "--plan-cache", cache_dir])
        assert rc == 0
        assert "miss" in capsys.readouterr().out
        rc = main([small_file, "--no-cache-opt", "--plan-cache", cache_dir])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Plan cache" in out and "disk" in out

    def test_cached_plan_still_runs(self, small_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "plans")
        args = [
            small_file, "--no-cache-opt", "--grid", "2",
            "--plan-cache", cache_dir, "--run",
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0  # warm: revived result must execute
        out = capsys.readouterr().out
        assert "disk" in out
        assert "parallel outputs match" in out


class TestArgumentValidation:
    """Out-of-range values argparse accepts must fail fast with one
    structured diagnostic line and the spec exit code (2)."""

    def _assert_spec_error(self, capsys, rc, fragment):
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert fragment in err

    def test_procs_zero_is_exit_2(self, small_file, capsys):
        rc = main([small_file, "--backend", "process", "--procs", "0"])
        self._assert_spec_error(capsys, rc, "--procs")

    def test_procs_negative_is_exit_2(self, small_file, capsys):
        rc = main([small_file, "--backend", "process", "--procs", "-2"])
        self._assert_spec_error(capsys, rc, "--procs")

    def test_processors_zero_is_exit_2(self, small_file, capsys):
        # a config field: SynthesisConfig.validate's one message
        rc = main([small_file, "--processors", "0"])
        self._assert_spec_error(capsys, rc, "processors must be")

    def test_negative_budget_ms_is_exit_2(self, small_file, capsys):
        rc = main([small_file, "--budget-ms", "-5"])
        self._assert_spec_error(capsys, rc, "--budget-ms")

    def test_negative_budget_nodes_is_exit_2(self, small_file, capsys):
        rc = main([small_file, "--budget-nodes", "-3"])
        self._assert_spec_error(capsys, rc, "--budget-nodes")

    def test_tune_trials_zero_is_exit_2(self, small_file, capsys):
        rc = main([small_file, "--autotune", "--tune-trials", "0"])
        self._assert_spec_error(capsys, rc, "--tune-trials")

    def test_tuning_db_requires_autotune(self, small_file, tmp_path, capsys):
        rc = main([small_file, "--tuning-db", str(tmp_path / "db")])
        self._assert_spec_error(capsys, rc, "--autotune")

    def test_validation_precedes_file_access(self, capsys):
        """Bad flag values are diagnosed before the input is opened."""
        rc = main(["/nonexistent/input.tce", "--procs", "0"])
        self._assert_spec_error(capsys, rc, "--procs")


class TestAutotuneFlag:
    def test_autotune_reports_stage(self, small_file, capsys):
        rc = main([small_file, "--autotune", "--tune-trials", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Autotuning" in out
        assert "measurement runs" in out

    def test_tuning_db_cold_then_warm(self, small_file, tmp_path, capsys):
        db_dir = str(tmp_path / "tune")
        args = [
            small_file, "--autotune", "--tune-trials", "2",
            "--tuning-db", db_dir,
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "miss (measured and stored)" in out
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "hit" in out and "disk" in out
        assert re.search(r"measurement runs\s*: 0\b", out)

    def test_autotuned_result_still_validates(self, small_file, capsys):
        rc = main([small_file, "--autotune", "--tune-trials", "2", "--run"])
        assert rc == 0
        assert "match the reference executor" in capsys.readouterr().out
