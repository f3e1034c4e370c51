"""Tests for the empirical autotuning subsystem (repro.autotune).

The acceptance properties the subsystem guarantees:

* **determinism** -- two tuning runs with the same seed, fake clock,
  and machine signature produce byte-identical TuningDB files;
* **signature discipline** -- a stored record is never applied under a
  different machine signature or configuration fingerprint;
* **warm hits measure nothing** -- a TuningDB hit re-applies the stored
  decisions with zero measurement runs;
* **budget degradation** -- an exhausted budget degrades to the
  analytical choice with ``degraded=True``, never an exception (even
  under strict budgets).
"""

import json

import numpy as np
import pytest

from repro import AutotuneOptions, SynthesisConfig, TuningDB, synthesize
from repro.autotune.db import machine_signature, tuning_key
from repro.autotune.measure import Measurement, Measurer, median
from repro.engine.executor import random_inputs, run_statements
from repro.engine.machine import MachineModel, MemoryLevel
from repro.robustness.budget import Budget
from repro.robustness.errors import BudgetExceeded

MATMUL = """
range N = 10;
index i, j, k : N;
tensor A(i, k); tensor B(k, j);
C(i, j) = sum(k) A(i, k) * B(k, j);
"""


def tiny_cache_config(**kwargs):
    """A machine whose cache pressure makes the tile search tile."""
    machine = MachineModel(
        cache=MemoryLevel("cache", 64, 8.0),
        memory=MemoryLevel("memory", 1 << 24, 512.0),
        disk=MemoryLevel("disk", 1 << 31, 100_000.0),
    )
    return SynthesisConfig(machine=machine, **kwargs)


class FakeClock:
    """Deterministic perf_counter_ns stand-in: each call advances by a
    fixed step, so every measured span is identical and the winner is
    decided by stable tie-breaking -- reproducible across runs."""

    def __init__(self, step_ns: int = 1000):
        self.step = step_ns
        self.now = 0

    def __call__(self) -> int:
        self.now += self.step
        return self.now


class TestMedianAndMeasurer:
    def test_median_odd_even(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 2.0, 3.0]) == 2.5

    def test_median_empty_rejected(self):
        with pytest.raises(ValueError):
            median([])

    def test_measure_counts_runs(self):
        m = Measurer(warmup=2, repeats=3, timer=FakeClock())
        calls = []
        result = m.measure("x", lambda: calls.append(1))
        assert len(calls) == 5  # 2 warmup + 3 timed
        assert m.total_runs == 5
        assert result.runs == 5
        assert result.rejected == 0

    def test_outlier_rejection(self):
        # spans: 100, 100, 1000 -> median 100, 1000 > 3x100 rejected
        ticks = iter([0, 100, 200, 300, 400, 1400])
        m = Measurer(warmup=0, repeats=3, timer=lambda: next(ticks))
        result = m.measure("x", lambda: None)
        assert result.samples_ns == [100, 100, 1000]
        assert result.rejected == 1
        assert result.median_ns == 100.0

    def test_median_always_survives_rejection(self):
        ticks = iter([0, 1, 2, 1002, 2002, 5002])
        m = Measurer(warmup=0, repeats=3, timer=lambda: next(ticks))
        result = m.measure("x", lambda: None)
        assert result.median_ns > 0

    def test_budget_charged_per_run(self):
        tracker = Budget(max_nodes=3).start()
        m = Measurer(warmup=1, repeats=3, timer=FakeClock(), tracker=tracker)
        with pytest.raises(BudgetExceeded):
            m.measure("x", lambda: None)

    def test_invalid_protocol_rejected(self):
        with pytest.raises(ValueError):
            Measurer(warmup=-1)
        with pytest.raises(ValueError):
            Measurer(repeats=0)


class TestMachineSignature:
    def test_fields(self):
        sig = machine_signature()
        assert set(sig) == {
            "cpu_count", "cache_elements", "memory_elements", "numpy",
            "kernel_compiler",
        }
        assert sig["numpy"] == np.__version__
        assert sig["cpu_count"] >= 1
        from repro.kernels import compiler_fingerprint

        assert sig["kernel_compiler"] == compiler_fingerprint()

    def test_compiler_perturbation_misses(self):
        # a record measured under one compiler must not be replayed
        # under another (or under none): the fingerprint is in the key
        from repro.expr.parser import parse_program

        program = parse_program(MATMUL)
        config = tiny_cache_config()
        sig = machine_signature(config.machine)
        base = tuning_key(program, config, sig)
        perturbed = dict(sig, kernel_compiler="other-cc 9.9 [/usr/bin/cc]")
        assert tuning_key(program, config, perturbed) != base

    def test_tracks_machine_model(self):
        small = tiny_cache_config().machine
        assert machine_signature(small)["cache_elements"] == 64
        assert machine_signature()["cache_elements"] != 64

    def test_tuning_key_sensitivity(self):
        from repro.expr.parser import parse_program

        program = parse_program(MATMUL)
        config = tiny_cache_config()
        sig = machine_signature(config.machine)
        base = tuning_key(program, config, sig)
        assert base == tuning_key(program, config, dict(sig))
        perturbed = dict(sig, cpu_count=sig["cpu_count"] + 1)
        assert tuning_key(program, config, perturbed) != base
        other_cfg = tiny_cache_config(optimize_cache=False)
        assert tuning_key(program, other_cfg, sig) != base


class TestTuningDB:
    def _record(self, sig):
        from repro import __version__

        return {
            "version": __version__,
            "signature": sig,
            "decisions": {"kernel": "gemm"},
            "protocol": {"warmup": 1, "trials": 3, "top_k": 4, "seed": 0},
        }

    def test_memory_roundtrip(self):
        db = TuningDB()
        sig = machine_signature()
        db.put("k1", self._record(sig))
        record, tier = db.get("k1", signature=sig)
        assert tier == "memory"
        assert record["decisions"] == {"kernel": "gemm"}
        assert db.get("missing") is None
        assert db.hits == 1 and db.misses == 1

    def test_disk_roundtrip_and_promotion(self, tmp_path):
        sig = machine_signature()
        db1 = TuningDB(directory=str(tmp_path))
        db1.put("k1", self._record(sig))
        db2 = TuningDB(directory=str(tmp_path))
        record, tier = db2.get("k1", signature=sig)
        assert tier == "disk"
        _, tier2 = db2.get("k1", signature=sig)
        assert tier2 == "memory"  # promoted

    def test_never_applied_under_different_signature(self, tmp_path):
        """A record copied between machines must read as a miss."""
        sig = machine_signature()
        db = TuningDB(directory=str(tmp_path))
        db.put("k1", self._record(sig))
        perturbed = dict(sig, cpu_count=sig["cpu_count"] + 7)
        db2 = TuningDB(directory=str(tmp_path))
        assert db2.get("k1", signature=perturbed) is None
        assert db2.stale == 1
        # the stale file is dropped, so even the true signature misses now
        assert db2.get("k1", signature=sig) is None

    def test_version_mismatch_is_stale(self):
        sig = machine_signature()
        db = TuningDB()
        record = self._record(sig)
        record["version"] = "0.0.1"
        db.put("k1", record)
        assert db.get("k1", signature=sig) is None
        assert db.stale == 1

    def test_lru_eviction(self):
        sig = machine_signature()
        db = TuningDB(maxsize=2)
        for key in ("a", "b", "c"):
            db.put(key, self._record(sig))
        assert len(db) == 2
        assert db.evictions == 1
        assert db.get("a") is None  # oldest evicted

    def test_canonical_files_are_byte_identical(self, tmp_path):
        sig = machine_signature()
        d1, d2 = tmp_path / "one", tmp_path / "two"
        TuningDB(directory=str(d1)).put("k", self._record(sig))
        TuningDB(directory=str(d2)).put("k", self._record(sig))
        f1 = (d1 / "k" / "k.tune.json").read_bytes()
        assert f1 == (d2 / "k" / "k.tune.json").read_bytes()
        assert f1.endswith(b"\n")
        # canonical JSON: sorted keys survive a parse/re-dump roundtrip
        parsed = json.loads(f1)
        assert (
            json.dumps(parsed, sort_keys=True, indent=2) + "\n"
        ).encode() == f1

    def test_bad_maxsize_rejected(self):
        with pytest.raises(ValueError):
            TuningDB(maxsize=0)


def tune(source=MATMUL, config=None, **options):
    config = config or tiny_cache_config()
    options.setdefault("trials", 3)
    options.setdefault("timer", FakeClock())
    return synthesize(source, config, autotune=AutotuneOptions(**options))


def autotune_report(result):
    return next(r for r in result.reports if r.name == "Autotuning")


class TestAutotuneStage:
    def test_decisions_recorded(self):
        result = tune()
        assert result.tuning is not None
        assert result.tuning.source == "measured"
        assert result.tuning.kernel_mode in ("gemm", "einsum", "native")
        report = autotune_report(result)
        assert report.details["measurement runs"] > 0
        assert "rank disagreements" in report.details

    def test_kernel_dimension_offers_native_when_available(self):
        from repro.autotune.candidates import KernelTuner
        from repro.kernels import native_available

        result = synthesize(MATMUL, tiny_cache_config())
        tuner = KernelTuner(result, None)
        labels = {c.label for c in tuner.candidates()}
        assert {"kernel gemm", "kernel einsum"} <= labels
        if native_available():
            assert "kernel native" in labels
            native = next(
                c for c in tuner.candidates() if c.payload == "native"
            )
            tuner.apply(native)
            assert result.codegen_mode == "native"
            assert result.kernel_plan.mode == "native"
        else:
            assert "kernel native" not in labels

    def test_kernel_dimension_keeps_statement_fusion(self):
        """Re-lowering for another mode passes ``fuse_statements`` on:
        a gemm-mode result whose measured winner is native keeps the
        groups its config asked for."""
        from repro.autotune.candidates import KernelTuner

        fusable = """
        range N = 6;
        index a, b, c : N;
        tensor A(a, c); tensor B(c, b); tensor C(a, c); tensor D(c, b);
        T1(a, b) = sum(c) A(a, c) * B(c, b);
        T2(a, b) = sum(c) C(a, c) * D(c, b);
        R(a, b) = T1(a, b) + T2(a, b);
        """
        result = synthesize(fusable, SynthesisConfig(fuse_statements=True))
        assert result.kernel_plan.mode == "gemm"
        assert result.kernel_plan.fused_groups == ()
        tuner = KernelTuner(result, None)
        by_mode = {c.payload: c for c in tuner.candidates()}
        tuner.apply(by_mode["einsum"])
        assert result.kernel_plan.fused_groups == ()  # native-only pass
        if "native" not in by_mode:
            pytest.skip("no native backend: the candidate is not offered")
        tuner.apply(by_mode["native"])
        assert result.kernel_plan.mode == "native"
        assert result.kernel_plan.fused_groups

    def test_tuned_result_is_still_correct(self):
        result = tune()
        inputs = random_inputs(result.program, result.config.bindings, seed=1)
        env = result.execute(inputs)
        want = run_statements(
            result.program.statements, inputs, result.config.bindings
        )
        assert np.allclose(env["C"], want["C"])

    def test_without_autotune_no_tuning(self):
        result = synthesize(MATMUL, tiny_cache_config())
        assert result.tuning is None
        assert all(r.name != "Autotuning" for r in result.reports)

    def test_function_tensors_skip_measurement(self):
        src = """
        range N = 4;
        index i, j, k : N;
        tensor A(i, k); function V(k, j) cost 10;
        C(i, j) = sum(k) A(i, k) * V(k, j);
        """
        result = tune(source=src)
        assert result.tuning.source == "analytical"
        assert autotune_report(result).details["measurement runs"] == 0

    def test_warm_hit_measures_nothing(self, tmp_path):
        db = TuningDB(directory=str(tmp_path))
        cold = tune(db=db)
        assert autotune_report(cold).details["measurement runs"] > 0
        warm = tune(db=db)
        report = autotune_report(warm)
        assert report.details["measurement runs"] == 0
        assert warm.tuning.source == "db:memory"
        assert warm.tuning.kernel_mode == cold.tuning.kernel_mode

    def test_stale_dimensions_in_a_stored_record_are_ignored(self, tmp_path):
        """A record written when the tuner still had ``tiles`` and
        ``transport`` dimensions re-applies kernel / threads / grid and
        ignores the rest -- with zero measurement runs."""
        config = tiny_cache_config(processors=4)
        signature = machine_signature(config.machine)
        program = synthesize(MATMUL, config).program
        db = TuningDB(directory=str(tmp_path))
        from repro import __version__

        db.put(
            tuning_key(program, config, signature),
            {
                "version": __version__,
                "signature": signature,
                "decisions": {
                    "tiles": {"i": 2, "j": 2},
                    "transport": {"transport": "pipe", "procs": 1},
                    "kernel": "einsum",
                    "threads": 1,
                    "grid": [4],
                },
            },
        )
        warm = tune(config=config, db=db)
        report = autotune_report(warm)
        assert report.details["measurement runs"] == 0
        # threads: no native nests in an einsum plan, so no such tuner
        assert report.details["decisions applied"] == "grid, kernel"
        assert warm.tuning.kernel_mode == "einsum"
        assert warm.kernel_plan.mode == "einsum"
        assert warm.tuning.grid == (4,)
        plan = next(iter(warm.partition_plans.values()))
        assert tuple(plan.grid.dims) == (4,)
        assert sorted(vars(warm.tuning)) == [
            "degraded", "grid", "kernel_mode", "source", "threads",
        ]
        # the result's own defaults stand where the record said pipe/1
        inputs = random_inputs(warm.program, config.bindings, seed=4)
        out = warm.run_parallel(inputs, backend="local")
        want = run_statements(
            warm.program.statements, inputs, config.bindings
        )
        assert np.allclose(out["C"], want["C"])

    def test_warm_hit_from_disk(self, tmp_path):
        tune(db=TuningDB(directory=str(tmp_path)))
        warm = tune(db=TuningDB(directory=str(tmp_path)))
        assert warm.tuning.source == "db:disk"
        assert autotune_report(warm).details["measurement runs"] == 0

    def test_warm_result_is_still_correct(self, tmp_path):
        db = TuningDB(directory=str(tmp_path))
        tune(db=db)
        warm = tune(db=db)
        inputs = random_inputs(warm.program, warm.config.bindings, seed=2)
        env = warm.execute(inputs)
        want = run_statements(
            warm.program.statements, inputs, warm.config.bindings
        )
        assert np.allclose(env["C"], want["C"])

    def test_determinism_byte_identical_db_files(self, tmp_path):
        """Two runs, same seed and fake clock: identical DB bytes."""
        d1, d2 = tmp_path / "one", tmp_path / "two"
        tune(db=TuningDB(directory=str(d1)), timer=FakeClock(), seed=0)
        tune(db=TuningDB(directory=str(d2)), timer=FakeClock(), seed=0)
        files1 = sorted(p.relative_to(d1) for p in d1.rglob("*.tune.json"))
        files2 = sorted(p.relative_to(d2) for p in d2.rglob("*.tune.json"))
        assert files1 == files2 and len(files1) == 1
        assert (d1 / files1[0]).read_bytes() == (d2 / files2[0]).read_bytes()

    def test_config_fingerprint_separates_entries(self, tmp_path):
        """Same program, different config: distinct TuningDB entries."""
        db = TuningDB(directory=str(tmp_path))
        tune(db=db, config=tiny_cache_config())
        tune(db=db, config=tiny_cache_config(optimize_cache=False))
        assert len(list(tmp_path.rglob("*.tune.json"))) == 2

    def test_exhausted_budget_degrades_not_raises(self):
        result = tune(budget=Budget(max_nodes=0))
        assert result.tuning.degraded is True
        assert result.tuning.kernel_mode is None  # analytical choice stands
        report = autotune_report(result)
        assert report.details["degraded"] == "true"
        assert any("budget exhausted" in n for n in report.notes)

    def test_strict_budget_still_degrades(self):
        """Measurement is advisory: strict budgets must not raise."""
        result = tune(budget=Budget(max_nodes=0, strict=True))
        assert result.tuning.degraded is True

    def test_partial_budget_keeps_measured_dimensions(self):
        """Enough budget for the kernel sweep but not the grid sweep:
        the measured winner stays, the rest degrades."""
        config = tiny_cache_config(processors=4)
        full = autotune_report(tune(config=config)).details["measurement runs"]
        result = tune(config=config, budget=Budget(max_nodes=full - 1))
        report = autotune_report(result)
        assert result.tuning.degraded is True
        assert report.details["measurement runs"] < full
        assert int(report.details["dimensions measured"]) >= 1

    def test_degraded_run_not_stored(self, tmp_path):
        db = TuningDB(directory=str(tmp_path))
        tune(db=db, budget=Budget(max_nodes=0))
        assert list(tmp_path.rglob("*.tune.json")) == []


class TestGridTuning:
    def test_grid_dimension_measured(self):
        result = tune(config=tiny_cache_config(processors=4))
        report = autotune_report(result)
        grid_rows = [k for k in report.details if k.startswith("grid: ")]
        assert grid_rows  # multiple shapes for 4 processors
        assert result.tuning.grid is not None
        plan = next(iter(result.partition_plans.values()))
        assert tuple(plan.grid.dims) == result.tuning.grid

    def test_grid_choice_still_validates(self):
        result = tune(config=tiny_cache_config(processors=4))
        inputs = random_inputs(result.program, result.config.bindings, seed=3)
        out = result.run_parallel(inputs, backend="local")
        want = run_statements(
            result.program.statements, inputs, result.config.bindings
        )
        assert np.allclose(out["C"], want["C"])

    def test_warm_hit_restores_grid(self, tmp_path):
        db = TuningDB(directory=str(tmp_path))
        cold = tune(config=tiny_cache_config(processors=4), db=db)
        warm = tune(config=tiny_cache_config(processors=4), db=db)
        assert warm.tuning.grid == cold.tuning.grid
        assert autotune_report(warm).details["measurement runs"] == 0


class TestRemainingMs:
    def test_no_deadline_is_none(self):
        assert Budget(max_nodes=5).start().remaining_ms() is None

    def test_deadline_counts_down(self):
        tracker = Budget(deadline_ms=10_000).start()
        remaining = tracker.remaining_ms()
        assert 0 < remaining <= 10_000
