"""Checkpoint/restart property tests: an execution interrupted at any
top-level unit boundary and resumed from its checkpoint is
*bit-identical* to an uninterrupted run -- results, paging counters,
and pool state included."""

import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codegen.builder import build_unfused
from repro.codegen.interp import execute
from repro.engine.outofcore import simulate_out_of_core
from repro.expr.parser import parse_program
from repro.engine.executor import random_inputs
from repro.robustness.checkpoint import (
    CHECKPOINT_NAME,
    load_checkpoint,
    save_checkpoint,
)
from repro.robustness.errors import CheckpointError, InjectedFault

SRC = """
range N = 6;
index i, j, k, l : N;
tensor A(i, k); tensor B(k, j); tensor C(j, l);
T(i, j) = sum(k) A(i, k) * B(k, j);
S(i, l) = sum(j) T(i, j) * C(j, l);
"""


def _program():
    prog = parse_program(SRC)
    block = build_unfused(prog.statements)
    inputs = random_inputs(prog, seed=7)
    return block, inputs


class TestCheckpointPrimitives:
    def test_save_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "c.pkl")
        payload = {"unit": 3, "arrays": {"X": np.arange(4.0)}}
        save_checkpoint(path, payload)
        loaded = load_checkpoint(path)
        assert loaded["unit"] == 3
        np.testing.assert_array_equal(loaded["arrays"]["X"], np.arange(4.0))

    def test_load_missing_returns_none(self, tmp_path):
        assert load_checkpoint(str(tmp_path / "nope.pkl")) is None

    def test_corrupt_checkpoint_raises(self, tmp_path):
        path = tmp_path / "c.pkl"
        path.write_bytes(b"not a pickle")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))


class TestInterpCheckpoint:
    def test_interrupt_then_resume_is_bit_identical(self, tmp_path):
        block, inputs = _program()
        clean = execute(block, dict(inputs))
        ckpt = str(tmp_path)
        with pytest.raises(InjectedFault):
            execute(block, dict(inputs), checkpoint=ckpt, interrupt_after=2)
        assert os.path.exists(os.path.join(ckpt, CHECKPOINT_NAME))
        env = execute(block, dict(inputs), checkpoint=ckpt)
        for name in ("T", "S"):
            np.testing.assert_array_equal(env[name], clean[name])
        # checkpoint cleared on successful completion
        assert not os.path.exists(os.path.join(ckpt, CHECKPOINT_NAME))

    def test_counters_resume_exactly(self, tmp_path):
        from repro.engine.counters import Counters

        block, inputs = _program()
        base = Counters()
        execute(block, dict(inputs), counters=base)
        ckpt = str(tmp_path)
        resumed = Counters()
        with pytest.raises(InjectedFault):
            execute(
                block, dict(inputs), counters=resumed,
                checkpoint=ckpt, interrupt_after=1,
            )
        execute(block, dict(inputs), counters=resumed, checkpoint=ckpt)
        assert resumed.flops == base.flops
        assert resumed.elements_allocated == base.elements_allocated

    def test_counters_resume_from_a_checkpoint_with_retired_fields(
        self, tmp_path
    ):
        """A checkpoint written when Counters still had ``bytes_sent``
        and ``messages`` resumes to the same counts."""
        from repro.engine.counters import Counters

        block, inputs = _program()
        base = Counters()
        clean = execute(block, dict(inputs), counters=base)
        ckpt = str(tmp_path)
        resumed = Counters()
        with pytest.raises(InjectedFault):
            execute(
                block, dict(inputs), counters=resumed,
                checkpoint=ckpt, interrupt_after=1,
            )
        path = os.path.join(ckpt, CHECKPOINT_NAME)
        saved = load_checkpoint(path)
        saved["counters"].update(bytes_sent=0, messages=0)
        save_checkpoint(path, saved)
        resumed = Counters()
        env = execute(block, dict(inputs), counters=resumed, checkpoint=ckpt)
        np.testing.assert_array_equal(env["S"], clean["S"])
        assert resumed.as_dict() == base.as_dict()


class TestOutOfCoreCheckpointProperty:
    @settings(max_examples=12, deadline=None)
    @given(
        cut=st.integers(min_value=1, max_value=40),
        budget=st.sampled_from([64, 96, 160]),
    )
    def test_interrupt_anywhere_resume_identical(self, cut, budget):
        """Interrupt after ``cut`` top-level units (or never, when the
        run has fewer), resume, and compare everything measurable."""
        block, inputs = _program()
        clean = simulate_out_of_core(block, inputs, budget_elements=budget)
        workdir = tempfile.mkdtemp(prefix="ckpt-prop-")
        try:
            try:
                simulate_out_of_core(
                    block, inputs, budget_elements=budget,
                    checkpoint_dir=workdir, interrupt_after=cut,
                )
                interrupted = False
            except InjectedFault:
                interrupted = True
            resumed = simulate_out_of_core(
                block, inputs, budget_elements=budget,
                checkpoint_dir=workdir,
            )
            assert resumed.total_io == clean.total_io
            assert resumed.accesses == clean.accesses
            assert resumed.evictions == clean.evictions
            assert resumed.per_array_reads == clean.per_array_reads
            for name, array in clean.arrays.items():
                np.testing.assert_array_equal(resumed.arrays[name], array)
            if interrupted:
                # the resumed run really did start from the checkpoint
                assert not os.path.exists(
                    os.path.join(workdir, CHECKPOINT_NAME)
                )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def test_double_interrupt_then_resume(self):
        """Two successive interruptions still land on the same answer."""
        block, inputs = _program()
        clean = simulate_out_of_core(block, inputs, budget_elements=96)
        workdir = tempfile.mkdtemp(prefix="ckpt-two-")
        try:
            with pytest.raises(InjectedFault):
                simulate_out_of_core(
                    block, inputs, budget_elements=96,
                    checkpoint_dir=workdir, interrupt_after=1,
                )
            with pytest.raises(InjectedFault):
                simulate_out_of_core(
                    block, inputs, budget_elements=96,
                    checkpoint_dir=workdir, interrupt_after=1,
                )
            resumed = simulate_out_of_core(
                block, inputs, budget_elements=96, checkpoint_dir=workdir
            )
            assert resumed.total_io == clean.total_io
            assert resumed.accesses == clean.accesses
            for name, array in clean.arrays.items():
                np.testing.assert_array_equal(resumed.arrays[name], array)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
