"""Tests for the public cross-validation helper."""

import numpy as np
import pytest

from repro import SynthesisConfig, synthesize
from repro.chem.a3a import a3a_problem
from repro.validate import verify_result

SRC = """
range V = 5;
range O = 3;
index a, b, c, d, e, f : V;
index i, j, k, l : O;
tensor A(a, c, i, k); tensor B(b, e, f, l);
tensor C(d, f, j, k); tensor D(c, d, e, l);
S(a, b, i, j) = sum(c, d, e, f, k, l)
    A(a,c,i,k) * B(b,e,f,l) * C(d,f,j,k) * D(c,d,e,l);
"""


class TestVerifyResult:
    def test_fig1_verifies(self):
        result = synthesize(SRC, SynthesisConfig(optimize_cache=False))
        report = verify_result(result)
        assert report.ok
        assert report.max_error < 1e-8
        assert report.counters.total_ops > 0
        assert "OK" in str(report)

    def test_with_functions(self):
        problem = a3a_problem(V=4, O=2, Ci=50)
        result = synthesize(
            problem.program, SynthesisConfig(optimize_cache=False)
        )
        report = verify_result(result, functions=problem.functions)
        assert report.ok
        assert "E" in report.outputs

    def test_detects_corruption(self):
        """A deliberately corrupted structure must fail verification."""
        result = synthesize(SRC, SynthesisConfig(optimize_cache=False))
        # corrupt: double one Assign's coefficient
        from repro.codegen.loops import Assign, Loop

        def corrupt(block):
            out = []
            for node in block:
                if isinstance(node, Loop):
                    out.append(Loop(node.var, corrupt(node.body)))
                elif isinstance(node, Assign):
                    out.append(
                        Assign(node.target, node.terms, node.accumulate, 2.0)
                    )
                else:
                    out.append(node)
            return tuple(out)

        result.structure = corrupt(result.structure)
        report = verify_result(result)
        assert not report.ok
        assert "MISMATCH" in str(report)

    def test_run_leg_is_checked_and_reported(self):
        """The substrate that ships is a compared leg: a wrong kernel
        plan fails verification even when the loop structure is right."""
        result = synthesize(SRC, SynthesisConfig(optimize_cache=False))
        report = verify_result(result)
        assert report.ok and report.substrate == "kernels"
        assert "on kernels" in str(report)
        other = synthesize(
            SRC.replace("A(a,c,i,k) *", "A(a,c,i,k) * A(a,c,i,k) *"),
            SynthesisConfig(optimize_cache=False),
        )
        result.kernel_plan = other.kernel_plan
        assert not verify_result(result).ok

    def test_apsp_example_verifies_under_its_semiring(self):
        """The reference runs under ``config.semiring`` and every leg
        executes under it (``compile()`` used to raise here); infinite
        entries compare equal, not ``inf - inf``."""
        import os

        from repro.graphs import random_weight_matrix

        path = os.path.join(
            os.path.dirname(__file__), "..", "examples", "apsp_minplus.tce"
        )
        with open(path, encoding="utf-8") as handle:
            result = synthesize(
                handle.read(), SynthesisConfig(semiring="min_plus")
            )
        report = verify_result(result)
        assert report.ok and report.max_error == 0.0
        assert report.substrate == "kernels"
        assert report.counters.total_ops > 0
        # a sparse graph: D keeps unreachable pairs at inf
        weights = random_weight_matrix(9, 0.12, seed=3)
        report = verify_result(result, inputs={"W": weights})
        assert report.ok and report.max_error == 0.0
        # a wrong finite entry against an inf one is an inf error
        result.kernel_plan = synthesize(
            result.program, SynthesisConfig(semiring="max_plus")
        ).kernel_plan
        report = verify_result(result, inputs={"W": weights})
        assert not report.ok

    def test_custom_inputs(self):
        result = synthesize(SRC, SynthesisConfig(optimize_cache=False))
        from repro.engine.executor import random_inputs

        inputs = random_inputs(result.program, seed=99)
        report = verify_result(result, inputs=inputs)
        assert report.ok
