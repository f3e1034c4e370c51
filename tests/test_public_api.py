"""The public import surface must stay stable and usable end to end."""

import numpy as np
import pytest


class TestTopLevelImports:
    def test_all_names_importable(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        import repro

        assert repro.__version__

    def test_packaging_version_is_the_package_version(self):
        import pathlib
        import tomllib

        root = pathlib.Path(__file__).resolve().parent.parent
        meta = tomllib.loads((root / "pyproject.toml").read_text())
        assert "version" not in meta["project"]
        assert meta["project"]["dynamic"] == ["version"]
        assert meta["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "repro.__version__"
        }

    def test_subpackage_alls(self):
        import repro.expr
        import repro.opmin
        import repro.fusion
        import repro.spacetime
        import repro.locality
        import repro.parallel
        import repro.codegen
        import repro.engine
        import repro.chem

        for mod in (
            repro.expr,
            repro.opmin,
            repro.fusion,
            repro.spacetime,
            repro.locality,
            repro.parallel,
            repro.codegen,
            repro.engine,
            repro.chem,
        ):
            for name in mod.__all__:
                assert hasattr(mod, name), f"{mod.__name__}.{name}"


class TestReadmeQuickstart:
    def test_readme_snippet_runs(self):
        """The README quickstart must work verbatim."""
        from repro import synthesize, SynthesisConfig, ProcessorGrid

        result = synthesize(
            """
            range V = 8;  range O = 4;
            index a, b, c, d, e, f : V;
            index i, j, k, l : O;
            tensor A(a, c, i, k); tensor B(b, e, f, l);
            tensor C(d, f, j, k); tensor D(c, d, e, l);
            S(a, b, i, j) = sum(c, d, e, f, k, l)
                A(a,c,i,k) * B(b,e,f,l) * C(d,f,j,k) * D(c,d,e,l);
            """,
            SynthesisConfig(grid=ProcessorGrid((2, 2)), optimize_cache=False),
        )
        assert result.describe()
        assert result.render_structure()
        kernel = result.compile()
        from repro import random_inputs

        arrays = random_inputs(result.program, seed=0)
        out = kernel(arrays)["S"]
        assert out.shape == (8, 8, 4, 4)

    def test_library_workflow_without_pipeline(self):
        """Using the pieces directly, as the architecture doc shows."""
        from repro import (
            optimize_statement,
            parse_program,
            program_to_source,
            run_statements,
            random_inputs,
            schedule_statements,
        )

        prog = parse_program(
            "range N = 6; index a, b, c : N;"
            "tensor A(a, b); tensor B(b, c);"
            "C(a, c) = sum(b) A(a, b) * B(b, c);"
        )
        seq = optimize_statement(prog.statements[0])
        seq = schedule_statements(seq).statements
        text = program_to_source(prog, seq)
        assert "C(" in text
        arrays = random_inputs(prog, seed=0)
        env = run_statements(seq, arrays)
        want = arrays["A"] @ arrays["B"]
        np.testing.assert_allclose(env["C"], want, rtol=1e-10)
