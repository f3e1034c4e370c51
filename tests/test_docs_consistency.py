"""Documentation consistency guards: the repo's own docs must track its
artifacts."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (ROOT / name).read_text(encoding="utf-8")


class TestReadme:
    def test_mentions_every_example(self):
        readme = read("README.md")
        for path in sorted((ROOT / "examples").glob("*")):
            if path.suffix in (".py", ".tce"):
                assert path.name in readme, path.name

    def test_quickstart_source_parses(self):
        """The README quickstart program snippet must stay valid."""
        readme = read("README.md")
        match = re.search(r'synthesize\("""(.*?)"""', readme, re.DOTALL)
        assert match, "quickstart snippet not found"
        from repro.expr.parser import parse_program

        parse_program(match.group(1))

    def test_install_commands_present(self):
        readme = read("README.md")
        assert "pip install -e ." in readme


class TestDesign:
    def test_lists_every_source_package(self):
        design = read("DESIGN.md")
        for pkg in sorted((ROOT / "src" / "repro").iterdir()):
            if pkg.is_dir() and (pkg / "__init__.py").exists():
                assert pkg.name in design, pkg.name

    def test_every_experiment_row_says_where_it_lives(self):
        """Each row of the section-3 index names an existing test file,
        a workload of the repo's benchmark, or says it is retired."""
        section = read("DESIGN.md").split("## 3.")[1].split("\n## ")[0]
        rows = re.findall(r"^\| ([EA]\d+) \|.*\| ([^|]*) \|$", section, re.M)
        assert len(rows) >= 25
        workloads = {
            w["name"] for w in json.loads(read("BENCHMARK.json"))["workloads"]
        }
        for exp_id, where in rows:
            tests = re.findall(r"tests/(test_\w+\.py)", where)
            for name in tests:
                assert (ROOT / "tests" / name).exists(), (exp_id, name)
            named = set(re.findall(r"`(\w+)`", where)) & workloads
            assert tests or named or "retired" in where.lower(), exp_id

    def test_paper_identity_check_recorded(self):
        design = read("DESIGN.md")
        assert "identity check" in design.lower()
        assert "No mismatch" in design


class TestExperiments:
    def test_benchmarks_holds_only_e2e(self):
        """Performance claims come from benchmarks/e2e alone; the
        paper's figures are tests."""
        entries = {
            p.name for p in (ROOT / "benchmarks").iterdir()
            if p.name != "__pycache__"
        }
        assert entries == {"e2e"}

    def test_experiment_ids_sequential(self):
        experiments = read("EXPERIMENTS.md")
        for k in range(1, 14):
            assert f"## E{k} " in experiments, f"E{k} missing"

    def test_deviations_section_present(self):
        assert "Known deviations" in read("EXPERIMENTS.md")


class TestDocsDir:
    def test_api_reference_fresh_enough(self):
        """docs/api.md must mention every subpackage (regenerated via
        scripts/gen_api_docs.py)."""
        api = read("docs/api.md")
        for pkg in sorted((ROOT / "src" / "repro").iterdir()):
            if pkg.is_dir() and (pkg / "__init__.py").exists():
                assert f"repro.{pkg.name}" in api, pkg.name

    def test_language_doc_grammar_matches_parser(self):
        """Key grammar productions documented in docs/language.md exist
        in the parser's docstring too."""
        lang = read("docs/language.md")
        parser_doc = read("src/repro/expr/parser.py")
        for token in ('"range"', '"index"', '"tensor"', '"function"'):
            assert token in lang
            assert token in parser_doc
