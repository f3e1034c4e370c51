"""Decision stability of the compiler's searches.

The pipeline runs four searches before it emits anything: the statement
scheduler, the Section-5 fusion DP, the Section-6 tile search and the
Section-7 partitioner.  A change that makes one of them faster must not
change what it decides, so each spec's decisions are pinned here by
digest -- recorded before the searches were sped up:

* the scheduled statement order and its peak live memory;
* every fusion decision in ``subtree()`` order, plus ``total_memory``;
* the tile search's table rows in order, ``evaluated`` and the best tiles;
* each partition plan's ``describe()`` and ``total_cost`` at 2 and 4
  processors.

The specs are the benchmark's own (``benchmarks/e2e/specs.py``): the
programs of the four pipeline workloads, the eight ``SERVED`` specs of
``serve_mix``, and the A3A energy term of :mod:`repro.chem.a3a`.

Regenerate (only when a change of decision is intended)::

    PYTHONPATH=src:. python -c \
        "import tests.test_search_stability as t; t.show()"
"""

import hashlib
import importlib.util
import pathlib
import sys

import pytest

import repro.opmin.schedule as schedule_mod
import repro.pipeline as pipeline
from repro.chem.a3a import a3a_problem
from repro.codegen.builder import apply_tiling
from repro.pipeline import SynthesisConfig, synthesize
from repro.robustness.budget import Budget

_SPECS = pathlib.Path(__file__).parents[1] / "benchmarks" / "e2e" / "specs.py"
_spec = importlib.util.spec_from_file_location("_e2e_specs", _SPECS)
specs = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = specs
_spec.loader.exec_module(specs)


def _programs():
    out = {
        "ccsd_dense": (specs.ccsd(48, 12).text, "plus_times"),
        "fig1_native": (specs.fig1(32, 8).text, "plus_times"),
        "apsp_native": (specs.apsp(256).text, "min_plus"),
        "ccsd_spmd": (specs.ccsd(16, 6).text, "plus_times"),
    }
    for k, make in enumerate(specs.SERVED):
        spec = make("")
        out[f"served {k} {spec.name}"] = (spec.text, spec.semiring)
    out["a3a"] = (a3a_problem(V=64, O=16).program, "plus_times")
    return out


PROGRAMS = _programs()

PINNED = {
    "ccsd_dense": (
        "313cd70add74a1f73099299e7bbda8b6e5ac2407cc55e596358c7debdf3d0963"
    ),
    "fig1_native": (
        "62aece45b465e45c02cee15918890d874b1297e877eb2476489977726e286e94"
    ),
    "apsp_native": (
        "db76c7dc62a6a2e1f9117d8fc6573aa34f3e0877b70fc9131140700cc5b8ddef"
    ),
    "ccsd_spmd": (
        "0bcc8986a7aa4753ac9d42579ec4f173bbcb748badd89137b527890fbaa8e427"
    ),
    "served 0 chain(6, 6, 6, 6)": (
        "67289dff3a6219185721c59f5ce145db1c487110a8d421ea01e8dedc34e1d03e"
    ),
    "served 1 chain(8, 8, 8, 8)": (
        "62378c24c6205b632c06d1b5a068e7fbc237c4b983f55fbb5b283336e589fa8b"
    ),
    "served 2 chain(6, 6, 6, 6, 6)": (
        "1fba1fa195b0920234ddb1d89711248f250869fe47098bafe1a3870ad8a61312"
    ),
    "served 3 chain(4, 8, 4, 8)": (
        "34044124d39edd729b73092f05ef73c1042d86305fb6aa4d6d845230e66d6a27"
    ),
    "served 4 fig1(V=3,O=2)": (
        "8b5682f76d460e0d9d8e3868e23c97315aaccb0ebfb5180d9a66e8d16a16b024"
    ),
    "served 5 ccsd(V=3,O=2)": (
        "0f3f83a96639c244d62763dd5eb6b9f716b0c866292644f2da22a78d1d3d2b74"
    ),
    "served 6 apsp(n=6,plus_times)": (
        "92c6c12cce4c20862986f41555e793c5b8dea3a77477ad966da6d2f6f6d755f7"
    ),
    "served 7 sparse_mm(n=16,fill=0.1)": (
        "1948411954400491b49bdf2d7203ce30088a6802187e3f75ab405e8cc7dfa960"
    ),
    "a3a": (
        "70fc072beaef0bd8dd46ee1718bb4123f8c29006ecade5bcd3fda6bbca3151df"
    ),
}


def _names(seq):
    return ",".join(i.name for i in seq)


def _decisions(name: str, monkeypatch) -> str:
    """Every search decision of one spec, one line per fact."""
    source, semiring = PROGRAMS[name]
    lines = []

    def capture(module, attr, render):
        search = getattr(module, attr)

        def traced(*args, **kwargs):
            out = search(*args, **kwargs)
            lines.extend(render(out))
            return out

        monkeypatch.setattr(module, attr, traced)

    def schedule(res):
        yield f"schedule peak {res.peak_live} of {res.baseline_peak}"
        yield from (str(s) for s in res.statements)

    def fusion(res):
        for node in res.root.subtree():
            dec = res.decisions[id(node)]
            yield (
                f"fuse {node.array.name} parent [{_names(dec.parent_fusion)}]"
                f" children {[_names(c) for c in dec.child_fusions]}"
                f" order [{_names(dec.loop_order)}]"
            )
        yield f"fusion memory {res.total_memory}"

    def locality(res):
        yield from (f"tile {row['tiles']} {row['cost']}" for row in res.table)
        yield f"evaluated {res.evaluated}"
        yield f"best {sorted((i.name, b) for i, b in res.tile_sizes.items())}"
        yield f"cost {res.cost} of {res.baseline_cost}"

    capture(schedule_mod, "schedule_statements", schedule)
    capture(pipeline, "minimize_memory", fusion)
    capture(pipeline, "optimize_locality", locality)
    for processors in (2, 4):
        lines.append(f"processors {processors}")
        result = synthesize(
            source, SynthesisConfig(processors=processors, semiring=semiring)
        )
        for stmt, plan in result.partition_plans.items():
            lines.append(f"partition {stmt} {plan.total_cost!r}")
            lines.append(plan.describe())
    return "\n".join(lines)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_search_decisions_are_pinned(name, monkeypatch):
    assert _digest(_decisions(name, monkeypatch)) == PINNED[name]


def show() -> None:
    """Print the current digests in ``PINNED``'s layout."""
    with pytest.MonkeyPatch.context() as mp:
        for name in PROGRAMS:
            print(f'    "{name}": "{_digest(_decisions(name, mp))}",')
            mp.undo()


class TestBudgetEquivalence:
    """The searches charge a budget exactly what they charged before they
    were sped up, so a node budget cuts them at the same place.  The
    literals were read on CCSD V=48 O=12 from the exhaustive searches.
    The tile search charges one node per combination it evaluates: none
    of CCSD's four largest loops may be tiled, so it evaluates only the
    untiled baseline."""

    NODES_AFTER_FUSION = 25_890
    NODES_AFTER_LOCALITY = 25_891
    LOCALITY_COMBINATIONS = 1

    def _synthesize(self, max_nodes, monkeypatch):
        nodes = {}
        for attr, stage in (
            ("minimize_memory", "fusion"),
            ("optimize_locality", "locality"),
        ):
            search = getattr(pipeline, attr)

            def traced(*args, _search=search, _stage=stage, **kwargs):
                nodes.setdefault(_stage + " before", kwargs["budget"].nodes)
                out = _search(*args, **kwargs)
                nodes[_stage] = kwargs["budget"].nodes
                return out

            monkeypatch.setattr(pipeline, attr, traced)
        result = synthesize(
            PROGRAMS["ccsd_dense"][0],
            SynthesisConfig(budget=Budget(max_nodes=max_nodes)),
        )
        memory = next(
            r.details
            for r in result.reports
            if r.name == "Memory minimization"
        )
        return result, nodes, memory

    def test_tick_totals(self, monkeypatch):
        result, nodes, _ = self._synthesize(10**9, monkeypatch)
        assert result.degraded_stages == []
        assert nodes["fusion"] == self.NODES_AFTER_FUSION
        assert nodes["locality"] == self.NODES_AFTER_LOCALITY

    def test_fusion_degrades_one_node_short(self, monkeypatch):
        result, _, memory = self._synthesize(
            self.NODES_AFTER_FUSION - 1, monkeypatch
        )
        assert result.degraded_stages == ["fusion", "locality"]
        assert (
            memory["fused temporary memory"]
            == memory["unfused temporary memory"]
            == 1_990_656
        )

    def test_fusion_completes_on_exact_budget(self, monkeypatch):
        result, _, memory = self._synthesize(
            self.NODES_AFTER_FUSION, monkeypatch
        )
        assert result.degraded_stages == ["locality"]
        assert memory["fused temporary memory"] == 581

    @pytest.mark.parametrize(
        "max_nodes, shown", [(100, "101 > 100"), (1_000, "1,001 > 1,000")]
    )
    def test_overshooting_charge_records_one_node_past(
        self, max_nodes, shown, monkeypatch
    ):
        """The fusion DP charges a merge loop's whole product in one
        tick; the tick that crosses the budget records ``max_nodes + 1``,
        what per-node ticking recorded, and the same stages degrade."""
        result, _, _ = self._synthesize(max_nodes, monkeypatch)
        assert result.budget_tracker.nodes == max_nodes + 1
        assert result.degraded_stages == ["fusion", "locality"]
        reason = f"node budget exhausted ({shown} search nodes)"
        assert {d.reason for d in result.budget_tracker.degradations} == {
            reason
        }

    def test_no_tiling_is_built_on_ccsd(self, monkeypatch):
        """Every one of CCSD's four largest loops is untileable: the
        analysis says why, the search calls ``apply_tiling`` never and
        charges one node, for the untiled baseline."""
        import repro.locality.tile_search as ts

        calls = []

        def counting(block, tiles, **kwargs):
            calls.append(frozenset(tiles))
            return apply_tiling(block, tiles, **kwargs)

        monkeypatch.setattr(ts, "apply_tiling", counting)
        result, nodes, _ = self._synthesize(10**9, monkeypatch)
        assert calls == []
        assert (
            nodes["locality"] - nodes["locality before"]
            == self.LOCALITY_COMBINATIONS
        )
        locality = next(
            r.details
            for r in result.reports
            if r.name == "Data locality optimization"
        )
        assert locality["candidates evaluated"] == 1
        assert len(locality["untileable"]) == 4
