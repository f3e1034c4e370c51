"""Tile legality is decided by analysis, and the analysis is exact.

:func:`repro.codegen.builder.untileable` names, per loop index, the
first reason tiling it is unsound.  These tests hold it to what building
the tiling finds: for every subset of the indices the pipeline's tile
search is given, ``apply_tiling`` plus the operation-count check accepts
the subset exactly when the analysis admits each of its indices, at any
tile size.  The programs are the 13 whose decisions
``tests/test_search_stability.py`` pins, and seeded random contractions.
"""

import itertools

import pytest

import repro.locality.tile_search as ts
import repro.pipeline as pipeline
from repro.chem.workloads import random_contraction_program
from repro.codegen.builder import apply_tiling, build_unfused, untileable
from repro.codegen.loops import Alloc, loop_op_count, walk
from repro.locality.tile_search import candidate_sizes, tileable_indices
from repro.pipeline import SynthesisConfig, synthesize
from repro.robustness.errors import ReproError
from tests.test_search_stability import PROGRAMS, specs

SEEDS = range(12)


def _searched(source, semiring, monkeypatch):
    """The structures and indices the pipeline hands the tile search."""
    seen = []
    search = pipeline.optimize_locality

    def traced(block, capacity, bindings=None, indices=None, **kwargs):
        seen.append((block, list(indices), bindings))
        return search(block, capacity, bindings, indices, **kwargs)

    monkeypatch.setattr(pipeline, "optimize_locality", traced)
    synthesize(source, SynthesisConfig(semiring=semiring))
    monkeypatch.undo()
    return seen


def _trial_accepts(block, tiles, bindings) -> bool:
    """Build the tiling; it is accepted when ``apply_tiling`` raises
    nothing and the operation count is unchanged."""
    keep = [n.array for n in walk(block) if isinstance(n, Alloc)]
    try:
        tiled = apply_tiling(block, tiles, keep_global=keep)
    except ValueError:
        return False
    return loop_op_count(tiled, bindings) == loop_op_count(block, bindings)


def _assert_agrees(block, indices, bindings):
    keep = [n.array for n in walk(block) if isinstance(n, Alloc)]
    excluded = untileable(block, indices, keep)
    assert set(excluded) <= set(indices)
    # an index of extent 1 has no size below its extent to tile with
    indices = [i for i in indices if i.extent(bindings) > 1]
    for k in range(1, len(indices) + 1):
        for subset in itertools.combinations(indices, k):
            admitted = not any(i in excluded for i in subset)
            for pick in (0, -2):
                tiles = {
                    i: candidate_sizes(i.extent(bindings))[pick]
                    for i in subset
                }
                assert _trial_accepts(block, tiles, bindings) == admitted, (
                    sorted(i.name for i in subset),
                    {i.name: r for i, r in excluded.items()},
                )


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_analysis_agrees_with_trial_tiling_on_pinned(name, monkeypatch):
    source, semiring = PROGRAMS[name]
    searches = _searched(source, semiring, monkeypatch)
    assert searches
    for block, indices, bindings in searches:
        _assert_agrees(block, indices, bindings)


@pytest.mark.parametrize("seed", SEEDS)
def test_analysis_agrees_with_trial_tiling_on_random(seed, monkeypatch):
    program = random_contraction_program(seed)
    unfused = build_unfused(program.statements)
    _assert_agrees(unfused, tileable_indices(unfused), None)
    for block, indices, bindings in _searched(
        program, "plus_times", monkeypatch
    ):
        _assert_agrees(block, indices, bindings)


def test_search_never_builds_a_tiling_it_rejects(monkeypatch):
    """Every tiling the search builds is legal: ``apply_tiling`` raises
    no ``ValueError`` across the pinned and random programs."""
    errors = []

    def counting(block, tiles, **kwargs):
        try:
            return apply_tiling(block, tiles, **kwargs)
        except ValueError as exc:
            errors.append(exc)
            raise

    monkeypatch.setattr(ts, "apply_tiling", counting)
    for source, semiring in PROGRAMS.values():
        synthesize(source, SynthesisConfig(semiring=semiring))
    for seed in SEEDS:
        synthesize(random_contraction_program(seed))
    assert errors == []


def test_tiling_that_changes_the_work_is_a_locality_error(monkeypatch):
    """The recount is an invariant: were the analysis to admit a tiling
    that changes the operation count, the search reports a structured
    locality-stage error naming the tiles, not a bare assertion."""
    for seed in SEEDS:
        block = build_unfused(random_contraction_program(seed).statements)
        keep = [n.array for n in walk(block) if isinstance(n, Alloc)]
        indices = tileable_indices(block)
        if set(indices) - set(untileable(block, indices, keep)):
            break
    counts = iter(range(1, 10**6))
    monkeypatch.setattr(ts, "loop_op_count", lambda *args: next(counts))
    with pytest.raises(ReproError) as info:
        ts.optimize_locality(block, 1 << 10)
    assert info.value.stage == "locality"
    assert "changed the operation count" in info.value.message


def test_already_tiled_structure_is_untileable():
    """A tiled structure cannot be tiled again, by any index."""
    block = build_unfused(random_contraction_program(0).statements)
    keep = [n.array for n in walk(block) if isinstance(n, Alloc)]
    index = tileable_indices(block)[0]
    tiled = apply_tiling(block, {index: 1}, keep_global=keep)
    rest = tileable_indices(tiled)
    assert rest and set(untileable(tiled, rest, keep)) == set(rest)
    with pytest.raises(ValueError, match="expects untiled input"):
        apply_tiling(tiled, {rest[0]: 1}, keep_global=keep)


def test_space_counts_only_admitted_indices():
    """CCSD at V=40 000 has 17**4 size combinations over its four
    largest loops, none of which may be tiled: the search evaluates the
    untiled baseline instead of refusing the space."""
    result = synthesize(specs.ccsd(40_000, 12).text)
    locality = next(
        r.details
        for r in result.reports
        if r.name == "Data locality optimization"
    )
    assert locality["candidates evaluated"] == 1
    assert sorted(locality["untileable"]) == ["a", "b", "d", "e"]
