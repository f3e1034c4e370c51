"""Content-addressed plan cache: keys, tiers, and cached-result fidelity."""

import os
import pickle

import numpy as np
import pytest

from repro.engine.executor import random_inputs
from repro.parallel.grid import ProcessorGrid
from repro.parallel.partition import optimize_distribution
from repro.parallel.ptree import expression_to_ptree
from repro.expr.parser import parse_program
from repro.pipeline import SynthesisConfig, synthesize
from repro.runtime.plan_cache import PlanCache, config_fingerprint, plan_key

MATMUL = """
range N = 6;
index i, j, k : N;
tensor A(i, k); tensor B(k, j);
C(i, j) = sum(k) A(i, k) * B(k, j);
"""


class TestPlanKey:
    def test_formatting_does_not_split_the_cache(self):
        """Two sources parsing to the same program share a key."""
        spaced = MATMUL.replace("sum(k)", "sum( k )").replace(";", " ;")
        a = parse_program(MATMUL)
        b = parse_program(spaced)
        cfg = SynthesisConfig()
        assert plan_key(a, cfg) == plan_key(b, cfg)

    def test_any_config_field_changes_the_key(self):
        prog = parse_program(MATMUL)
        base = plan_key(prog, SynthesisConfig())
        assert plan_key(
            prog, SynthesisConfig(grid=ProcessorGrid((2, 2)))
        ) != base
        assert plan_key(
            prog, SynthesisConfig(optimize_cache=False)
        ) != base
        assert plan_key(
            prog, SynthesisConfig(bindings={"N": 7})
        ) != base

    def test_binding_order_is_normalized(self):
        cfg_a = SynthesisConfig(bindings={"N": 6, "M": 4})
        cfg_b = SynthesisConfig(bindings={"M": 4, "N": 6})
        assert config_fingerprint(cfg_a) == config_fingerprint(cfg_b)


class TestSynthesizeWithCache:
    def test_cold_then_warm_hit(self):
        cache = PlanCache()
        cfg = SynthesisConfig(grid=ProcessorGrid((2, 2)))
        cold = synthesize(MATMUL, cfg, cache=cache)
        warm = synthesize(MATMUL, cfg, cache=cache)
        assert cache.misses == 1 and cache.memory_hits == 1
        assert cold.reports[-1].name == "Plan cache"
        assert "miss" in cold.reports[-1].details["hit"]
        assert warm.reports[-1].details["hit"] == "memory"
        # a hit is the stored result, decoded once: each caller gets a
        # shallow copy whose reports list alone is its own
        (key,) = cache._memory
        stored = cache._memory[key]
        assert warm is not cold and warm is not stored
        assert warm.kernel_plan is stored.kernel_plan is cold.kernel_plan
        assert warm.source is cold.source
        assert warm.reports is not stored.reports
        assert warm.reports[:-1] == stored.reports == cold.reports[:-1]
        assert [r.name for r in stored.reports].count("Plan cache") == 0

    def test_config_change_is_a_miss(self):
        cache = PlanCache()
        synthesize(MATMUL, SynthesisConfig(), cache=cache)
        synthesize(
            MATMUL, SynthesisConfig(optimize_cache=False), cache=cache
        )
        assert cache.misses == 2 and cache.hits == 0

    def test_disk_round_trip(self, tmp_path):
        cfg = SynthesisConfig(grid=ProcessorGrid((2, 2)))
        synthesize(MATMUL, cfg, cache=PlanCache(directory=str(tmp_path)))
        fresh = PlanCache(directory=str(tmp_path))  # new process, same dir
        warm = synthesize(MATMUL, cfg, cache=fresh)
        assert fresh.disk_hits == 1 and fresh.misses == 0
        assert warm.reports[-1].details["hit"] == "disk"
        # the disk hit is promoted into memory
        res = synthesize(MATMUL, cfg, cache=fresh)
        assert fresh.memory_hits == 1
        assert res.reports[-1].details["hit"] == "memory"

    def test_cached_result_still_executes(self, tmp_path):
        """A result revived from disk must be fully usable: execute,
        partition plans, run_parallel."""
        cfg = SynthesisConfig(grid=ProcessorGrid((2, 2)))
        synthesize(MATMUL, cfg, cache=PlanCache(directory=str(tmp_path)))
        warm = synthesize(
            MATMUL, cfg, cache=PlanCache(directory=str(tmp_path))
        )
        inputs = random_inputs(warm.program, None, seed=0)
        env = warm.execute(inputs)
        np.testing.assert_allclose(
            env["C"], inputs["A"] @ inputs["B"], rtol=1e-10
        )
        out = warm.run_parallel(inputs)
        np.testing.assert_allclose(
            out["C"], inputs["A"] @ inputs["B"], rtol=1e-10
        )

    def test_pre_bump_result_is_a_stale_miss(self, tmp_path):
        """A result pickled by a release before the result_version stamp
        (<= 1.1.0) must read as a clean miss -- never as a revived
        object missing the newer attributes."""
        cfg = SynthesisConfig()
        cache = PlanCache(directory=str(tmp_path))
        result = synthesize(MATMUL, cfg)
        old = pickle.loads(pickle.dumps(result))
        # what an old pickle looks like: no result_version in __dict__
        # (the class-level dataclass default must not mask its absence)
        del old.__dict__["result_version"]
        key = plan_key(result.program, cfg)
        cache.put(key, old)
        assert cache.get(key) is None
        assert cache.stats()["stale"] == 1
        # the stale entry was dropped from both tiers: a re-synthesis
        # stores a fresh, current-schema result that then hits
        fresh = synthesize(MATMUL, cfg, cache=cache)
        assert fresh.reports[-1].details["hit"].startswith("miss")
        warm = synthesize(MATMUL, cfg, cache=cache)
        assert warm.reports[-1].details["hit"] == "memory"
        assert warm.result_version == result.result_version


class TestLru:
    def test_eviction_order(self):
        cache = PlanCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == (1, "memory")  # refresh a
        cache.put("c", 3)  # evicts b (least recently used)
        assert cache.get("b") is None
        assert cache.get("a") == (1, "memory")
        assert cache.get("c") == (3, "memory")
        assert cache.evictions == 1

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)

    def test_clear(self, tmp_path):
        cache = PlanCache(directory=str(tmp_path))
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") == (1, "disk")  # disk tier survived
        cache.clear(disk=True)
        cache._memory.clear()
        assert cache.get("a") is None

    def test_describe_mentions_both_tiers(self, tmp_path):
        cache = PlanCache(directory=str(tmp_path))
        assert "memory[" in cache.describe()
        assert str(tmp_path) in cache.describe()


class TestPartitionPlanPickling:
    def test_id_keyed_tables_survive_round_trip(self):
        """PartitionPlan keys its DP tables by node identity; pickling
        re-keys them against the revived tree."""
        prog = parse_program(MATMUL)
        tree = expression_to_ptree(prog.statements[0].expr)
        plan = optimize_distribution(tree, ProcessorGrid((2, 2)))
        revived = pickle.loads(pickle.dumps(plan))
        nodes = list(plan.root.walk())
        revived_nodes = list(revived.root.walk())
        assert len(nodes) == len(revived_nodes)
        for node, twin in zip(nodes, revived_nodes):
            assert plan.dist[id(node)] == revived.dist[id(twin)]
            assert plan.gamma[id(node)] == revived.gamma[id(twin)]
        assert plan.sum_option.values() is not None
        assert list(plan.sum_option.values()) == list(
            revived.sum_option.values()
        )
        # the revived plan drives execution
        from repro.engine.executor import random_inputs
        from repro.parallel.spmd import run_spmd

        inputs = random_inputs(prog, seed=3)
        np.testing.assert_array_equal(
            run_spmd(plan, inputs).result,
            run_spmd(revived, inputs).result,
        )
