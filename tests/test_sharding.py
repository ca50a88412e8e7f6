"""Shard router, sharded system, and scaling behavior."""

from __future__ import annotations

import numpy as np
import pytest

from repro import OpKind, RequestBatch, ShardPlan, ShardRouter, ShardedSystem
from repro.sharding import ParallelShardedSystem
from repro.errors import ConfigError
from repro.harness import ExperimentConfig, shard_scaling
from repro.lincheck import SequentialReference, check_linearizable
from repro.workloads import YcsbMix, YcsbWorkload, build_key_pool

MIXED = YcsbMix(query=0.55, update=0.2, insert=0.1, delete=0.05, range_=0.1)


def _pool(seed: int, size: int = 2**10):
    return build_key_pool(size, np.random.default_rng(seed))


# --------------------------------------------------------------------- #
# ShardPlan
# --------------------------------------------------------------------- #
class TestShardPlan:
    def test_from_pool_quantiles_balance_the_pool(self):
        keys, _ = _pool(0, 2**12)
        plan = ShardPlan.from_pool(keys, 4)
        owner = plan.shard_of(keys)
        counts = np.bincount(owner, minlength=4)
        assert counts.sum() == keys.size
        assert counts.max() - counts.min() <= 1

    def test_single_shard_plan_owns_everything(self):
        plan = ShardPlan.from_pool(np.arange(100), 1)
        assert plan.n_shards == 1
        assert plan.shard_of(np.array([-5, 0, 10**9])).tolist() == [0, 0, 0]

    def test_bounds_tile_the_key_space(self):
        plan = ShardPlan(fences=np.array([10, 20, 30], dtype=np.int64))
        assert plan.n_shards == 4
        for s in range(3):
            hi = plan.bounds(s)[1]
            lo_next = plan.bounds(s + 1)[0]
            assert hi + 1 == lo_next
        assert plan.shard_of(9) == 0
        assert plan.shard_of(10) == 1
        assert plan.shard_of(30) == 3

    def test_partition_pool_respects_ownership(self):
        keys, values = _pool(1)
        plan = ShardPlan.from_pool(keys, 3)
        parts = plan.partition_pool(keys, values)
        assert sum(len(k) for k, _ in parts) == keys.size
        for s, (ks, _) in enumerate(parts):
            lo, hi = plan.bounds(s)
            assert np.all((ks >= lo) & (ks <= hi))

    def test_rejects_bad_plans(self):
        with pytest.raises(ConfigError):
            ShardPlan(fences=np.array([5, 5], dtype=np.int64))
        with pytest.raises(ConfigError):
            ShardPlan.from_pool(np.arange(3), 5)
        with pytest.raises(ConfigError):
            ShardPlan.from_pool(np.arange(10), 0)


    def test_check_fences_accepts_a_healthy_split(self):
        plan = ShardPlan(fences=np.array([10, 20], dtype=np.int64))
        plan.check_fences([np.array([1, 9]), np.array([], dtype=np.int64),
                           np.array([20, 99])])

    @pytest.mark.parametrize(
        "shard_keys",
        [
            # a key held by two shards: the fleet-wide diff is 0, not < 0
            [np.array([1, 10]), np.array([10, 15]), np.array([25])],
            # shard 1 holds a key of shard 2 while the fleet stays ordered
            [np.array([1, 5]), np.array([12, 21]), np.array([25])],
            # shard 2 holds a key below its fence
            [np.array([1]), np.array([11]), np.array([15, 30])],
        ],
        ids=["shared-key", "above-upper-fence", "below-lower-fence"],
    )
    def test_check_fences_rejects_misplaced_keys(self, shard_keys):
        plan = ShardPlan(fences=np.array([10, 20], dtype=np.int64))
        with pytest.raises(ConfigError, match="outside its range"):
            plan.check_fences(shard_keys)


# --------------------------------------------------------------------- #
# ShardRouter
# --------------------------------------------------------------------- #
class TestShardRouter:
    def test_point_requests_go_to_their_owner(self):
        plan = ShardPlan(fences=np.array([100], dtype=np.int64))
        router = ShardRouter(plan)
        batch = RequestBatch.from_ops(
            [
                (OpKind.QUERY, 50),
                (OpKind.UPDATE, 150, 1),
                (OpKind.DELETE, 99),
                (OpKind.INSERT, 100, 2),
            ]
        )
        routed = router.route(batch)
        assert routed[0].origin.tolist() == [0, 2]
        assert routed[1].origin.tolist() == [1, 3]

    def test_arrival_order_is_preserved_per_shard(self):
        keys, _ = _pool(2)
        plan = ShardPlan.from_pool(keys, 4)
        rng = np.random.default_rng(0)
        batch = YcsbWorkload(pool=keys, mix=MIXED).generate(512, rng)
        for sub in ShardRouter(plan).route(batch):
            assert np.all(np.diff(sub.origin) > 0)

    def test_cross_shard_range_is_clipped_at_fences(self):
        plan = ShardPlan(fences=np.array([100, 200], dtype=np.int64))
        router = ShardRouter(plan)
        batch = RequestBatch.from_ops([(OpKind.RANGE, 50, 250)])
        routed = router.route(batch)
        pieces = [
            (int(sub.batch.keys[0]), int(sub.batch.range_ends[0]))
            for sub in routed
            if sub.n
        ]
        assert pieces == [(50, 99), (100, 199), (200, 250)]
        assert all(sub.origin.tolist() == [0] for sub in routed if sub.n)

    def test_contained_range_visits_one_shard(self):
        plan = ShardPlan(fences=np.array([100], dtype=np.int64))
        batch = RequestBatch.from_ops([(OpKind.RANGE, 10, 20)])
        routed = ShardRouter(plan).route(batch)
        assert routed[0].n == 1 and routed[1].n == 0


# --------------------------------------------------------------------- #
# ShardedSystem: linearizability + equivalence with the single tree
# --------------------------------------------------------------------- #
class TestShardedSystem:
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 4])
    def test_mixed_batches_linearizable(self, n_shards):
        keys, values = _pool(3)
        fleet = ShardedSystem.build("eirene", keys, values, n_shards=n_shards)
        rng = np.random.default_rng(7)
        wl = YcsbWorkload(pool=keys, mix=MIXED)
        ref = SequentialReference(keys, values)
        for _ in range(2):
            batch = wl.generate(512, rng)
            out = fleet.process_batch(batch)
            rep = check_linearizable(batch, out.results, ref.execute(batch))
            assert rep.ok, rep.describe(batch)
        fleet.validate()

    def test_validate_checks_fences_on_both_fleets(self, monkeypatch):
        keys, values = _pool(5)
        local = ShardedSystem.build("nocc", keys, values, n_shards=3)
        local.validate()
        with ParallelShardedSystem("nocc", keys, values, 3, n_workers=2) as fleet:
            fleet.validate()
            items = fleet._shard_items()
            # move shard 1's first key into shard 0: still globally ordered
            (k0, v0), (k1, v1) = items[0], items[1]
            items[0] = (np.append(k0, k1[0]), np.append(v0, v1[0]))
            items[1] = (k1[1:], v1[1:])
            assert np.all(np.diff(np.concatenate([k for k, _ in items])) > 0)
            monkeypatch.setattr(fleet, "_shard_items", lambda: items)
            with pytest.raises(ConfigError, match="shard 0 holds keys outside"):
                fleet.validate()

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_sharded_equals_single_tree(self, seed):
        """Property: results and final contents match the 1-shard system."""
        keys, values = _pool(seed)
        single = ShardedSystem.build("eirene", keys, values, n_shards=1, seed=0)
        fleet = ShardedSystem.build("eirene", keys, values, n_shards=4, seed=0)
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        wl_a = YcsbWorkload(pool=keys, mix=MIXED)
        wl_b = YcsbWorkload(pool=keys, mix=MIXED)
        for _ in range(2):
            batch = wl_a.generate(256, rng_a)
            batch_b = wl_b.generate(256, rng_b)
            out_a = single.process_batch(batch)
            out_b = fleet.process_batch(batch_b)
            np.testing.assert_array_equal(out_a.results.values, out_b.results.values)
            np.testing.assert_array_equal(
                out_a.results.range_offsets, out_b.results.range_offsets
            )
            np.testing.assert_array_equal(
                out_a.results.range_keys, out_b.results.range_keys
            )
            np.testing.assert_array_equal(
                out_a.results.range_values, out_b.results.range_values
            )
        ka, va = single.items()
        kb, vb = fleet.items()
        np.testing.assert_array_equal(ka, kb)
        np.testing.assert_array_equal(va, vb)

    @pytest.mark.parametrize("engine", ["vector", "simt"])
    def test_split_ranges_match_reference(self, engine):
        """Ranges crossing 0, 1 and 3 fences, and one whose shard pieces
        are all empty, stitch back into the sequential reference's CSR."""
        from repro import make_system

        keys = np.arange(0, 4000, 10, dtype=np.int64)
        values = keys * 3 + 1
        plan = ShardPlan(fences=np.array([1005, 2005, 3005], dtype=np.int64))
        shards = [
            make_system("eirene", ks, vs, seed=s)
            for s, (ks, vs) in enumerate(plan.partition_pool(keys, values))
        ]
        fleet = ShardedSystem(shards, plan)
        batch = RequestBatch.from_ops(
            [
                (OpKind.UPDATE, 1000, 7),
                (OpKind.INSERT, 1003, 8),
                (OpKind.DELETE, 1010),
                (OpKind.RANGE, 950, 1100),  # one fence
                (OpKind.RANGE, 1100, 1500),  # no fence
                (OpKind.RANGE, 500, 3600),  # all three fences
                (OpKind.RANGE, 2001, 2009),  # one fence, both pieces empty
                (OpKind.INSERT, 2003, 9),
                (OpKind.QUERY, 2003),
                (OpKind.RANGE, 2001, 2009),
                (OpKind.DELETE, 3000),
                (OpKind.RANGE, 2990, 3020),
            ]
        )
        pieces = sum(
            np.bincount(sub.origin, minlength=batch.n) for sub in fleet.router.route(batch)
        )
        assert pieces[[3, 4, 5, 6]].tolist() == [2, 1, 4, 2]
        out = fleet.process_batch(batch, engine=engine)
        expected = SequentialReference(keys, values).execute(batch)
        rep = check_linearizable(batch, out.results, expected)
        assert rep.ok, rep.describe(batch)
        assert out.results.range_result(6)[0].size == 0
        for field in ("range_offsets", "range_keys", "range_values"):
            np.testing.assert_array_equal(
                getattr(out.results, field), getattr(expected, field)
            )

    def test_merged_outcome_carries_per_shard_breakdown(self):
        keys, values = _pool(6)
        fleet = ShardedSystem.build("lock", keys, values, n_shards=2)
        rng = np.random.default_rng(1)
        batch = YcsbWorkload(pool=keys).generate(256, rng)
        out = fleet.process_batch(batch)
        qos = out.extras["shards"]
        assert [q.shard for q in qos] == [0, 1]
        assert sum(q.n_requests for q in qos) == batch.n
        assert out.seconds == pytest.approx(max(q.seconds for q in qos))
        assert all(q.throughput > 0 for q in qos)
        assert "straggler" in repr(out.extras["straggler_shard"]) or isinstance(
            out.extras["straggler_shard"], int
        )
        # merged trace sums per-shard traces; shard traces kept individually
        assert out.trace is not None
        assert set(out.extras["shard_traces"]) == {0, 1}


# --------------------------------------------------------------------- #
# scaling benchmark (harness)
# --------------------------------------------------------------------- #
def test_shard_scaling_reports_speedup_floor():
    cfg = ExperimentConfig(
        tree_size=2**11, batch_size=2**10, n_batches=1, fanout=8, num_sms=4
    )
    fig = shard_scaling(cfg, shard_counts=(1, 2, 4))
    assert fig.value("4 shards", "speedup") >= 1.5
    assert fig.value("1 shard", "speedup") == 1.0
    assert any("merged trace" in n for n in fig.notes)
