"""Unit tests for locality-aware warp reorganization (§5)."""

import copy

import numpy as np
import pytest

from repro._types import EMPTY_KEY
from repro.btree import BPlusTree, batch_find_leaf, leaf_rf_values
from repro.config import TreeConfig
from repro.core.locality import (
    build_iteration_plan,
    cross_warp_rf_hazard,
    vector_locality_steps,
)


@pytest.fixture
def dense_setup():
    """A tree + key-sorted issued stream dense enough for horizontal wins."""
    rng = np.random.default_rng(11)
    keys = np.sort(rng.choice(40_000, size=4096, replace=False)).astype(np.int64)
    tree = BPlusTree.build(keys, keys, TreeConfig(fanout=16))
    issued = np.sort(rng.choice(keys, size=2048, replace=False))
    return tree, issued


class TestIterationPlan:
    def test_rg_partition_covers_all(self):
        plan = build_iteration_plan(100, warp_size=32, rgs_per_warp=4)
        assert plan.n_rgs == 4
        assert plan.rg_start[0] == 0
        assert plan.rg_end[-1] == 100  # ragged last RG

    def test_warp_grouping(self):
        plan = build_iteration_plan(32 * 8, warp_size=32, rgs_per_warp=4)
        assert plan.n_warps == 2
        assert plan.warp_offsets.tolist() == [0, 4, 8]  # warp 0: RGs 0-3, warp 1: 4-7

    def test_empty(self):
        plan = build_iteration_plan(0, 32, 4)
        assert plan.n_rgs == 0
        assert plan.n_warps == 0

    @pytest.mark.parametrize("num_sms", [None, 1, 3, 80])
    @pytest.mark.parametrize("rgs_per_warp", [1, 3, 4])
    def test_warps_are_the_even_contiguous_partition(self, rgs_per_warp, num_sms):
        for n in range(0, 40 * 8, 7):
            plan = build_iteration_plan(n, 8, rgs_per_warp, num_sms)
            # RG r runs on warp r * n_warps // n_rgs
            warp_of_rg = np.arange(plan.n_rgs) * plan.n_warps // max(plan.n_rgs, 1)
            for w in range(plan.n_warps):
                assert np.array_equal(np.arange(*plan.warp_offsets[w : w + 2]),
                                      np.flatnonzero(warp_of_rg == w))
            assert plan.n_warps == (int(warp_of_rg.max()) + 1 if plan.n_rgs else 0)


class TestCrossWarpRfHazard:
    """Six RGs in two warps of three (RGs 0-2 and 3-5); RG ``r`` ends in
    leaf ``rg_leaf[r]`` and loads its RF, which RG ``r + 1`` of the same
    warp decides by, unless ``r`` is its warp's last RG (2 or 5)."""

    plan = build_iteration_plan(24, warp_size=4, rgs_per_warp=3)

    def hazard(self, rg_leaf, rewritten):
        assert self.plan.warp_offsets.tolist() == [0, 3, 6]
        return cross_warp_rf_hazard(self.plan, np.array(rg_leaf), rewritten)

    def test_no_rewritten_leaf(self):
        assert not self.hazard([7, 7, 7, 7, 7, 7], [])

    def test_one_reading_warp(self):
        # RG1 ends in leaf 7 and RG2 walks from it, rewriting its RF
        assert not self.hazard([5, 7, 9, 10, 11, 12], [7])

    def test_two_reading_warps(self):
        # RG4 (warp 1) ends in leaf 7 too: RG5 decides by its load
        assert self.hazard([5, 7, 7, 7, 7, 12], [7])

    def test_second_warp_loads_only_in_its_last_rg(self):
        # RG5 is warp 1's last RG: its load of leaf 7's RF decides nothing
        assert not self.hazard([5, 7, 9, 10, 11, 7], [7])


class TestVectorLocalitySteps:
    def test_leaves_match_vertical_traversal(self, dense_setup):
        tree, issued = dense_setup
        plan = build_iteration_plan(issued.size, 32, 4)
        ls = vector_locality_steps(tree, plan, issued)
        ref = batch_find_leaf(tree, issued)
        assert np.array_equal(ls.leaves, ref)

    def test_first_rg_of_each_warp_is_vertical(self, dense_setup):
        tree, issued = dense_setup
        plan = build_iteration_plan(issued.size, 32, 4)
        ls = vector_locality_steps(tree, plan, issued)
        for w in range(plan.n_warps):
            first_rg = plan.warp_offsets[w]
            lo, hi = int(plan.rg_start[first_rg]), int(plan.rg_end[first_rg])
            assert not ls.horizontal[lo:hi].any()
            assert np.all(ls.steps[lo:hi] == tree.height)

    def test_horizontal_reduces_average_steps_when_dense(self, dense_setup):
        tree, issued = dense_setup
        plan = build_iteration_plan(issued.size, 32, 4)
        ls = vector_locality_steps(tree, plan, issued)
        assert ls.horizontal.any()
        assert ls.steps.mean() < tree.height

    def test_rf_disabled_forces_horizontal(self, dense_setup):
        tree, issued = dense_setup
        plan = build_iteration_plan(issued.size, 32, 4)
        ls = vector_locality_steps(tree, plan, issued, enable_rf=False)
        # every non-first RG goes horizontal regardless of distance
        for w in range(plan.n_warps):
            for r in range(plan.warp_offsets[w] + 1, plan.warp_offsets[w + 1]):
                lo, hi = int(plan.rg_start[r]), int(plan.rg_end[r])
                assert ls.horizontal[lo:hi].all()

    def test_rf_decision_prevents_long_walks(self):
        # sparse stream: RGs are far apart, RF must choose vertical
        rng = np.random.default_rng(3)
        keys = np.sort(rng.choice(200_000, size=8192, replace=False)).astype(np.int64)
        tree = BPlusTree.build(keys, keys, TreeConfig(fanout=8))
        issued = np.sort(rng.choice(keys, size=256, replace=False))
        plan = build_iteration_plan(issued.size, 32, 4)
        ls = vector_locality_steps(tree, plan, issued, enable_rf=True)
        # with RF on, the average can never exceed vertical cost by more
        # than the first probe step
        assert ls.steps.mean() <= tree.height + 1
        ls_off = vector_locality_steps(tree, plan, issued, enable_rf=False)
        assert ls_off.steps.mean() >= ls.steps.mean()

    def test_lockstep_cost_is_rg_max(self, dense_setup):
        tree, issued = dense_setup
        plan = build_iteration_plan(issued.size, 32, 4)
        ls = vector_locality_steps(tree, plan, issued)
        for r in range(plan.n_rgs):
            lo, hi = int(plan.rg_start[r]), int(plan.rg_end[r])
            assert ls.rg_lockstep_steps[r] == ls.steps[lo:hi].max()


def loop_locality_steps(tree, plan, keys, enable_rf=True, update_rf=True):
    """The RG-by-RG walk :func:`vector_locality_steps` must equal: each RG
    reads its buffered leaf's RF as it stands after every earlier RG's
    update."""
    n = int(keys.size)
    leaves = batch_find_leaf(tree, keys)
    chain = tree.leaf_ids()
    index_of = np.full(tree.max_nodes, -1, dtype=np.int64)
    index_of[np.asarray(chain, dtype=np.int64)] = np.arange(len(chain))
    leaf_idx = index_of[leaves]
    height = tree.height
    steps = np.full(n, height, dtype=np.int64)
    horizontal = np.zeros(n, dtype=bool)
    rg_lockstep = np.zeros(plan.n_rgs, dtype=np.int64)
    rf_updates = 0
    rf_of_leaf = leaf_rf_values(tree, np.asarray(chain, dtype=np.int64))
    for w in range(plan.n_warps):
        buffered_idx = -1
        buffered_rf = -1
        for r in range(plan.warp_offsets[w], plan.warp_offsets[w + 1]):
            lo, hi = int(plan.rg_start[r]), int(plan.rg_end[r])
            rg_max_key = int(keys[hi - 1])
            go_horizontal = buffered_idx >= 0 and (not enable_rf or rg_max_key <= buffered_rf)
            if go_horizontal:
                s = leaf_idx[lo:hi] - buffered_idx + 1
                steps[lo:hi] = s
                horizontal[lo:hi] = True
                rg_lockstep[r] = int(s.max())
                if update_rf and int(s.max()) > height:
                    tree.update_rf(int(chain[buffered_idx]), int(s.max()))
                    rf_of_leaf = leaf_rf_values(tree, np.asarray(chain, dtype=np.int64))
                    rf_updates += 1
            else:
                rg_lockstep[r] = height
            buffered_idx = int(leaf_idx[hi - 1])
            buffered_rf = int(rf_of_leaf[buffered_idx])
    return steps, horizontal, leaves, rg_lockstep, rf_updates


def _streams(kind: str, fanout: int):
    """A tree and two disjoint key-sorted issued streams over it (a
    query-class call, then an update-class call)."""
    rng = np.random.default_rng(fanout)
    n_keys, n_issued = (4096, 2048) if kind == "dense" else (8192, 256)
    keys = np.sort(rng.choice(n_keys * 10, size=n_keys, replace=False)).astype(np.int64)
    tree = BPlusTree.build(keys, keys, TreeConfig(fanout=fanout))
    issued = rng.choice(keys, size=2 * n_issued, replace=False)
    return tree, np.sort(issued[:n_issued]), np.sort(issued[n_issued:])


class TestLoopFreeLocalityMatchesRgLoop:
    @pytest.mark.parametrize("fanout", [4, 8, 16, 32])
    @pytest.mark.parametrize("stream", ["dense", "sparse"])
    @pytest.mark.parametrize("enable_rf", [True, False])
    @pytest.mark.parametrize("rgs_per_warp", [1, 4])
    @pytest.mark.parametrize("rf_start", ["built", "cleared"])
    def test_two_calls_match(self, fanout, stream, enable_rf, rgs_per_warp, rf_start):
        tree, q_keys, u_keys = _streams(stream, fanout)
        if rf_start == "cleared":  # no RF recorded yet: long walks update it
            for leaf in tree.leaf_ids():
                tree.views.host(leaf).rf = EMPTY_KEY
        ref = copy.deepcopy(tree)
        for keys in (q_keys, u_keys):
            plan = build_iteration_plan(keys.size, 8, rgs_per_warp, num_sms=4)
            got = vector_locality_steps(tree, plan, keys, enable_rf=enable_rf)
            steps, horizontal, leaves, lockstep, rf_updates = loop_locality_steps(
                ref, plan, keys, enable_rf=enable_rf
            )
            assert np.array_equal(got.steps, steps)
            assert np.array_equal(got.horizontal, horizontal)
            assert np.array_equal(got.leaves, leaves)
            assert np.array_equal(got.rg_lockstep_steps, lockstep)
            assert got.rf_updates == rf_updates
            chain = np.asarray(tree.leaf_ids(), dtype=np.int64)
            assert np.array_equal(leaf_rf_values(tree, chain), leaf_rf_values(ref, chain))
            assert np.array_equal(tree.arena.data, ref.arena.data)

    def test_rf_updates_happen_in_these_cases(self):
        tree, q_keys, _ = _streams("sparse", 8)
        for leaf in tree.leaf_ids():
            tree.views.host(leaf).rf = EMPTY_KEY
        before = leaf_rf_values(tree, tree.leaf_ids())
        plan = build_iteration_plan(q_keys.size, 8, 4, num_sms=4)
        ls = vector_locality_steps(tree, plan, q_keys)
        assert ls.rf_updates > 0
        assert not np.array_equal(leaf_rf_values(tree, tree.leaf_ids()), before)

    def test_no_rf_update_when_disabled(self):
        tree, q_keys, _ = _streams("sparse", 8)
        before = tree.arena.data.copy()
        plan = build_iteration_plan(q_keys.size, 8, 4)
        ls = vector_locality_steps(tree, plan, q_keys, enable_rf=False, update_rf=False)
        assert ls.rf_updates == 0
        assert np.array_equal(tree.arena.data, before)

    def test_unsorted_keys_rejected(self):
        tree, q_keys, _ = _streams("dense", 8)
        plan = build_iteration_plan(q_keys.size, 8, 4)
        with pytest.raises(ValueError):
            vector_locality_steps(tree, plan, q_keys[::-1])

    def test_empty_call(self):
        tree, _, _ = _streams("dense", 8)
        ls = vector_locality_steps(tree, build_iteration_plan(0, 8, 4), np.zeros(0, np.int64))
        assert ls.steps.size == ls.rg_lockstep_steps.size == ls.rf_updates == 0
