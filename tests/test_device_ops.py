"""Unit tests for device-plane tree operations (thread-program generators)."""

import numpy as np
import pytest

from repro._types import NULL_VALUE
from repro.btree import BPlusTree
from repro.btree.device_ops import (
    d_find_leaf,
    d_find_leaf_stm,
    d_leaf_covers,
    d_leaf_delete_device,
    d_leaf_delete_stm,
    d_leaf_upsert_device,
    d_leaf_upsert_stm,
    d_search_leaf,
    d_search_leaf_stm,
    d_smo_upsert,
    d_walk_leaves,
    plan_upsert_nodes,
)
from repro.btree.layout import OFF_COUNT, OFF_VERSION
from repro.config import TreeConfig
from repro.simt.warp import run_subroutine
from repro.stm import DeviceStm, StmRegion


@pytest.fixture
def setup():
    rng = np.random.default_rng(4)
    keys = np.sort(rng.choice(5000, size=400, replace=False)).astype(np.int64)
    tree = BPlusTree.build(keys, keys * 2, TreeConfig(fanout=8))
    nwords = tree.layout.arena_words(tree.max_nodes)
    # STM tables + SMO word appended after the nodes
    from repro.memory import MemoryArena

    arena2 = MemoryArena(nwords * 3 + 64)
    arena2.data[: tree.arena.data.size] = tree.arena.data
    tree.arena = arena2
    arena2.alloc(nwords)
    region = StmRegion(arena2, tree.layout.base, nwords)
    smo = arena2.alloc(1)
    return tree, keys, DeviceStm(arena2, region), smo


class TestUnprotectedOps:
    def test_d_find_leaf_matches_host(self, setup):
        tree, keys, _, _ = setup
        for k in keys[::29]:
            leaf, steps = run_subroutine(d_find_leaf(tree, int(k)), tree.arena)
            assert leaf == tree.find_leaf(int(k))[0]
            assert steps == tree.height

    def test_d_search_leaf(self, setup):
        tree, keys, _, _ = setup
        k = int(keys[13])
        leaf, _ = tree.find_leaf(k)
        val = run_subroutine(d_search_leaf(tree, leaf, k), tree.arena)
        assert val == k * 2

    def test_d_search_leaf_miss(self, setup):
        tree, keys, _, _ = setup
        missing = int(keys[0]) + 1
        if missing in set(int(x) for x in keys):
            missing += 1
        leaf, _ = tree.find_leaf(missing)
        assert run_subroutine(d_search_leaf(tree, leaf, missing), tree.arena) == NULL_VALUE

    def test_d_walk_leaves_from_first_leaf(self, setup):
        tree, keys, _, _ = setup
        first = tree.leaf_ids()[0]
        target = int(keys[200])
        leaf, steps = run_subroutine(d_walk_leaves(tree, first, target), tree.arena)
        assert leaf == tree.find_leaf(target)[0]
        assert steps >= 1

    def test_d_leaf_covers_true_for_own_leaf(self, setup):
        tree, keys, _, _ = setup
        k = int(keys[50])
        leaf, _ = tree.find_leaf(k)
        assert run_subroutine(d_leaf_covers(tree, leaf, k), tree.arena)

    def test_d_leaf_covers_false_after_split_moves_range(self, setup):
        tree, keys, _, _ = setup
        k = int(keys[50])
        leaf, _ = tree.find_leaf(k)
        # force the leaf to split by filling it
        base = int(keys[50])
        added = 0
        probe = base
        while len(tree.split_events) == 0 and added < 50:
            probe += 1
            if tree.search(probe) == NULL_VALUE:
                tree.upsert(probe, 1)
                added += 1
        # keys moved right: a stale reference for a moved key must report
        # not-covered
        moved = tree.split_events[0]
        right_first = int(tree.views.host(moved.new_node).keys[0])
        assert not run_subroutine(
            d_leaf_covers(tree, moved.node, right_first), tree.arena
        )


class TestDeviceLeafMutations:
    def test_upsert_device_overwrites(self, setup):
        tree, keys, _, _ = setup
        k = int(keys[3])
        leaf, _ = tree.find_leaf(k)
        ver0 = int(tree.arena.data[tree.layout.addr(leaf, OFF_VERSION)])
        old, split = run_subroutine(
            d_leaf_upsert_device(tree, leaf, k, 555), tree.arena
        )
        assert (old, split) == (k * 2, False)
        assert tree.search(k) == 555
        assert int(tree.arena.data[tree.layout.addr(leaf, OFF_VERSION)]) == ver0 + 1

    def test_upsert_device_inserts_when_room(self, setup):
        tree, keys, _, _ = setup
        # find a leaf with room and a key that belongs in it
        for leaf in tree.leaf_ids():
            cnt = int(tree.arena.data[tree.layout.addr(leaf, OFF_COUNT)])
            if cnt < tree.layout.fanout:
                hk = tree.views.host(leaf).keys
                candidate = int(hk[0]) + 1
                if tree.search(candidate) == NULL_VALUE and tree.find_leaf(candidate)[0] == leaf:
                    old, split = run_subroutine(
                        d_leaf_upsert_device(tree, leaf, candidate, 9), tree.arena
                    )
                    assert (old, split) == (NULL_VALUE, False)
                    assert tree.search(candidate) == 9
                    tree.validate()
                    return
        pytest.skip("no suitable leaf found")

    def test_upsert_device_reports_split_needed(self, setup):
        tree, keys, _, _ = setup
        # fill one leaf completely
        leaf = tree.leaf_ids()[0]
        hk = tree.views.host(leaf).keys
        lo = int(hk[0])
        k = lo
        while int(tree.arena.data[tree.layout.addr(leaf, OFF_COUNT)]) < tree.layout.fanout:
            k += 1
            if tree.find_leaf(k)[0] == leaf and tree.search(k) == NULL_VALUE:
                tree.upsert(k, 1)
        # next absent key in this leaf's range must report needs-split
        k += 1
        while tree.search(k) != NULL_VALUE:
            k += 1
        if tree.find_leaf(k)[0] != leaf:
            pytest.skip("range exhausted")
        old, split = run_subroutine(d_leaf_upsert_device(tree, leaf, k, 1), tree.arena)
        assert split is True

    def test_delete_device(self, setup):
        tree, keys, _, _ = setup
        k = int(keys[9])
        leaf, _ = tree.find_leaf(k)
        old = run_subroutine(d_leaf_delete_device(tree, leaf, k), tree.arena)
        assert old == k * 2
        assert tree.search(k) == NULL_VALUE
        tree.validate()

    def test_delete_device_missing(self, setup):
        tree, keys, _, _ = setup
        missing = 4999
        while tree.search(missing) != NULL_VALUE:
            missing -= 1
        leaf, _ = tree.find_leaf(missing)
        assert run_subroutine(d_leaf_delete_device(tree, leaf, missing), tree.arena) == NULL_VALUE


class TestStmOps:
    def test_stm_traversal_and_search(self, setup):
        tree, keys, stm, _ = setup
        k = int(keys[77])

        def prog():
            tx = stm.begin()
            leaf, steps = yield from d_find_leaf_stm(tree, stm, tx, k)
            val = yield from d_search_leaf_stm(tree, stm, tx, leaf, k)
            yield from stm.d_commit(tx)
            return val

        assert run_subroutine(prog(), tree.arena) == k * 2

    def test_stm_upsert_and_delete(self, setup):
        tree, keys, stm, _ = setup
        k = int(keys[21])
        leaf, _ = tree.find_leaf(k)

        def upsert():
            tx = stm.begin()
            old, split = yield from d_leaf_upsert_stm(tree, stm, tx, leaf, k, 321)
            yield from stm.d_commit(tx)
            return old, split

        old, split = run_subroutine(upsert(), tree.arena)
        assert (old, split) == (k * 2, False)
        assert tree.search(k) == 321

        def delete():
            tx = stm.begin()
            old = yield from d_leaf_delete_stm(tree, stm, tx, leaf, k)
            yield from stm.d_commit(tx)
            return old

        assert run_subroutine(delete(), tree.arena) == 321
        assert tree.search(k) == NULL_VALUE
        tree.validate()


class TestSmoPath:
    def test_plan_contains_leaf(self, setup):
        tree, keys, _, _ = setup
        plan = plan_upsert_nodes(tree, int(keys[0]))
        assert plan[0] == tree.find_leaf(int(keys[0]))[0]

    def test_smo_upsert_splits_and_preserves_contents(self, setup):
        tree, keys, stm, smo = setup
        # fill a leaf, then insert through the SMO path
        leaf = tree.leaf_ids()[2]
        hk = tree.views.host(leaf).keys
        lo = int(hk[0])
        k = lo
        while int(tree.arena.data[tree.layout.addr(leaf, OFF_COUNT)]) < tree.layout.fanout:
            k += 1
            if tree.find_leaf(k)[0] == leaf and tree.search(k) == NULL_VALUE:
                tree.upsert(k, 1)
        k += 1
        while tree.search(k) != NULL_VALUE or tree.find_leaf(k)[0] != leaf:
            k += 1
            if k > lo + 10_000:
                pytest.skip("no absent key in leaf range")
        splits_before = len(tree.split_events)

        old = run_subroutine(
            d_smo_upsert(tree, stm, smo, owner=1, key=k, value=42), tree.arena
        )
        assert old == NULL_VALUE
        assert tree.search(k) == 42
        assert len(tree.split_events) > splits_before
        assert tree.arena.data[smo] == 0  # latch released
        tree.validate()
