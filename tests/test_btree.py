"""Unit + property tests for the B+tree substrate."""

import copy
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._types import EMPTY_KEY, MAX_KEY, NO_NODE, NULL_VALUE, OpKind
from repro.btree import (
    BPlusTree,
    NodeLayout,
    batch_find_leaf,
    batch_leaf_lookup,
    batch_leaf_slots,
    batch_point_query,
    batch_range_scan,
    batch_range_spans,
    leaf_rf_values,
)
from repro.btree.layout import HEADER_WORDS, OFF_KEYS
from repro.config import TreeConfig
from repro.errors import SimulationError, TreeError
from repro.memory import MemoryArena
from repro.btree.device_ops import d_find_leaf, d_search_leaf, d_walk_leaves
from repro.core.kernels import d_range_raw
from repro.simt import Branch, Load, Mark, run_subroutine
from repro.simt.lowered import OP_BRANCH, OP_LOAD, OP_MARK
from repro.workloads.requests import flatten_scans


def build(n=500, fanout=8, fill=0.7, seed=0, headroom=2.0):
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.choice(n * 10, size=n, replace=False)).astype(np.int64)
    values = keys * 2 + 1
    config = TreeConfig(fanout=fanout, arena_headroom=headroom)
    tree = BPlusTree.build(keys, values, config, fill_factor=fill)
    return tree, keys, values


class TestLayout:
    def test_node_words(self):
        lay = NodeLayout(fanout=16)
        assert lay.node_words == HEADER_WORDS + 16 + 17

    def test_stride_is_segment_multiple(self):
        lay = NodeLayout(fanout=16)
        assert lay.stride % lay.words_per_segment == 0
        assert lay.stride >= lay.node_words

    def test_addresses_do_not_overlap(self):
        lay = NodeLayout(fanout=8)
        assert lay.node_base(1) >= lay.node_base(0) + lay.node_words
        assert lay.key_addr(0, 0) == lay.node_base(0) + OFF_KEYS

    def test_base_offset_applies(self):
        lay = NodeLayout(fanout=8, base=100)
        assert lay.node_base(0) == 100


class TestBulkBuild:
    def test_contents_roundtrip(self):
        tree, keys, values = build()
        ks, vs = tree.items()
        assert np.array_equal(ks, keys)
        assert np.array_equal(vs, values)

    def test_validates(self):
        tree, _, _ = build()
        tree.validate()

    def test_len(self):
        tree, keys, _ = build(n=321)
        assert len(tree) == 321

    def test_unsorted_input_is_sorted(self):
        keys = np.array([5, 1, 9, 3], dtype=np.int64)
        vals = np.array([50, 10, 90, 30], dtype=np.int64)
        tree = BPlusTree.build(keys, vals, TreeConfig(fanout=4))
        ks, vs = tree.items()
        assert np.array_equal(ks, [1, 3, 5, 9])
        assert np.array_equal(vs, [10, 30, 50, 90])

    def test_duplicate_keys_rejected(self):
        with pytest.raises(TreeError):
            BPlusTree.build(np.array([1, 1]), np.array([2, 3]))

    def test_empty_rejected(self):
        with pytest.raises(TreeError):
            BPlusTree.build(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))

    def test_single_key_tree(self):
        tree = BPlusTree.build(np.array([42]), np.array([1]))
        assert tree.height == 1
        assert tree.search(42) == 1
        tree.validate()

    def test_leaf_chain_is_complete(self):
        tree, keys, _ = build(n=300, fanout=8)
        leaves = tree.leaf_ids()
        total = sum(
            int(tree.arena.data[tree.layout.addr(leaf, 0)]) for leaf in leaves
        )
        assert total == 300

    def test_height_grows_with_size(self):
        small, _, _ = build(n=20, fanout=8)
        large, _, _ = build(n=5000, fanout=8)
        assert large.height > small.height

    def test_fill_factor_controls_leaf_count(self):
        packed, _, _ = build(n=1000, fill=1.0)
        loose, _, _ = build(n=1000, fill=0.5)
        assert len(loose.leaf_ids()) > len(packed.leaf_ids())

    def test_external_arena_placement(self):
        arena = MemoryArena(200_000)
        arena.alloc(100)
        keys = np.arange(100, dtype=np.int64)
        tree = BPlusTree.build(keys, keys, TreeConfig(fanout=8), arena=arena)
        assert tree.layout.base >= 100
        tree.validate()

    def test_plan_max_nodes_bounds_build(self):
        cfg = TreeConfig(fanout=8)
        for n in (1, 7, 64, 999):
            planned = BPlusTree.plan_max_nodes(n, cfg)
            keys = np.arange(n, dtype=np.int64)
            tree = BPlusTree.build(keys, keys, cfg)
            assert tree.node_count <= planned


class TestSearch:
    def test_hits(self):
        tree, keys, values = build()
        for k, v in zip(keys[::37], values[::37], strict=True):
            assert tree.search(int(k)) == int(v)

    def test_misses(self):
        tree, keys, _ = build()
        present = set(int(k) for k in keys)
        miss = next(k for k in range(10_000) if k not in present)
        assert tree.search(miss) == NULL_VALUE

    def test_find_leaf_steps_equal_height(self):
        tree, keys, _ = build()
        _, steps = tree.find_leaf(int(keys[0]))
        assert steps == tree.height


class TestUpsert:
    def test_overwrite_returns_old(self):
        tree, keys, values = build()
        k = int(keys[10])
        assert tree.upsert(k, 777) == int(values[10])
        assert tree.search(k) == 777

    def test_fresh_insert_returns_null(self):
        tree, keys, _ = build()
        assert tree.upsert(4_999_999, 5) == NULL_VALUE
        assert tree.search(4_999_999) == 5

    def test_many_inserts_split_and_stay_valid(self):
        rng = np.random.default_rng(3)
        base = np.sort(rng.choice(2000, size=200, replace=False)).astype(np.int64)
        tree = BPlusTree.build(
            base, base * 2 + 1,
            TreeConfig(fanout=8, arena_headroom=6.0), fill_factor=1.0,
        )
        fresh = rng.choice(100_000, size=500, replace=False)
        for k in fresh:
            tree.upsert(int(k) + 10_000_000, int(k))
        tree.validate()
        for k in fresh[:50]:
            assert tree.search(int(k) + 10_000_000) == int(k)
        assert len(tree.split_events) > 0

    def test_root_split_grows_height(self):
        keys = np.arange(4, dtype=np.int64)
        tree = BPlusTree.build(keys, keys, TreeConfig(fanout=4, arena_headroom=40.0), fill_factor=1.0)
        h0 = tree.height
        for k in range(100, 160):
            tree.upsert(k, k)
        tree.validate()
        assert tree.height > h0

    def test_ascending_and_descending_insert_orders(self):
        for order in (1, -1):
            tree = BPlusTree.build(np.array([500_000]), np.array([0]), TreeConfig(fanout=4, arena_headroom=2500.0))
            for k in range(1000)[::order]:
                tree.upsert(k, k + 1)
            tree.validate()
            ks, vs = tree.items()
            assert np.array_equal(ks[:-1], np.arange(1000))

    def test_out_of_range_key_rejected(self):
        tree, _, _ = build()
        with pytest.raises(TreeError):
            tree.upsert(-5, 1)


class TestDelete:
    def test_delete_returns_old_value(self):
        tree, keys, values = build()
        k = int(keys[5])
        assert tree.delete(k) == int(values[5])
        assert tree.search(k) == NULL_VALUE

    def test_delete_missing_returns_null(self):
        tree, _, _ = build()
        assert tree.delete(99_999_999) == NULL_VALUE

    def test_delete_all_keys_of_a_leaf(self):
        tree, keys, _ = build(n=64, fanout=8)
        for k in keys[:10]:
            tree.delete(int(k))
        tree.validate()
        ks, _ = tree.items()
        assert ks.size == 54

    def test_delete_then_reinsert(self):
        tree, keys, _ = build()
        k = int(keys[7])
        tree.delete(k)
        tree.upsert(k, 123)
        assert tree.search(k) == 123
        tree.validate()


class TestRangeScan:
    def test_matches_reference(self):
        tree, keys, values = build()
        lo, hi = int(keys[50]), int(keys[80])
        ks, vs = tree.range_scan(lo, hi)
        ref = (keys >= lo) & (keys <= hi)
        assert np.array_equal(ks, keys[ref])
        assert np.array_equal(vs, values[ref])

    def test_empty_range(self):
        tree, _, _ = build()
        ks, _ = tree.range_scan(10, 5)
        assert ks.size == 0

    def test_range_beyond_max_key(self):
        tree, keys, _ = build()
        ks, _ = tree.range_scan(int(keys[-1]) + 1, int(keys[-1]) + 100)
        assert ks.size == 0

    def test_full_range(self):
        tree, keys, _ = build(n=100)
        ks, _ = tree.range_scan(0, int(keys[-1]))
        assert np.array_equal(ks, keys)


class TestRF:
    def test_rf_initialized_to_hop_leaf_min_key(self):
        tree, _, _ = build(n=400, fanout=8)
        leaves = tree.leaf_ids()
        hop = tree.height + 1
        rf = leaf_rf_values(tree, np.array(leaves))
        for i, leaf in enumerate(leaves):
            if i + hop < len(leaves):
                expected = int(tree.views.host(leaves[i + hop]).keys[0])
                assert rf[i] == expected
            else:
                assert rf[i] == EMPTY_KEY

    def test_update_rf_noop_for_short_walk(self):
        tree, _, _ = build(n=400, fanout=8)
        leaf = tree.leaf_ids()[0]
        before = int(leaf_rf_values(tree, np.array([leaf]))[0])
        tree.update_rf(leaf, tree.height)  # not longer than height
        assert int(leaf_rf_values(tree, np.array([leaf]))[0]) == before


class TestBatchTraversal:
    def test_batch_find_leaf_matches_scalar(self):
        tree, keys, _ = build(n=600)
        probe = keys[::7]
        leaves = batch_find_leaf(tree, probe)
        for k, leaf in zip(probe, leaves, strict=True):
            assert tree.find_leaf(int(k))[0] == int(leaf)

    def test_batch_leaf_lookup_matches_search(self):
        tree, keys, _ = build(n=600)
        rng = np.random.default_rng(9)
        probe = rng.integers(0, 6000, size=300)
        leaves = batch_find_leaf(tree, probe)
        vals = batch_leaf_lookup(tree, leaves, probe)
        ref = np.array([tree.search(int(k)) for k in probe])
        assert np.array_equal(vals, ref)

    @pytest.mark.parametrize("fanout", [4, 8, 32])
    @pytest.mark.parametrize("probe_order", ["sorted", "unsorted", "duplicates"])
    def test_batch_find_leaf_on_grown_tree(self, fanout, probe_order):
        tree = grown_tree(fanout, seed=fanout + 1)
        rng = np.random.default_rng(fanout)
        probe = rng.integers(0, 21_000, size=700)
        if probe_order == "sorted":
            probe = np.sort(probe)
        elif probe_order == "duplicates":
            probe = np.repeat(probe[:100], rng.integers(1, 5, size=100))
            rng.shuffle(probe)
        leaves = batch_find_leaf(tree, probe)
        assert [tree.find_leaf(int(k))[0] for k in probe] == leaves.tolist()

    def test_empty_batch(self):
        tree, _, _ = build(n=50)
        leaves = batch_find_leaf(tree, np.zeros(0, dtype=np.int64))
        assert leaves.size == 0


class TestValidateDetectsCorruption:
    def test_unsorted_keys_detected(self):
        tree, _, _ = build(n=100)
        leaf = tree.leaf_ids()[0]
        hk = tree.views.host(leaf).keys
        hk[0], hk[1] = hk[1].copy(), hk[0].copy()
        with pytest.raises(TreeError):
            tree.validate()

    def test_bad_count_detected(self):
        tree, _, _ = build(n=100)
        leaf = tree.leaf_ids()[0]
        tree.arena.data[tree.layout.addr(leaf, 0)] = tree.layout.fanout + 5
        with pytest.raises(TreeError):
            tree.validate()

    def test_cyclic_leaf_chain_detected(self):
        tree, _, _ = build(n=500, fanout=8)
        leaves = tree.leaf_ids()
        tree.views.host(leaves[-2]).next_leaf = leaves[0]
        with pytest.raises(TreeError, match="leaf chain"):
            tree.validate()

    def test_leaf_chain_skipping_a_leaf_detected(self):
        tree, _, _ = build(n=500, fanout=8)
        leaves = tree.leaf_ids()
        tree.views.host(leaves[3]).next_leaf = leaves[5]
        with pytest.raises(TreeError, match="leaf chain"):
            tree.validate()

    def test_leaf_chain_running_past_the_last_leaf_detected(self):
        tree, _, _ = build(n=500, fanout=8)
        leaves = tree.leaf_ids()
        tree.views.host(leaves[-1]).next_leaf = leaves[0]
        with pytest.raises(TreeError, match="past the last leaf"):
            tree.validate()


def chain_walk(tree: BPlusTree) -> list[int]:
    """Leaf ids in leaf-chain order, from the leftmost leaf."""
    node = tree.find_leaf(0)[0]
    out = []
    while node != NO_NODE:
        out.append(node)
        node = tree.views.host(node).next_leaf
    return out


def grown_tree(fanout: int, seed: int) -> BPlusTree:
    """A tree whose node ids are out of key order: random inserts split
    leaves and inner nodes (new nodes get the highest ids), and deletes
    empty some leaves."""
    rng = np.random.default_rng(seed)
    tree, keys, _ = build(n=40, fanout=fanout, seed=seed, headroom=40.0)
    for k in rng.choice(np.arange(1, 20_000, 3), size=40 * fanout, replace=False):
        tree.upsert(int(k), int(k) + 1)
    ks, _ = tree.items()
    for k in ks[: 3 * fanout]:  # the first few leaves end up empty
        tree.delete(int(k))
    tree.validate()
    return tree


class TestLeafIds:
    @pytest.mark.parametrize("fanout", [4, 8, 32])
    def test_matches_chain_walk_after_splits_and_deletes(self, fanout):
        tree = grown_tree(fanout, seed=fanout)
        assert tree.split_events
        leaves = tree.leaf_ids()
        assert leaves.dtype == np.int64
        assert leaves.tolist() == chain_walk(tree)
        assert np.any(np.diff(leaves) < 0)  # node ids really are out of key order

    @pytest.mark.parametrize("fanout", [4, 8, 32])
    def test_leaf_chain_indexes_leaves_only(self, fanout):
        tree = grown_tree(fanout, seed=fanout)
        chain, pos = tree.leaf_chain()
        assert chain.tolist() == chain_walk(tree)
        assert pos.shape == (tree.max_nodes,)
        assert pos[chain].tolist() == list(range(chain.size))
        others = np.setdiff1d(np.arange(tree.max_nodes), chain)
        assert np.all(pos[others] == -1)

    @pytest.mark.parametrize("fanout", [4, 8, 32])
    def test_range_spans_count_chain_hops(self, fanout):
        tree = grown_tree(fanout, seed=fanout)
        rng = np.random.default_rng(fanout)
        lo = rng.integers(0, 21_000, size=200)
        hi = lo + rng.integers(0, 3_000, size=200)
        chain = chain_walk(tree)
        want = [
            chain.index(tree.find_leaf(int(h))[0]) - chain.index(tree.find_leaf(int(l))[0]) + 1
            for l, h in zip(lo, hi)
        ]
        assert batch_range_spans(tree, lo, hi).tolist() == want


def program_ops(tree: BPlusTree, gen) -> tuple[list[int], list[int], object]:
    """Op kinds and addresses (0 for a Branch or Mark) a Load/Branch/Mark
    program yields, run against the arena, and its return value."""
    kinds, addrs, send = [], [], None
    while True:
        try:
            op = gen.send(send)
        except StopIteration as stop:
            return kinds, addrs, stop.value
        assert type(op) in (Load, Branch, Mark)
        kinds.append({Load: OP_LOAD, Branch: OP_BRANCH, Mark: OP_MARK}[type(op)])
        addrs.append(op.addr if type(op) is Load else 0)
        send = int(tree.arena.data[op.addr]) if type(op) is Load else None


def point_query_program(tree: BPlusTree, key: int, start: int, load_rf: bool, req_id: int):
    """One request of an iteration lane (or, from ``NO_NODE``, of a
    ``d_query`` lane): descend or walk, search the leaf, load its RF if
    the lane publishes it, then the Mark."""
    if start == NO_NODE:
        leaf, steps = yield from d_find_leaf(tree, key)
    else:
        leaf, steps = yield from d_walk_leaves(tree, start, key)
    value = yield from d_search_leaf(tree, leaf, key)
    if load_rf:
        yield Load(tree.views.addrs(leaf).rf)
    yield Mark(req_id)
    return value, leaf, steps


def range_program(tree: BPlusTree, lo: int, hi: int, req_id: int):
    """A range lane of Eirene's query kernel: the raw scan, then the Mark."""
    yield from d_range_raw(tree, lo, hi)
    yield Mark(req_id)


class TestBatchRangeScan:
    @pytest.mark.parametrize("fanout", [4, 8, 32])
    def test_matches_host_range_scan_and_program_ops(self, fanout):
        tree = grown_tree(fanout, seed=fanout)
        present, _ = tree.items()
        rng = np.random.default_rng(fanout)
        gap = int(np.setdiff1d(np.arange(present[0], present[-1]), present)[0])
        lo = np.concatenate([
            [gap, 0, present[-1] + 1, present[0], present[1]],
            rng.integers(0, 21_000, size=40),
        ])
        hi = np.concatenate([
            [gap, present[0] - 1, present[-1] + 500, present[-1], present[5 * fanout]],
            rng.integers(0, 3_000, size=40),
        ])
        hi[5:] += lo[5:]
        hi[0] = lo[0] - 1  # an inverted range scans nothing
        spans = batch_range_spans(tree, lo, hi)
        assert spans[4] >= 3

        ids = np.arange(lo.size) * 3 + 1
        trace, (counts, keys, values) = batch_range_scan(tree, lo, hi, ids)
        want = flatten_scans([tree.range_scan(int(a), int(b)) for a, b in zip(lo, hi)])
        assert counts.tolist() == want[0].tolist()
        assert counts[:3].tolist() == [0, 0, 0]
        assert np.array_equal(keys, want[1]) and np.array_equal(values, want[2])
        assert trace.kinds.dtype == np.int8 and trace.mark_ids.tolist() == ids.tolist()
        assert trace.warps.tolist() == list(range(lo.size + 1)) and not trace.iters.any()
        for j, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
            at = slice(trace.offsets[j], trace.offsets[j + 1])
            kinds, addrs, _ = program_ops(tree, range_program(tree, a, b, int(ids[j])))
            assert trace.kinds[at].tolist() == kinds
            assert trace.addrs[at].tolist() == addrs

    @pytest.mark.parametrize("where", ["child", "next_leaf"])
    @pytest.mark.parametrize("node", ["straddling", "negative", "huge"])
    def test_out_of_arena_pointer_faults_like_the_interpreter(self, where, node):
        cfg = TreeConfig(fanout=8)
        keys = np.arange(0, 400, 2, dtype=np.int64)
        max_nodes = BPlusTree.plan_max_nodes(keys.size, cfg)
        words = NodeLayout(fanout=8).arena_words(max_nodes)
        # the arena ends 3 words into node ``max_nodes``: its count and leaf
        # words are inside, its keys and next pointer outside
        tree = BPlusTree.build(keys, keys, cfg, arena=MemoryArena(words + 3))
        bad = {"straddling": max_nodes, "negative": -2, "huge": 2**62}[node]
        if where == "child":
            tree.views.host(tree.root).children[0] = bad
        else:
            tree.views.host(tree.leaf_ids()[0]).next_leaf = bad
        with pytest.raises(SimulationError, match="out of bounds") as want:
            run_subroutine(d_range_raw(tree, 0, 10**6), tree.arena)
        with pytest.raises(SimulationError, match=re.escape(str(want.value))):
            batch_range_scan(tree, [0, 0], [10**6, 10**6], [0, 1])

    def test_count_past_the_fanout_reads_on_to_the_arena_end(self):
        tree, _, _ = build(n=64)
        tree.views.host(tree.leaf_ids()[0]).count = EMPTY_KEY
        # no word exceeds EMPTY_KEY: the key scan runs off the end of the arena
        with pytest.raises(SimulationError, match="out of bounds") as want:
            run_subroutine(d_range_raw(tree, EMPTY_KEY, EMPTY_KEY), tree.arena)
        with pytest.raises(SimulationError, match=re.escape(str(want.value))):
            batch_range_scan(tree, [EMPTY_KEY], [EMPTY_KEY], [0])

    def test_empty_input(self):
        tree, _, _ = build(n=50)
        trace, (counts, keys, values) = batch_range_scan(tree, [], [], [])
        assert trace.offsets.tolist() == [0] and trace.kinds.size == 0
        assert trace.warps.tolist() == [0] and trace.mark_ids.size == 0
        assert counts.size == keys.size == values.size == 0


class TestBatchPointQuery:
    @pytest.mark.parametrize("fanout", [4, 8, 32])
    def test_matches_the_lane_programs_op_by_op(self, fanout):
        tree = grown_tree(fanout, seed=fanout)
        present, values = tree.items()
        chain = tree.leaf_ids()
        rng = np.random.default_rng(fanout)
        keys = np.concatenate([
            present[:: max(present.size // 60, 1)],  # hits
            rng.integers(0, 21_000, size=60),  # mostly misses
            [0, present[-1] + 1, EMPTY_KEY - 1],
        ])
        n = keys.size
        leaves = batch_find_leaf(tree, keys)
        pos = np.searchsorted(chain, leaves, sorter=np.argsort(chain))
        pos = np.argsort(chain)[pos]  # chain position of each key's leaf
        # a walk starts at the key's leaf or up to 3 leaves before it
        start = chain[np.maximum(pos - rng.integers(0, 4, size=n), 0)]
        start = np.where(rng.random(n) < 0.5, NO_NODE, start)
        load_rf = rng.random(n) < 0.3
        streams = rng.permutation(n)

        (offsets, kinds, addrs), (got_values, got_leaves, got_steps) = batch_point_query(
            tree, keys, start, load_rf, streams
        )
        assert kinds.dtype == np.int8 and offsets.size == n + 1
        for i in range(n):
            at = slice(offsets[streams[i]], offsets[streams[i] + 1])
            want_kinds, want_addrs, (value, leaf, steps) = program_ops(
                tree,
                point_query_program(tree, int(keys[i]), int(start[i]), bool(load_rf[i]), i),
            )
            assert kinds[at].tolist() == want_kinds
            assert addrs[at].tolist() == want_addrs
            assert (got_values[i], got_leaves[i], got_steps[i]) == (value, leaf, steps)
        assert np.array_equal(got_leaves, leaves)
        assert np.any(got_values != NULL_VALUE) and np.any(got_values == NULL_VALUE)
        assert np.any(got_steps > 1 + (start == NO_NODE) * (tree.height - 1))  # real walks

    @pytest.mark.parametrize("where", ["child", "next_leaf"])
    @pytest.mark.parametrize("node", ["straddling", "negative", "huge"])
    def test_out_of_arena_pointer_faults_like_the_interpreter(self, where, node):
        cfg = TreeConfig(fanout=8)
        keys = np.arange(0, 400, 2, dtype=np.int64)
        max_nodes = BPlusTree.plan_max_nodes(keys.size, cfg)
        words = NodeLayout(fanout=8).arena_words(max_nodes)
        tree = BPlusTree.build(keys, keys, cfg, arena=MemoryArena(words + 3))
        bad = {"straddling": max_nodes, "negative": -2, "huge": 2**62}[node]
        first = int(tree.leaf_ids()[0])
        start = NO_NODE
        if where == "child":
            tree.views.host(tree.root).children[0] = bad
        else:
            tree.views.host(first).next_leaf = bad
            start = first
        with pytest.raises(SimulationError, match="out of bounds") as want:
            run_subroutine(point_query_program(tree, 1, start, True, 0), tree.arena)
        with pytest.raises(SimulationError, match=re.escape(str(want.value))):
            batch_point_query(tree, [1, 1], [start, start], [True, False], [1, 0])


def loop_apply(tree: BPlusTree, kinds, keys, values) -> np.ndarray:
    """The per-key reference :meth:`BPlusTree.apply_updates` must equal."""
    old = []
    for kind, key, value in zip(kinds, keys, values, strict=True):
        if kind == OpKind.DELETE:
            old.append(tree.delete(int(key)))
        else:
            old.append(tree.upsert(int(key), int(value)))
    return np.array(old, dtype=np.int64)


def assert_same_tree(a: BPlusTree, b: BPlusTree) -> None:
    assert np.array_equal(a.arena.data, b.arena.data)
    assert a.split_events == b.split_events
    assert (a.height, a.root, a.node_count) == (b.height, b.root, b.node_count)


def mixed_batch(tree: BPlusTree, rng: np.random.Generator, n_fresh: int):
    """Overwrites, fresh inserts, deletes emptying the first leaf, and
    deletes of absent keys, key-sorted."""
    present, _ = tree.items()
    first, second = tree.leaf_ids()[:2]
    empty_first = tree.views.host(first).keys[: tree.views.host(first).count]
    rest = np.setdiff1d(present, empty_first)
    overwrite = rng.choice(rest, size=rest.size // 2, replace=False)
    delete = np.concatenate([empty_first, rng.choice(np.setdiff1d(rest, overwrite), 5)])
    # no fresh key routes to the first leaf, so it stays empty
    absent = np.setdiff1d(np.arange(tree.views.host(second).fence, 50_000), present)
    fresh = rng.choice(absent, size=n_fresh + 5, replace=False)
    delete_absent, fresh = fresh[:5], fresh[5:]
    keys = np.concatenate([overwrite, fresh, delete, delete_absent]).astype(np.int64)
    kinds = np.array(
        [OpKind.UPDATE] * overwrite.size
        + [OpKind.INSERT] * fresh.size
        + [OpKind.DELETE] * (delete.size + delete_absent.size),
        dtype=np.int8,
    )
    keys, idx = np.unique(keys, return_index=True)
    kinds = kinds[idx]
    values = rng.integers(0, 10**9, size=keys.size)
    return kinds, keys, values


def row_compare_slots(tree: BPlusTree, leaves, keys):
    """The full-row compare :func:`batch_leaf_slots` must equal: per key, the
    count of its leaf's key words below it, capped at the last slot."""
    rows = tree.views.key_rows(np.asarray(leaves, dtype=np.int64))
    slots = np.minimum((rows < np.asarray(keys)[:, None]).sum(axis=1), tree.layout.fanout - 1)
    return slots, rows[np.arange(len(keys)), slots] == keys


class TestLeafSlots:
    def assert_matches_row_compare(self, tree, leaves, keys):
        slots, hit = batch_leaf_slots(tree, leaves, keys)
        ref_slots, ref_hit = row_compare_slots(tree, leaves, keys)
        assert np.array_equal(slots, ref_slots)
        assert np.array_equal(hit, ref_hit)
        vals = batch_leaf_lookup(tree, leaves, keys)
        assert np.array_equal(vals[hit], tree.arena.data[
            tree.views.payload_addrs(np.asarray(leaves)[hit], slots[hit])])
        return hit

    @pytest.mark.parametrize("fanout", [4, 5, 8, 12, 32])
    def test_unsorted_keys(self, fanout):
        tree, keys, _ = build(n=600, fanout=fanout)
        rng = np.random.default_rng(fanout)
        probe = rng.integers(0, 6100, size=400)  # present and absent, any order
        leaves = batch_find_leaf(tree, probe)
        hit = self.assert_matches_row_compare(tree, leaves, probe)
        assert np.array_equal(hit, np.isin(probe, keys))

    def test_leaves_that_do_not_hold_their_key(self):
        tree, keys, _ = build(n=600)
        rng = np.random.default_rng(5)
        probe = rng.choice(keys, size=300)
        chain = np.array(tree.leaf_ids())
        leaves = rng.choice(chain, size=probe.size)  # mostly the wrong leaf
        hit = self.assert_matches_row_compare(tree, leaves, probe)
        assert 0 < hit.sum() < hit.size

    def test_empty_and_compacted_leaves(self):
        tree, keys, _ = build(n=300, fanout=8)
        chain = tree.leaf_ids()
        emptied = tree.views.host(chain[2]).keys[: tree.views.host(chain[2]).count].copy()
        for k in emptied:  # leaf 2 empty
            tree.delete(int(k))
        for k in keys[::3]:  # the rest compacted by deletes
            tree.delete(int(k))
        assert tree.views.host(chain[2]).count == 0
        probe = np.concatenate([keys, emptied, keys[::-1] + 1])
        leaves = batch_find_leaf(tree, probe)
        hit = self.assert_matches_row_compare(tree, leaves, probe)
        assert np.array_equal(hit, np.isin(probe, tree.items()[0]))

    def test_empty_input(self):
        tree, _, _ = build(n=50)
        slots, hit = batch_leaf_slots(tree, [], [])
        assert slots.size == hit.size == 0


class TestApplyUpdates:
    @pytest.mark.parametrize("fanout, n_fresh", [(4, 150), (8, 300), (32, 1500)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_per_key_loop(self, fanout, n_fresh, seed):
        rng = np.random.default_rng(seed)
        tree, _, _ = build(n=120, fanout=fanout, seed=seed, headroom=40.0)
        kinds, keys, values = mixed_batch(tree, rng, n_fresh)
        leaves = batch_find_leaf(tree, keys)
        ref = copy.deepcopy(tree)
        height = tree.height

        old = tree.apply_updates(kinds, keys, values, leaves)
        ref_old = loop_apply(ref, kinds, keys, values)

        assert np.array_equal(old, ref_old)
        assert_same_tree(tree, ref)
        assert tree.height > height  # the fresh inserts split the root
        assert any(e.level == 0 for e in tree.split_events)
        assert tree.views.host(tree.leaf_ids()[0]).count == 0  # emptied leaf
        assert np.count_nonzero(old != NULL_VALUE) > 0
        tree.validate()

    def test_stale_leaves_cost_speed_not_correctness(self):
        rng = np.random.default_rng(3)
        tree, _, _ = build(n=200, fanout=8, headroom=4.0)
        kinds, keys, values = mixed_batch(tree, rng, 60)
        ref = copy.deepcopy(tree)
        leaves = np.full(keys.size, tree.leaf_ids()[0], dtype=np.int64)
        old = tree.apply_updates(kinds, keys, values, leaves)
        assert np.array_equal(old, loop_apply(ref, kinds, keys, values))
        assert_same_tree(tree, ref)

    def test_leaves_gone_stale_after_splits(self):
        # leaves found before a run of inserts split them: keys that moved to
        # a new leaf take the per-key path, the rest are overwritten in place
        rng = np.random.default_rng(7)
        tree, keys, _ = build(n=200, fanout=4, headroom=8.0)
        targets = np.sort(rng.choice(keys, size=120, replace=False))
        leaves = batch_find_leaf(tree, targets)
        for k in rng.choice(np.setdiff1d(np.arange(2000), keys), size=150, replace=False):
            tree.upsert(int(k), 1)
        assert np.any(batch_find_leaf(tree, targets) != leaves)
        kinds = np.where(rng.random(targets.size) < 0.2, OpKind.DELETE, OpKind.UPDATE)
        kinds = kinds.astype(np.int8)
        values = rng.integers(0, 10**9, size=targets.size)
        ref = copy.deepcopy(tree)
        old = tree.apply_updates(kinds, targets, values, leaves)
        assert np.array_equal(old, loop_apply(ref, kinds, targets, values))
        assert_same_tree(tree, ref)

    def test_empty_batch(self):
        tree, _, _ = build(n=50)
        empty = np.zeros(0, dtype=np.int64)
        assert tree.apply_updates(empty, empty, empty, empty).size == 0

    @pytest.mark.parametrize(
        "keys",
        [
            [30, 10, 20],  # unsorted
            [10, 20, 20],  # duplicate
            [-1, 10, 20],  # below range
            [10, 20, MAX_KEY + 1],  # EMPTY_KEY, above range
        ],
    )
    def test_bad_keys_rejected_with_tree_untouched(self, keys):
        tree, _, _ = build(n=100)
        before = tree.arena.data.copy()
        keys = np.array(keys, dtype=np.int64)
        kinds = np.full(keys.size, OpKind.INSERT, dtype=np.int8)
        leaves = np.full(keys.size, tree.leaf_ids()[0], dtype=np.int64)
        with pytest.raises(TreeError):
            tree.apply_updates(kinds, keys, keys, leaves)
        assert np.array_equal(tree.arena.data, before)
        assert tree.split_events == []

    @pytest.mark.parametrize("bad_leaf", ["inner", "negative", "unallocated"])
    def test_bad_leaves_rejected_with_tree_untouched(self, bad_leaf):
        tree, keys, _ = build(n=100)
        before = tree.arena.data.copy()
        probe = keys[:3]
        leaves = batch_find_leaf(tree, probe)
        leaves[1] = {"inner": tree.root, "negative": -1, "unallocated": tree.node_count}[
            bad_leaf
        ]
        kinds = np.full(probe.size, OpKind.UPDATE, dtype=np.int8)
        with pytest.raises(TreeError):
            tree.apply_updates(kinds, probe, probe, leaves)
        assert np.array_equal(tree.arena.data, before)

    def test_length_mismatch_rejected(self):
        tree, keys, _ = build(n=100)
        leaves = batch_find_leaf(tree, keys[:3])
        with pytest.raises(TreeError):
            tree.apply_updates(np.ones(2, dtype=np.int8), keys[:3], keys[:3], leaves)


@st.composite
def op_sequences(draw):
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["upsert", "delete", "search"]),
                st.integers(0, 60),
                st.integers(1, 100),
            ),
            min_size=1,
            max_size=120,
        )
    )
    return ops


class TestTreeModelProperty:
    @given(op_sequences())
    @settings(max_examples=60, deadline=None)
    def test_matches_dict_model(self, ops):
        keys = np.arange(0, 60, 7, dtype=np.int64)
        tree = BPlusTree.build(keys, keys * 3, TreeConfig(fanout=4))
        model = {int(k): int(k) * 3 for k in keys}
        for op, key, val in ops:
            if op == "upsert":
                got = tree.upsert(key, val)
                assert got == model.get(key, NULL_VALUE)
                model[key] = val
            elif op == "delete":
                got = tree.delete(key)
                assert got == model.pop(key, NULL_VALUE)
            else:
                assert tree.search(key) == model.get(key, NULL_VALUE)
        tree.validate()
        ks, vs = tree.items()
        assert np.array_equal(ks, np.array(sorted(model), dtype=np.int64))
        assert [int(v) for v in vs] == [model[int(k)] for k in ks]
