"""DeviceContext: ownership, snapshot/restore, fork, launch wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    DeviceConfig,
    DeviceContext,
    TreeConfig,
    build_device_tree,
    make_system,
)
from repro.errors import ConfigError
from repro.memory import MemoryArena


def _kv(n=256, seed=0):
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.choice(n * 8, size=n, replace=False)).astype(np.int64)
    return keys, keys * 3


class TestConstruction:
    def test_fresh_context_owns_a_new_arena(self):
        ctx = DeviceContext(1024)
        assert ctx.arena.capacity == 1024

    def test_context_wraps_an_existing_arena(self):
        arena = MemoryArena(512)
        ctx = DeviceContext(arena=arena, device=DeviceConfig(num_sms=4), seed=3)
        assert ctx.arena is arena
        assert ctx.device.num_sms == 4
        assert ctx.seed == 3

    def test_make_rng_is_deterministic_per_salt(self):
        ctx = DeviceContext(64, seed=9)
        a = ctx.make_rng(1).integers(0, 1 << 30, 8)
        b = ctx.make_rng(1).integers(0, 1 << 30, 8)
        c = ctx.make_rng(2).integers(0, 1 << 30, 8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSnapshotRestore:
    def test_roundtrip_preserves_tree_state(self):
        keys, values = _kv()
        ctx, tree, _, _ = build_device_tree(keys, values, TreeConfig(fanout=8))
        snap = ctx.snapshot()
        before_k, before_v = tree.items()
        for k in keys[:32]:
            tree.upsert(int(k), -1)
        tree.upsert(int(keys.max()) + 5, 99)
        ctx.restore(snap)
        after_k, after_v = tree.items()
        np.testing.assert_array_equal(before_k, after_k)
        np.testing.assert_array_equal(before_v, after_v)
        tree.validate()

    def test_restore_is_in_place(self):
        """The arena object (and its data buffer) stays the same, so trees
        holding a reference remain valid after restore."""
        ctx = DeviceContext(128)
        buf = ctx.arena.data
        snap = ctx.snapshot()
        ctx.arena.alloc(16)
        ctx.restore(snap)
        assert ctx.arena.data is buf
        assert ctx.arena.allocated == snap.brk

    def test_restore_rejects_foreign_snapshot(self):
        small = DeviceContext(64)
        big = DeviceContext(128)
        with pytest.raises(ConfigError):
            small.restore(big.snapshot())


class TestFork:
    def test_fork_is_independent(self):
        ctx = DeviceContext(128, seed=1)
        ctx.arena.alloc(4)
        ctx.arena.data[0] = 42
        child = ctx.fork(seed=2)
        assert child.arena is not ctx.arena
        assert child.arena.data[0] == 42
        assert child.arena.allocated == 4
        child.arena.data[0] = 7
        assert ctx.arena.data[0] == 42
        assert child.seed == 2


class TestSystemWiring:
    def test_factory_systems_share_context_arena(self):
        keys, values = _kv()
        for name in ("nocc", "stm", "lock", "eirene"):
            sys_ = make_system(name, keys, values, tree_config=TreeConfig(fanout=8))
            assert sys_.devctx.arena is sys_.tree.arena
            assert sys_.device is sys_.devctx.device

    def test_system_rejects_mismatched_context(self):
        from repro.baselines.nocc import NoCCGBTree

        keys, values = _kv()
        _, tree, _, _ = build_device_tree(keys, values, TreeConfig(fanout=8))
        foreign = DeviceContext(256)
        with pytest.raises(ConfigError):
            NoCCGBTree(tree, devctx=foreign)

    def test_launch_builds_kernel_launch_on_own_arena(self):
        from repro.simt import KernelLaunch

        keys, values = _kv()
        ctx, _, _, _ = build_device_tree(keys, values, TreeConfig(fanout=8))
        launch = ctx.launch(16)
        assert isinstance(launch, KernelLaunch)
        assert launch.arena is ctx.arena

    def test_snapshot_restore_around_a_batch(self):
        """A whole processed batch (tree mutations + counters) rolls back."""
        from repro import YcsbWorkload

        keys, values = _kv(512, seed=2)
        sys_ = make_system("eirene", keys, values, tree_config=TreeConfig(fanout=8))
        rng = np.random.default_rng(0)
        batch = YcsbWorkload(pool=keys).generate(256, rng)
        snap = sys_.devctx.snapshot()
        k0, v0 = sys_.tree.items()
        sys_.process_batch(batch)
        sys_.devctx.restore(snap)
        k1, v1 = sys_.tree.items()
        np.testing.assert_array_equal(k0, k1)
        np.testing.assert_array_equal(v0, v1)
