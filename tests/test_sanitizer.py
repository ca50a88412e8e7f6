"""Race-detector suite: seeded races, protected pairs, system property.

The seeded tests drive hand-written thread programs through a real
:class:`~repro.simt.KernelLaunch` with a :class:`~repro.analysis.Sanitizer`
probe and assert the *exact* contents of the resulting
:class:`~repro.analysis.RaceReport`s; the property test runs all four
systems on update-heavy YCSB-A and checks the headline claim — NoCC races,
Lock/STM/Eirene do not.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.conftest import make_test_system
from repro import DeviceConfig
from repro.analysis import Sanitizer, attach_sanitizer
from repro.device import DeviceContext
from repro.memory import MemoryArena
from repro.simt import AtomicCAS, Branch, KernelLaunch, Load, Store
from repro.stm import StmRegion
from repro.workloads import YcsbWorkload
from repro.workloads.ycsb import YCSB_A


def launch_with(arena, san, warps, num_sms: int = 1):
    """Run explicit warps (lists of programs) under a sanitizer probe."""
    dev = DeviceConfig(num_sms=num_sms)
    kl = KernelLaunch(dev, arena, n_requests=1, probe=san)
    for programs in warps:
        kl.add_warp(programs)
    return kl.run()


# --------------------------------------------------------------------- #
# seeded races
# --------------------------------------------------------------------- #
def test_unlocked_ww_cross_warp():
    arena = MemoryArena(64)
    addr = arena.alloc(1)
    san = Sanitizer(arena)

    def writer(value):
        yield Store(addr, value)

    launch_with(arena, san, [[writer(1)], [writer(2)]])
    assert len(san.reports) == 1
    r = san.reports[0]
    assert r.kind == "W/W"
    assert r.addr == addr
    assert r.location == f"word {addr}"
    assert not r.same_slot
    assert (r.first.warp, r.second.warp) == (0, 1)
    assert r.first.op == r.second.op == "Store"
    assert r.first.kind == r.second.kind == "W"
    assert r.first.program.endswith("writer")
    assert r.second.program.endswith("writer")
    assert r.first.guards == frozenset() and r.second.guards == frozenset()


def test_intra_warp_same_slot_conflict():
    arena = MemoryArena(64)
    addr = arena.alloc(1)
    san = Sanitizer(arena)

    def writer(value):
        yield Store(addr, value)

    # two lanes of ONE warp store the same word in the same lockstep slot
    launch_with(arena, san, [[writer(1), writer(2)]])
    assert len(san.reports) == 1
    r = san.reports[0]
    assert r.kind == "W/W"
    assert r.same_slot
    assert r.first.warp == r.second.warp == 0
    assert (r.first.lane, r.second.lane) == (0, 1)
    assert r.first.slot == r.second.slot


def test_unsynchronized_rw_is_flagged_both_orders():
    arena = MemoryArena(64)
    addr = arena.alloc(1)
    san = Sanitizer(arena)

    def reader():
        v = yield Load(addr)
        yield Branch()
        return v

    def writer():
        yield Store(addr, 9)

    # write first, read second (and, in a fresh launch, the reverse)
    launch_with(arena, san, [[writer()], [reader()]])
    assert [r.kind for r in san.reports] == ["R/W"]
    first = san.reports[0]
    assert first.first.op == "Store" and first.second.op == "Load"

    san2 = Sanitizer(arena)
    launch_with(arena, san2, [[reader()], [writer()]])
    assert [r.kind for r in san2.reports] == ["R/W"]


def test_lock_protected_pair_is_clean():
    arena = MemoryArena(64)
    lock = arena.alloc(1)
    addr = arena.alloc(1)
    san = Sanitizer(arena)
    san.add_lock_word(lock, "test latch")

    def locked_writer(owner, value):
        while True:
            old = yield AtomicCAS(lock, 0, owner + 1)
            yield Branch()
            if old == 0:
                break
        yield Store(addr, value)
        yield Store(lock, 0)

    launch_with(arena, san, [[locked_writer(0, 1)], [locked_writer(1, 2)]])
    assert san.reports == []


def test_lock_vs_unlocked_writer_races():
    arena = MemoryArena(64)
    lock = arena.alloc(1)
    addr = arena.alloc(1)
    san = Sanitizer(arena)
    san.add_lock_word(lock, "test latch")

    def locked_writer(owner, value):
        old = yield AtomicCAS(lock, 0, owner + 1)
        yield Branch()
        assert old == 0
        yield Store(addr, value)
        yield Store(lock, 0)

    def rogue(value):
        yield Store(addr, value)

    launch_with(arena, san, [[locked_writer(0, 1)], [rogue(2)]])
    assert [r.kind for r in san.reports] == ["W/W"]
    # guard sets must be disjoint: one side held the latch, the other none
    r = san.reports[0]
    assert {r.first.guards, r.second.guards} == {
        frozenset(), frozenset({("lock", lock)})
    }


def test_stm_protected_pair_is_clean():
    arena = MemoryArena(256)
    data = arena.alloc(8)
    region = StmRegion(arena, data, 8)
    san = Sanitizer(arena)
    san.watch_stm_region(region)
    w = data + 3

    def tx_writer(tid, value):
        while True:
            old = yield AtomicCAS(region.owner_addr(w), 0, tid + 1)
            yield Branch()
            if old == 0:
                break
        yield Store(w, value)
        yield Store(region.owner_addr(w), 0)

    launch_with(arena, san, [[tx_writer(0, 1)], [tx_writer(1, 2)]])
    assert san.reports == []


def test_stm_invisible_reader_exemption():
    """Reads racing a *synchronized* (STM-owned) write are protocol-safe;
    reads racing a raw write are not."""
    arena = MemoryArena(256)
    data = arena.alloc(8)
    region = StmRegion(arena, data, 8)
    w = data + 1

    def reader():
        v = yield Load(w)
        yield Branch()
        return v

    def tx_writer(tid):
        old = yield AtomicCAS(region.owner_addr(w), 0, tid + 1)
        yield Branch()
        assert old == 0
        yield Store(w, 7)
        yield Store(region.owner_addr(w), 0)

    san = Sanitizer(arena)
    san.watch_stm_region(region)
    launch_with(arena, san, [[tx_writer(0)], [reader()]])
    assert san.reports == []

    def raw_writer():
        yield Store(w, 8)

    san2 = Sanitizer(arena)
    san2.watch_stm_region(region)
    launch_with(arena, san2, [[raw_writer()], [reader()]])
    assert [r.kind for r in san2.reports] == ["R/W"]


def test_launches_are_epochs():
    """A write in one launch never races an access in the next (kernel
    boundaries are global barriers)."""
    arena = MemoryArena(64)
    addr = arena.alloc(1)
    san = Sanitizer(arena)

    def writer(value):
        yield Store(addr, value)

    launch_with(arena, san, [[writer(1)]])
    launch_with(arena, san, [[writer(2)]])
    assert san.reports == []


def test_node_field_naming(rng):
    """Reports name node/field via the FIELDS table, not raw words."""
    sys_, _ = make_test_system("nocc", rng, tree_size=2**8)
    san = attach_sanitizer(sys_)
    tree = sys_.tree
    leaf = tree.find_leaf(int(tree.arena.data[tree.layout.key_addr(0, 0)]))[0]
    a = tree.views.addrs(leaf)

    def writer(value):
        yield Store(a.keys[0], value)

    launch = sys_.devctx.launch(1)
    launch.add_warp([writer(1)])
    launch.add_warp([writer(2)])
    launch.run()
    assert len(san.reports) == 1
    assert san.reports[0].location == f"node {leaf} keys[0]"


# --------------------------------------------------------------------- #
# the systems property (acceptance criterion)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ["nocc", "stm", "lock", "eirene"])
def test_ycsb_a_race_property(name, rng):
    sys_, keys = make_test_system(name, rng)
    san = attach_sanitizer(sys_)
    wl = YcsbWorkload(pool=keys, mix=YCSB_A)
    batch = wl.generate(512, rng)
    sys_.process_batch(batch, engine="simt")
    sys_.tree.validate()
    if name == "nocc":
        assert san.race_count >= 1
        assert any(r.kind == "W/W" for r in san.reports)
    else:
        assert san.reports == []


def test_sanitizer_does_not_change_results(rng):
    """Attaching the probe must not perturb execution or kernel counters."""
    outs = []
    for attach in (False, True):
        r = np.random.default_rng(11)
        sys_, keys = make_test_system("lock", r)
        if attach:
            attach_sanitizer(sys_)
        wl = YcsbWorkload(pool=keys, mix=YCSB_A)
        batch = wl.generate(256, r)
        out = sys_.process_batch(batch, engine="simt")
        outs.append(
            (
                list(out.results.values),
                out.mem_inst,
                out.transactions,
            )
        )
    assert outs[0] == outs[1]


# --------------------------------------------------------------------- #
# satellite: per-kind access counters
# --------------------------------------------------------------------- #
def test_kernel_counters_split_by_access_kind():
    arena = MemoryArena(64)
    addr = arena.alloc(2)

    def prog():
        v = yield Load(addr)
        yield Branch()
        yield Store(addr + 1, v)
        old = yield AtomicCAS(addr, 0, 5)
        yield Branch()
        return old

    kl = KernelLaunch(DeviceConfig(num_sms=1), arena, n_requests=1)
    kl.add_warp([prog()])
    kc = kl.run()
    assert kc.load_inst == 1
    assert kc.store_inst == 1
    assert kc.atomic_transactions == 1
    assert kc.load_inst + kc.store_inst == kc.mem_inst
    assert kc.atomic_transactions == kc.atomic_inst


def test_system_run_counters_have_kind_split(rng):
    """A real latched SIMT batch records atomics distinctly from stores."""
    sys_, keys = make_test_system("lock", rng)
    wl = YcsbWorkload(pool=keys, mix=YCSB_A)
    batch = wl.generate(256, rng)
    out = sys_.process_batch(batch, engine="simt")
    kc = out.counters
    assert kc is not None
    assert kc.atomic_transactions > 0  # latch CAS traffic
    assert kc.atomic_transactions == kc.atomic_inst
    assert kc.store_inst > 0 and kc.load_inst > 0
    assert kc.load_inst + kc.store_inst == kc.mem_inst


def test_counters_merge_preserves_kind_split():
    from repro.simt.counters import KernelCounters

    a = KernelCounters(n_requests=4)
    b = KernelCounters(n_requests=4)
    a.load_inst, a.store_inst, a.atomic_transactions = 3, 2, 1
    a.mem_inst = 5
    b.load_inst, b.store_inst, b.atomic_transactions = 7, 1, 4
    b.mem_inst = 8
    m = a.merge(b)
    assert (m.load_inst, m.store_inst, m.atomic_transactions) == (10, 3, 5)
    assert m.load_inst + m.store_inst == m.mem_inst


# --------------------------------------------------------------------- #
# satellite: system (shadow) allocations never perturb device accounting
# --------------------------------------------------------------------- #
def test_alloc_system_outside_device_heap():
    arena = MemoryArena(128)
    base = arena.alloc_system(128)
    assert base == 128  # above the device heap
    assert arena.capacity == 128  # device-visible capacity unchanged
    assert arena.total_words == 256
    assert arena.system_words == 128
    # exhaustion accounting unchanged: the heap still holds exactly 128
    arena.alloc(128)
    with pytest.raises(Exception):
        arena.alloc(1)


def test_snapshot_restore_with_sanitizer_attached(rng):
    sys_, keys = make_test_system("stm", rng, tree_size=2**8)
    ctx: DeviceContext = sys_.devctx
    snap = ctx.snapshot()
    attach_sanitizer(sys_)  # grows the arena with shadow words
    assert snap.data.size == ctx.arena.capacity
    ctx.restore(snap)  # restores the device heap, ignores shadow
    snap2 = ctx.snapshot()
    assert snap2.data.size == ctx.arena.capacity
    twin = ctx.fork()
    assert twin.arena.capacity == ctx.arena.capacity
    assert np.array_equal(twin.arena.data, ctx.arena.data[: ctx.arena.capacity])


def test_arena_reset_drops_system_words():
    arena = MemoryArena(64)
    arena.alloc_system(32)
    assert arena.total_words == 96
    arena.reset()
    assert arena.total_words == 64
    assert arena.system_words == 0
