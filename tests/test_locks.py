"""Unit tests for the latch table (device plane + counters)."""

import pytest

from repro.config import DeviceConfig
from repro.locks import FREE, LatchTable, LockStats
from repro.memory import MemoryArena
from repro.simt import KernelLaunch
from repro.simt.warp import run_subroutine


@pytest.fixture
def table():
    arena = MemoryArena(64)
    arena.alloc(8)
    return LatchTable(), arena


class TestDevicePlane:
    def test_d_acquire_on_free_latch(self, table):
        latches, arena = table
        spins = run_subroutine(latches.d_acquire(0, owner=7), arena)
        assert spins == 0
        assert arena.data[0] == 8

    def test_d_release(self, table):
        latches, arena = table
        run_subroutine(latches.d_acquire(0, owner=7), arena)
        run_subroutine(latches.d_release(0), arena)
        assert arena.data[0] == FREE

    def test_d_is_locked(self, table):
        latches, arena = table
        assert not run_subroutine(latches.d_is_locked(0), arena)
        run_subroutine(latches.d_acquire(0, owner=1), arena)
        assert run_subroutine(latches.d_is_locked(0), arena)

    def test_two_lanes_contend_and_both_eventually_acquire(self, table):
        latches, arena = table
        order = []

        def prog(lane):
            def p():
                spins = yield from latches.d_acquire(0, owner=lane)
                # hold for a few slots to force the other lane to spin
                from repro.simt import Alu

                for _ in range(5):
                    yield Alu()
                yield from latches.d_release(0)
                order.append((lane, spins))
                return None

            return p()

        launch = KernelLaunch(DeviceConfig(num_sms=1), arena, 2)
        launch.add_warp([prog(0), prog(1)])
        launch.run()
        assert len(order) == 2
        assert arena.data[0] == FREE
        assert latches.stats.spins >= 1  # the loser really spun


class TestStats:
    def test_contention_rate(self):
        s = LockStats(acquires=10, spins=5)
        assert s.contention_rate == 0.5

    def test_delta_since(self):
        s = LockStats(acquires=4, releases=4, spins=2)
        snap = s.snapshot()
        s.acquires = 7
        s.spins = 5
        d = s.delta_since(snap)
        assert d.acquires == 3
        assert d.spins == 3

    def test_reset(self):
        s = LockStats(acquires=1, releases=1, spins=1)
        s.reset()
        assert s.acquires == s.releases == s.spins == 0
