"""Unit + property tests for the STM protocol (device plane)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TransactionAborted, TransactionError
from repro.memory import MemoryArena
from repro.simt import KernelLaunch
from repro.simt.warp import run_subroutine
from repro.stm import FREE, DeviceStm, StmRegion
from repro.config import DeviceConfig


def _stm(words: int = 64, capacity: int = 2048):
    arena = MemoryArena(capacity)
    base = arena.alloc(words)
    return arena, base, DeviceStm(arena, StmRegion(arena, base, words))


class TestSerializabilityProperty:
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(1, 50)), min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_sequential_transactions_apply_all_writes(self, writes):
        arena, base, stm = _stm(words=8, capacity=256)
        model = [0] * 8
        for off, val in writes:
            tx = stm.begin()
            run_subroutine(stm.d_write(tx, base + off, val), arena)
            run_subroutine(stm.d_commit(tx), arena)
            model[off] = val
        assert [int(arena.data[base + i]) for i in range(8)] == model
        assert stm.stats.aborts == 0


class TestDeviceStm:
    """Each ``d_*`` call is one generator driven to completion, so two
    transactions interleave at operation granularity."""

    def test_ww_conflict_aborts_second_writer(self):
        arena, base, stm = _stm()
        t1, t2 = stm.begin(), stm.begin()
        run_subroutine(stm.d_write(t1, base, 1), arena)
        with pytest.raises(TransactionAborted):
            run_subroutine(stm.d_write(t2, base, 2), arena)
        assert stm.stats.conflicts_ww == 1
        assert stm.stats.aborts == 1
        run_subroutine(stm.d_commit(t1), arena)
        assert arena.data[base] == 1

    def test_read_of_owned_word_aborts_reader(self):
        arena, base, stm = _stm()
        t1, t2 = stm.begin(), stm.begin()
        run_subroutine(stm.d_write(t1, base, 1), arena)
        with pytest.raises(TransactionAborted):
            run_subroutine(stm.d_read(t2, base), arena)
        assert stm.stats.conflicts_rw == 1

    def test_commit_validation_catches_stale_read(self):
        arena, base, stm = _stm()
        t1 = stm.begin()
        assert run_subroutine(stm.d_read(t1, base), arena) == 0
        # another tx writes and commits in between
        t2 = stm.begin()
        run_subroutine(stm.d_write(t2, base, 5), arena)
        run_subroutine(stm.d_commit(t2), arena)
        with pytest.raises(TransactionAborted):
            run_subroutine(stm.d_commit(t1), arena)
        assert stm.stats.conflicts_validation == 1

    def test_read_own_write(self):
        arena, base, stm = _stm()
        tx = stm.begin()
        run_subroutine(stm.d_write(tx, base, 11), arena)
        assert run_subroutine(stm.d_read(tx, base), arena) == 11
        run_subroutine(stm.d_commit(tx), arena)
        assert stm.stats.commits == 1

    def test_ownership_released_after_commit(self):
        arena, base, stm = _stm()
        tx = stm.begin()
        run_subroutine(stm.d_write(tx, base, 1), arena)
        assert arena.data[stm.region.owner_addr(base)] != FREE
        run_subroutine(stm.d_commit(tx), arena)
        assert arena.data[stm.region.owner_addr(base)] == FREE

    def test_address_outside_region_rejected(self):
        arena, base, stm = _stm()
        tx = stm.begin()
        with pytest.raises(TransactionError):
            run_subroutine(stm.d_read(tx, base + 1000), arena)

    def test_single_tx_commit(self):
        arena, base, stm = _stm()

        def prog():
            tx = stm.begin()
            yield from stm.d_write(tx, base, 33)
            yield from stm.d_commit(tx)
            return None

        run_subroutine(prog(), arena)
        assert arena.data[base] == 33
        assert stm.stats.commits == 1

    def test_two_lanes_same_word_serialize(self):
        arena, base, stm = _stm()
        device = DeviceConfig(num_sms=1)
        outcomes = []

        def prog(lane):
            def p():
                retries = 0
                while True:
                    tx = stm.begin()
                    try:
                        v = yield from stm.d_read(tx, base)
                        yield from stm.d_write(tx, base, v + 1)
                        yield from stm.d_commit(tx)
                        outcomes.append(lane)
                        return None
                    except TransactionAborted:
                        retries += 1
                        if retries > 100:
                            raise
            return p()

        launch = KernelLaunch(device, arena, 2)
        launch.add_warp([prog(0), prog(1)])
        launch.run()
        # both increments landed exactly once
        assert arena.data[base] == 2
        assert len(outcomes) == 2
        assert stm.stats.commits == 2
        assert stm.stats.aborts >= 1  # they genuinely conflicted

    def test_device_abort_rolls_back(self):
        arena, base, stm = _stm()
        arena.data[base] = 5

        def prog():
            tx = stm.begin()
            yield from stm.d_write(tx, base, 9)
            yield from stm.d_abort(tx)
            return None

        run_subroutine(prog(), arena)
        assert arena.data[base] == 5
        assert stm.stats.aborts == 1

    def test_host_invalidate_fails_concurrent_validation(self):
        arena, base, stm = _stm()

        def prog():
            tx = stm.begin()
            yield from stm.d_read(tx, base)
            stm.host_invalidate([base])  # concurrent SMO bumps the version
            try:
                yield from stm.d_commit(tx)
            except TransactionAborted:
                return "aborted"
            return "committed"

        assert run_subroutine(prog(), arena) == "aborted"
        assert stm.stats.conflicts_validation == 1
