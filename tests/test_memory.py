"""Unit tests for the simulated global memory (arena, stats, coalescing)."""

import numpy as np
import pytest

from repro.errors import MemoryError_
from repro.memory import (
    MemoryArena,
    MemoryStats,
    coalescing_efficiency,
    segments_touched,
    segments_touched_array,
)


class TestAllocation:
    def test_bump_allocation_is_contiguous(self, arena):
        a = arena.alloc(10)
        b = arena.alloc(5)
        assert b == a + 10

    def test_alignment_rounds_up(self):
        arena = MemoryArena(256)
        arena.alloc(3)
        base = arena.alloc(16, align=16)
        assert base % 16 == 0

    def test_exhaustion_raises(self):
        arena = MemoryArena(16)
        arena.alloc(10)
        with pytest.raises(MemoryError_):
            arena.alloc(10)

    def test_exhaustion_reports_allocated_and_capacity(self):
        arena = MemoryArena(16)
        arena.alloc(10)
        with pytest.raises(MemoryError_, match=r"10 of 16 words"):
            arena.alloc(10)

    def test_negative_alloc_raises(self, arena):
        with pytest.raises(MemoryError_):
            arena.alloc(-1)

    @pytest.mark.parametrize("align", [0, -1, -16])
    def test_invalid_align_rejected(self, arena, align):
        with pytest.raises(MemoryError_, match="align"):
            arena.alloc(4, align=align)

    def test_zero_capacity_rejected(self):
        with pytest.raises(MemoryError_):
            MemoryArena(0)

    def test_zero_words_per_segment_rejected(self):
        with pytest.raises(MemoryError_, match="words_per_segment"):
            MemoryArena(64, words_per_segment=0)


class TestReset:
    def test_reset_rewinds_brk_and_zeroes_data(self):
        arena = MemoryArena(64)
        base = arena.alloc(8)
        arena.write(base, 42)
        arena.reset()
        assert arena.allocated == 0
        assert arena.read(base) == 0
        # the freed region is allocatable again, from the start
        assert arena.alloc(8) == 0

    def test_reset_clears_stats_and_restores_counting(self):
        """reset() clears the access statistics (counting is always on)."""
        arena = MemoryArena(64)
        arena.read(0, label="x")
        arena.reset()
        assert arena.stats.accesses == 0
        assert arena.stats.by_label == {}

    def test_reset_preserves_identity_and_capacity(self):
        arena = MemoryArena(64)
        data = arena.data
        arena.reset()
        assert arena.data is data
        assert arena.capacity == 64


class TestScalarAccess:
    def test_write_then_read_roundtrip(self, arena):
        arena.write(7, 12345)
        assert arena.read(7) == 12345

    def test_counters_track_reads_and_writes(self, arena):
        arena.write(0, 1)
        arena.read(0)
        arena.read(0)
        assert arena.stats.writes == 1
        assert arena.stats.reads == 2
        assert arena.stats.accesses == 3

    def test_out_of_bounds_read_raises(self, arena):
        with pytest.raises(MemoryError_):
            arena.read(arena.capacity)
        with pytest.raises(MemoryError_):
            arena.read(-1)

    def test_labels_accumulate(self, arena):
        arena.read(0, label="traversal")
        arena.read(1, label="traversal")
        arena.read(2, label="lock")
        assert arena.stats.by_label == {"traversal": 2, "lock": 1}


class TestAtomics:
    def test_cas_success_swaps_and_returns_old(self, arena):
        arena.write(3, 10)
        old = arena.atomic_cas(3, 10, 99)
        assert old == 10
        assert arena.read(3) == 99

    def test_cas_failure_leaves_value_and_counts_conflict(self, arena):
        arena.write(3, 10)
        old = arena.atomic_cas(3, 11, 99)
        assert old == 10
        assert arena.read(3) == 10
        assert arena.stats.atomic_conflicts == 1

    def test_atomic_add_returns_old(self, arena):
        arena.write(4, 7)
        assert arena.atomic_add(4, 3) == 7
        assert arena.read(4) == 10

    def test_atomic_exch(self, arena):
        arena.write(5, 1)
        assert arena.atomic_exch(5, 2) == 1
        assert arena.read(5) == 2

    def test_atomics_count_as_transactions(self, arena):
        arena.atomic_add(0, 1)
        arena.atomic_cas(1, 0, 1)
        assert arena.stats.atomics == 2
        assert arena.stats.transactions == 2


class TestVectorAccess:
    def test_gather_returns_values(self, arena):
        for i in range(8):
            arena.data[i] = i * 10
        vals = arena.read_gather(np.arange(8))
        assert np.array_equal(vals, np.arange(8) * 10)

    def test_gather_counts_one_instruction(self, arena):
        arena.read_gather(np.arange(32))
        assert arena.stats.reads == 1
        assert arena.stats.read_words == 32

    def test_gather_coalescing_contiguous(self, arena):
        arena.read_gather(np.arange(16))  # one 16-word segment
        assert arena.stats.transactions == 1

    def test_gather_coalescing_scattered(self, arena):
        arena.read_gather(np.arange(0, 16 * 8, 16))  # 8 distinct segments
        assert arena.stats.transactions == 8

    def test_scatter_roundtrip(self, arena):
        arena.write_scatter(np.array([1, 3, 5]), np.array([10, 30, 50]))
        assert arena.read(3) == 30

    def test_gather_bounds_check(self, arena):
        with pytest.raises(MemoryError_):
            arena.read_gather(np.array([arena.capacity]))


class TestHostPlane:
    def test_host_view_is_mutable_and_uncounted(self, arena):
        view = arena.host_view(0, 4)
        view[:] = 9
        assert arena.read(0) == 9
        assert arena.stats.writes == 0

    def test_host_view_bounds(self, arena):
        with pytest.raises(MemoryError_):
            arena.host_view(arena.capacity - 1, 2)


class TestStats:
    def test_snapshot_is_independent(self):
        s = MemoryStats(reads=5)
        snap = s.snapshot()
        s.reads = 10
        assert snap.reads == 5

    def test_delta_since(self):
        s = MemoryStats(reads=5, writes=2)
        snap = s.snapshot()
        s.reads = 9
        s.writes = 4
        d = s.delta_since(snap)
        assert d.reads == 4
        assert d.writes == 2

    def test_merge_accumulates(self):
        a = MemoryStats(reads=1, transactions=2)
        b = MemoryStats(reads=3, transactions=4)
        a.merge(b)
        assert a.reads == 4
        assert a.transactions == 6

    def test_reset(self):
        s = MemoryStats(reads=5)
        s.add_label("x")
        s.reset()
        assert s.reads == 0
        assert s.by_label == {}


class TestCoalescing:
    def test_single_segment(self):
        assert segments_touched([0, 1, 15], 16) == 1

    def test_two_segments(self):
        assert segments_touched([0, 16], 16) == 2

    def test_empty(self):
        assert segments_touched([], 16) == 0

    def test_array_variant_matches(self):
        addrs = np.array([0, 5, 17, 33, 34])
        assert segments_touched_array(addrs, 16) == segments_touched(list(addrs), 16)

    def test_efficiency_perfect(self):
        assert coalescing_efficiency(np.arange(16), 16) == pytest.approx(1.0)

    def test_efficiency_worst_case(self):
        # one word per segment: 1/16 of each transaction is useful
        addrs = np.arange(0, 16 * 4, 16)
        assert coalescing_efficiency(addrs, 16) == pytest.approx(1 / 16)

    def test_efficiency_empty(self):
        assert coalescing_efficiency(np.zeros(0, dtype=np.int64), 16) == 0.0
