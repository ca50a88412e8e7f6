"""Unit tests for the simulated global memory (words + bump allocator)."""

import pytest

from repro.errors import MemoryError_
from repro.memory import MemoryArena


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
        arena.data[base] = 42
        arena.reset()
        assert arena.allocated == 0
        assert arena.data[base] == 0
        # the freed region is allocatable again, from the start
        assert arena.alloc(8) == 0

    def test_reset_preserves_identity_and_capacity(self):
        arena = MemoryArena(64)
        data = arena.data
        arena.reset()
        assert arena.data is data
        assert arena.capacity == 64
