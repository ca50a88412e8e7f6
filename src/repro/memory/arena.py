"""Simulated GPU global memory.

A :class:`MemoryArena` is a flat array of 64-bit words with a bump
allocator. Everything the simulated device can see — B+tree nodes, the STM
ownership table, latch words, request buffers — lives in one arena so that
word addresses are globally meaningful: the STM locks *addresses*, latches
are *words*, and the coalescing model groups *addresses* into segments.

The arena is only words plus an allocator; it has no accessor API and
counts nothing. Device code touches memory through yielded
:mod:`~repro.simt.instructions` ops, which the SIMT interpreters execute
against :attr:`MemoryArena.data` and charge to
:class:`~repro.simt.counters.KernelCounters`; the vector engine charges its
cost model instead. Host code (bulk build, splits, the sequential
reference) reads and writes :attr:`MemoryArena.data` directly and is free,
exactly as the paper excludes tree-construction cost from its measurements.
"""

from __future__ import annotations

import numpy as np

from .._types import WORD_DTYPE
from ..errors import MemoryError_


class MemoryArena:
    """Flat word-addressable memory with a bump allocator."""

    def __init__(self, capacity_words: int, words_per_segment: int = 16) -> None:
        if capacity_words <= 0:
            raise MemoryError_(f"arena capacity must be positive, got {capacity_words}")
        if words_per_segment <= 0:
            raise MemoryError_(
                f"words_per_segment must be positive, got {words_per_segment}"
            )
        self._data = np.zeros(capacity_words, dtype=WORD_DTYPE)
        self._brk = 0
        #: words visible to device code; system allocations live above this
        self._user_capacity = capacity_words
        self.words_per_segment = words_per_segment

    @property
    def data(self) -> np.ndarray:
        """The backing words, system allocations included."""
        return self._data

    @property
    def capacity(self) -> int:
        """Device-visible capacity; system (sanitizer) words are excluded."""
        return self._user_capacity

    @property
    def total_words(self) -> int:
        """Backing-array size including system allocations."""
        return int(self._data.size)

    @property
    def system_words(self) -> int:
        """Words reserved by :meth:`alloc_system` (shadow memory etc.)."""
        return int(self._data.size) - self._user_capacity

    @property
    def allocated(self) -> int:
        return self._brk

    def alloc(self, nwords: int, align: int = 1) -> int:
        """Reserve ``nwords`` words; return the base address.

        ``align`` rounds the base up to a multiple (e.g. segment-align node
        blocks so a node never straddles more segments than necessary).
        """
        if nwords < 0:
            raise MemoryError_(f"cannot allocate {nwords} words")
        if align < 1:
            raise MemoryError_(f"alloc align must be >= 1, got {align}")
        base = self._brk
        if align > 1:
            base = (base + align - 1) // align * align
        if base + nwords > self._user_capacity:
            raise MemoryError_(
                f"arena exhausted: need {nwords} words at {base} "
                f"({self.allocated} of {self.capacity} words already allocated)"
            )
        self._brk = base + nwords
        return base

    def insert(self, at: int, nwords: int) -> None:
        """Open ``nwords`` zero words at address ``at`` (at most the bump
        pointer): every word at or above ``at`` moves ``nwords`` up, and the
        capacity and the bump pointer grow by as much. The caller rebases
        whatever addresses it holds above ``at``; an arena holding system
        words (their owners keep addresses too) cannot grow."""
        if nwords < 0 or not 0 <= at <= self._brk:
            raise MemoryError_(f"cannot insert {nwords} words at {at}")
        if self.system_words:
            raise MemoryError_("cannot grow an arena that holds system words")
        data = self._data
        self._data = np.concatenate(
            [data[:at], np.zeros(nwords, dtype=WORD_DTYPE), data[at:]]
        )
        self._user_capacity += nwords
        self._brk += nwords

    def alloc_system(self, nwords: int) -> int:
        """Reserve ``nwords`` *system* words above the device heap.

        System allocations (sanitizer shadow memory) grow the backing array
        instead of consuming device capacity, so enabling analysis tooling
        never changes :meth:`alloc` exhaustion behaviour.

        Growing reallocates the backing array: numpy views sliced from
        :attr:`data` before the call go stale (``self.data`` stays correct —
        it re-reads the current array). Attach sanitizers right after
        construction, before handing out views.
        """
        if nwords < 0:
            raise MemoryError_(f"cannot allocate {nwords} system words")
        base = int(self._data.size)
        self._data = np.concatenate(
            [self._data, np.zeros(nwords, dtype=WORD_DTYPE)]
        )
        return base

    def reset(self) -> None:
        """Return the arena to its freshly-constructed state.

        Rewinds the bump pointer, zeroes the backing words and drops any
        system (sanitizer) allocations — cheaper than reallocating a new
        arena when a caller (tests, shard re-use) wants a pristine device
        memory of the same capacity.
        """
        if self._data.size != self._user_capacity:
            self._data = np.zeros(self._user_capacity, dtype=WORD_DTYPE)
        else:
            self._data[:] = 0
        self._brk = 0
