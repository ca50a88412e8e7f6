"""Simulated GPU global memory.

A :class:`MemoryArena` is a flat array of 64-bit words with a bump
allocator. Everything the simulated device can see — B+tree nodes, the STM
ownership table, latch words, request buffers — lives in one arena so that
word addresses are globally meaningful: the STM locks *addresses*, latches
are *words*, and the coalescing model groups *addresses* into segments.

Two access planes exist:

* **counted** accesses (:meth:`read`, :meth:`write`, :meth:`atomic_cas`, …)
  increment :class:`~repro.memory.stats.MemoryStats` and are what kernels
  use. Warp-granularity vector accesses (:meth:`read_gather`) additionally
  feed the coalescing model.
* **host** accesses (:meth:`host_view`, :attr:`data`) are free — they model
  CPU-side setup such as the initial bulk build, exactly as the paper
  excludes tree-construction cost from its measurements.
"""

from __future__ import annotations

import numpy as np

from .._types import WORD_DTYPE
from ..errors import MemoryError_
from .coalescing import segments_touched_array
from .stats import MemoryStats


class MemoryArena:
    """Flat, counted word-addressable memory with a bump allocator."""

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
        self._stats = MemoryStats()
        #: per-label access counts accumulated in a plain dict and folded
        #: into ``_stats.by_label`` only when :attr:`stats` is observed —
        #: one dict bump per counted access instead of a MemoryStats method
        #: call (measurable on kernels issuing millions of labelled
        #: accesses; totals are identical at every observation point).
        self._pending_labels: dict = {}

    # ------------------------------------------------------------------ #
    # allocation
    # ------------------------------------------------------------------ #
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

    def alloc_system(self, nwords: int) -> int:
        """Reserve ``nwords`` *system* words above the device heap.

        System allocations (sanitizer shadow memory) grow the backing array
        instead of consuming device capacity, so enabling analysis tooling
        never changes :meth:`alloc` exhaustion behaviour. Accesses to system
        addresses are excluded from the counted statistics — golden figures
        are identical with and without a sanitizer attached.

        Growing reallocates the backing array: long-lived views obtained via
        :meth:`host_view` before the call go stale (``self.data`` stays
        correct — it re-reads the current array). Attach sanitizers right
        after construction, before handing out views.
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

        Rewinds the bump pointer, zeroes the backing words, drops any system
        (sanitizer) allocations, and clears the access statistics — cheaper
        than reallocating a new arena when a caller (tests, shard re-use)
        wants a pristine device memory of the same capacity.
        """
        if self._data.size != self._user_capacity:
            self._data = np.zeros(self._user_capacity, dtype=WORD_DTYPE)
        else:
            self._data[:] = 0
        self._brk = 0
        self._pending_labels.clear()
        self._stats.reset()

    # ------------------------------------------------------------------ #
    # statistics (lazy per-label flush)
    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> MemoryStats:
        """Access counters; folds any pending per-label counts in first."""
        pending = self._pending_labels
        if pending:
            add_label = self._stats.add_label
            for label, count in pending.items():
                add_label(label, count)
            pending.clear()
        return self._stats

    @stats.setter
    def stats(self, value: MemoryStats) -> None:
        self._pending_labels.clear()
        self._stats = value

    # ------------------------------------------------------------------ #
    # counted scalar accesses
    # ------------------------------------------------------------------ #
    def _check(self, addr: int) -> None:
        if addr < 0 or addr >= self._data.size:
            raise MemoryError_(f"address {addr} out of bounds [0, {self._data.size})")

    def read(self, addr: int, label: str | None = None) -> int:
        """Counted scalar load."""
        self._check(addr)
        if addr < self._user_capacity:
            stats = self._stats
            stats.reads += 1
            stats.read_words += 1
            stats.transactions += 1
            if label:
                pending = self._pending_labels
                pending[label] = pending.get(label, 0) + 1
        return int(self._data[addr])

    def write(self, addr: int, value: int, label: str | None = None) -> None:
        """Counted scalar store."""
        self._check(addr)
        if addr < self._user_capacity:
            stats = self._stats
            stats.writes += 1
            stats.write_words += 1
            stats.transactions += 1
            if label:
                pending = self._pending_labels
                pending[label] = pending.get(label, 0) + 1
        self._data[addr] = value

    # ------------------------------------------------------------------ #
    # counted atomics (sequential simulator => naturally atomic)
    # ------------------------------------------------------------------ #
    def atomic_cas(self, addr: int, expected: int, desired: int) -> int:
        """Compare-and-swap; returns the *old* value (CUDA ``atomicCAS``)."""
        self._check(addr)
        old = int(self._data[addr])
        if addr < self._user_capacity:
            stats = self._stats
            stats.atomics += 1
            stats.transactions += 1
            if old != expected:
                stats.atomic_conflicts += 1
        if old == expected:
            self._data[addr] = desired
        return old

    def atomic_add(self, addr: int, delta: int) -> int:
        """Atomic fetch-and-add; returns the old value."""
        self._check(addr)
        old = int(self._data[addr])
        if addr < self._user_capacity:
            stats = self._stats
            stats.atomics += 1
            stats.transactions += 1
        self._data[addr] = old + delta
        return old

    def atomic_exch(self, addr: int, value: int) -> int:
        """Atomic exchange; returns the old value."""
        self._check(addr)
        old = int(self._data[addr])
        if addr < self._user_capacity:
            stats = self._stats
            stats.atomics += 1
            stats.transactions += 1
        self._data[addr] = value
        return old

    # ------------------------------------------------------------------ #
    # counted warp-granularity (vector) accesses
    # ------------------------------------------------------------------ #
    def read_gather(self, addrs: np.ndarray, label: str | None = None) -> np.ndarray:
        """One warp load: gather ``addrs`` (per active lane) in one instruction.

        Counts one memory instruction, ``len(addrs)`` words, and as many
        transactions as distinct segments touched (the coalescing model).
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        if addrs.size and (addrs.min() < 0 or addrs.max() >= self._data.size):
            raise MemoryError_("gather address out of bounds")
        if addrs.size and int(addrs.min()) < self._user_capacity:
            stats = self._stats
            stats.reads += 1
            stats.read_words += int(addrs.size)
            stats.transactions += segments_touched_array(addrs, self.words_per_segment)
            if label:
                pending = self._pending_labels
                pending[label] = pending.get(label, 0) + 1
        return self._data[addrs]

    def write_scatter(
        self, addrs: np.ndarray, values: np.ndarray, label: str | None = None
    ) -> None:
        """One warp store: scatter ``values`` to ``addrs``."""
        addrs = np.asarray(addrs, dtype=np.int64)
        if addrs.size and (addrs.min() < 0 or addrs.max() >= self._data.size):
            raise MemoryError_("scatter address out of bounds")
        if addrs.size and int(addrs.min()) < self._user_capacity:
            stats = self._stats
            stats.writes += 1
            stats.write_words += int(addrs.size)
            stats.transactions += segments_touched_array(addrs, self.words_per_segment)
            if label:
                pending = self._pending_labels
                pending[label] = pending.get(label, 0) + 1
        self._data[addrs] = values

    # ------------------------------------------------------------------ #
    # host (uncounted) plane
    # ------------------------------------------------------------------ #
    @property
    def data(self) -> np.ndarray:
        """Raw backing array. Host-side only; accesses are not counted."""
        return self._data

    def host_view(self, base: int, nwords: int) -> np.ndarray:
        """Uncounted mutable view of ``[base, base + nwords)``."""
        if base < 0 or base + nwords > self._data.size:
            raise MemoryError_(f"host view [{base}, {base + nwords}) out of bounds")
        return self._data[base : base + nwords]
