"""Word-granularity eager software transactional memory: shared state.

Models the lightweight GPU STM of Holey & Zhai (ICPP'14) that both the STM
GB-tree baseline and Eirene's update kernel build on:

* **eager write acquisition** — a transactional write CAS-acquires the
  word's entry in an *ownership table*; failure to acquire is a write-write
  conflict that aborts the requester immediately (eager conflict detection);
* **in-place update with undo log** — acquired words are written directly;
  an abort rolls the old values back;
* **invisible readers with commit-time validation** — a transactional read
  aborts if the word is owned by another transaction (eager read-write
  detection) and records the word's version; commit re-validates all read
  versions, then bumps versions of written words and releases ownership.

The ownership and version tables live *inside the simulated global memory*
(one word each per protected word), so STM metadata traffic is counted by
the same machinery as data traffic — this is exactly where the paper's
"2.98× memory accesses" for STM GB-tree comes from.

This module holds the per-transaction bookkeeping (:class:`Tx`) and the
metadata-table address arithmetic (:class:`StmRegion`); the protocol itself
is :class:`~repro.stm.device.DeviceStm`, SIMT thread-program code whose
every access is a yielded op.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import TransactionError
from ..memory import MemoryArena

#: ownership-table encoding: 0 = free, otherwise tx id + 1.
FREE = 0


@dataclass
class Tx:
    """Per-transaction bookkeeping (lives in registers/local memory, i.e.
    uncounted; the counted traffic is the table and data accesses)."""

    tid: int
    read_versions: dict[int, int] = field(default_factory=dict)
    undo_log: dict[int, int] = field(default_factory=dict)
    writes: set[int] = field(default_factory=set)


class StmRegion:
    """Address arithmetic for the STM metadata tables of a protected range.

    Protects ``[data_base, data_base + nwords)``. ``owner_addr(a)`` and
    ``version_addr(a)`` give the metadata words for data word ``a``.
    """

    def __init__(self, arena: MemoryArena, data_base: int, nwords: int) -> None:
        if nwords <= 0:
            raise TransactionError("STM region must cover at least one word")
        self.data_base = data_base
        self.nwords = nwords
        self.owner_base = arena.alloc(nwords)
        self.version_base = arena.alloc(nwords)

    def _index(self, addr: int) -> int:
        idx = addr - self.data_base
        if idx < 0 or idx >= self.nwords:
            raise TransactionError(
                f"address {addr} outside STM-protected region "
                f"[{self.data_base}, {self.data_base + self.nwords})"
            )
        return idx

    def owner_addr(self, addr: int) -> int:
        return self.owner_base + self._index(addr)

    def version_addr(self, addr: int) -> int:
        return self.version_base + self._index(addr)
