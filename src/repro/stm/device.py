"""Device-side STM: the transactional protocol as SIMT thread-program code.

The protocol of :mod:`repro.stm.tm` (eager acquire, undo log, invisible
readers with commit-time validation) with every metadata and data access a
yielded instruction, so ownership checks, version reads and CAS acquires are
*counted* by the interpreter and genuinely interleave with other warps.

Usage inside a thread program::

    tx = stm.begin()
    try:
        val = yield from stm.d_read(tx, addr)
        yield from stm.d_write(tx, addr, val + 1)
        yield from stm.d_commit(tx)
    except TransactionAborted:
        ...retry...
"""

from __future__ import annotations

from ..errors import TransactionAborted
from ..memory import MemoryArena
from ..simt.instructions import BRANCH, AtomicAdd, AtomicCAS, Load, Store
from .stats import StmStats
from .tm import FREE, StmRegion, Tx


class DeviceStm:
    """Shared-state STM instance used by all lanes of a kernel."""

    def __init__(self, arena: MemoryArena, region: StmRegion) -> None:
        self.arena = arena
        self.region = region
        self.stats = StmStats()
        self._next_tid = 1
        #: failure-injection hook: a callable evaluated on every
        #: transactional read; returning True forces an abort (tests use
        #: this to exercise retry paths deterministically).
        self.abort_injector = None

    def begin(self) -> Tx:
        tx = Tx(tid=self._next_tid)
        self._next_tid += 1
        self.stats.begins += 1
        return tx

    # ------------------------------------------------------------------ #
    def d_read(self, tx: Tx, addr: int):
        """Transactional load (generator). Aborts on observing ownership."""
        if self.abort_injector is not None and self.abort_injector():
            self.stats.conflicts_rw += 1
            yield from self.d_abort(tx, counted=False)
            raise TransactionAborted("injected failure")
        region = self.region
        idx = region._index(addr)
        owner = yield Load(region.owner_base + idx)
        yield BRANCH
        if owner not in (FREE, tx.tid + 1):
            self.stats.conflicts_rw += 1
            yield from self.d_abort(tx, counted=False)
            raise TransactionAborted("read of word owned by another tx")
        if addr not in tx.writes and addr not in tx.read_versions:
            ver = yield Load(region.version_base + idx)
            tx.read_versions[addr] = ver
        value = yield Load(addr)
        return value

    def d_write(self, tx: Tx, addr: int, value: int):
        """Transactional store (generator): eager CAS acquire + undo log."""
        yield BRANCH
        if addr not in tx.writes:
            old_owner = yield AtomicCAS(self.region.owner_addr(addr), FREE, tx.tid + 1)
            yield BRANCH
            if old_owner not in (FREE, tx.tid + 1):
                self.stats.conflicts_ww += 1
                yield from self.d_abort(tx, counted=False)
                raise TransactionAborted("write-write conflict")
            tx.writes.add(addr)
            old = yield Load(addr)
            tx.undo_log[addr] = old
        yield Store(addr, value)

    def d_commit(self, tx: Tx):
        """Validate read versions, publish, release (generator)."""
        region = self.region
        for addr, ver in tx.read_versions.items():
            cur = yield Load(region.version_addr(addr))
            yield BRANCH
            if cur != ver:
                self.stats.conflicts_validation += 1
                yield from self.d_abort(tx, counted=False)
                raise TransactionAborted("read validation failed")
        for addr in tx.writes:
            idx = region._index(addr)
            yield AtomicAdd(region.version_base + idx, 1)
            yield Store(region.owner_base + idx, FREE)
        self.stats.commits += 1

    def d_abort(self, tx: Tx, counted: bool = True):
        """Roll back and release (generator). ``counted`` aborts come from
        the program (e.g. a failed leaf-version validation); internal aborts
        triggered by a detected conflict pass ``counted=False`` because the
        conflict counters were already charged."""
        for addr, old in tx.undo_log.items():
            yield Store(addr, old)
        for addr in tx.writes:
            yield Store(self.region.owner_addr(addr), FREE)
        self.stats.aborts += 1
        if counted:
            self.stats.conflicts_version += 1

    # ------------------------------------------------------------------ #
    def host_invalidate(self, addrs) -> None:
        """Bump the STM version of every address in ``addrs`` (host plane).

        Used after an instantaneous host-side structure modification (leaf
        split executed under ownership of the leaf's count word): concurrent
        transactions that read any of the modified words will fail commit
        validation, exactly as if the split's stores had been transactional.
        """
        data = self.arena.data
        for addr in addrs:
            data[self.region.version_addr(addr)] += 1
