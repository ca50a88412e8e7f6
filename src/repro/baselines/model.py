"""Vector-engine event model: tree/synchronization events → instructions,
transactions, conflicts and time.

The vector engine executes every *algorithm* for real (sorting, combining,
traversal, mutation) but does not interleave individual instructions, so
conflicts and per-access instruction counts are derived from counted events
with the expected-value formulas below. Three principles keep it honest:

1. every constant is **shared by all systems** — a system can only win by
   causing fewer events, never by a private fudge factor;
2. per-event instruction costs are *derived from the device programs* in
   :mod:`repro.btree.device_ops` (e.g. an STM read is 3 loads + 1 branch —
   ownership, version, data), so the SIMT engine and the vector engine
   agree structurally;
3. the conflict model uses one temporal-overlap probability ``OVERLAP``:
   two operations on the same leaf within one batch conflict with this
   probability. The SIMT engine measures the real value; EXPERIMENTS.md
   cross-checks them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._types import OpKind, is_update_kind_array
from ..btree import batch_find_leaf
from ..btree.tree import BPlusTree
from ..config import DeviceConfig
from ..workloads.requests import RequestBatch

#: probability that two same-leaf operations of one batch overlap in time.
OVERLAP = 0.5

#: average fraction of a warp access that becomes a distinct 128B memory
#: transaction (scattered tree walks coalesce poorly; sorted/combined
#: streams coalesce well — Eirene's sorted issue order uses the lower
#: bound, reflected in its measured SIMT transaction rate).
COALESCE_SCATTERED = 0.50
COALESCE_SORTED = 0.25


@dataclass(frozen=True)
class InstCost:
    """Instruction bundle for one event."""

    mem: float = 0.0
    ctrl: float = 0.0
    alu: float = 0.0
    atomic: float = 0.0

    def __mul__(self, k: float) -> "InstCost":
        return InstCost(self.mem * k, self.ctrl * k, self.alu * k, self.atomic * k)

    __rmul__ = __mul__

    def __add__(self, other: "InstCost") -> "InstCost":
        return InstCost(
            self.mem + other.mem,
            self.ctrl + other.ctrl,
            self.alu + other.alu,
            self.atomic + other.atomic,
        )


@dataclass(frozen=True)
class InstModel:
    """Per-event instruction costs for a tree of a given fanout.

    ``scan`` is the expected number of separator/key slots examined by the
    linear node scan in the device programs. Nodes sit at ~70% occupancy and
    the scan exits early at the expected match position, so the average is
    ``0.35 × fanout`` plus the exit probe — the constant is calibrated
    against SIMT measurements (``repro/simt/calibration.py``; see
    EXPERIMENTS.md).
    """

    fanout: int

    @property
    def scan(self) -> float:
        return self.fanout * 0.35 + 1

    # -- node visits ------------------------------------------------------ #
    @property
    def node_visit_plain(self) -> InstCost:
        """Unprotected visit: is_leaf + key scan + child load (d_find_leaf)."""
        return InstCost(mem=self.scan + 2, ctrl=self.scan + 1, alu=self.scan)

    @property
    def node_visit_ntg(self) -> InstCost:
        """Narrowed-thread-group visit (Harmonia, used by Eirene's query
        kernel per §7): a thread sub-group cooperatively loads the node's
        key row as one coalesced vector and reduces the child slot in
        log2(fanout) ballot steps — per request, the amortized cost is the
        row load (perfectly coalesced) plus the reduction."""
        import math

        return InstCost(
            mem=self.fanout / 4 + 1,  # row load amortized over the sub-group
            ctrl=math.log2(self.fanout) + 1,
            alu=math.log2(self.fanout),
        )

    @property
    def node_visit_stm(self) -> InstCost:
        """STM-protected visit: every word read is owner + version + data
        loads plus an ownership branch (DeviceStm.d_read)."""
        words = self.scan + 2
        return InstCost(mem=3 * words, ctrl=2 * words, alu=words)

    @property
    def node_visit_lock_validated(self) -> InstCost:
        """Reader visit in the lock design: latch probe, version before,
        scan, version after, latch after (d_node_scan_validated)."""
        return InstCost(mem=self.scan + 5, ctrl=self.scan + 4, alu=self.scan)

    @property
    def node_visit_coupling(self) -> InstCost:
        """Writer visit with latch crabbing: CAS acquire + release + scan."""
        return InstCost(mem=self.scan + 3, ctrl=self.scan + 3, alu=self.scan, atomic=1)

    # -- leaf operations --------------------------------------------------- #
    @property
    def leaf_lookup_plain(self) -> InstCost:
        return InstCost(mem=self.scan + 1, ctrl=self.scan + 1, alu=self.scan)

    @property
    def leaf_lookup_stm(self) -> InstCost:
        return InstCost(mem=3 * (self.scan + 1), ctrl=2 * (self.scan + 1), alu=self.scan)

    @property
    def leaf_update_stm(self) -> InstCost:
        """Transactional in-place leaf mutation: acquire count word, scan,
        write key+value, commit (validation loads + releases)."""
        words = self.scan + 4
        commit = InstCost(mem=2 * 3.0, ctrl=3.0, atomic=3.0)
        return InstCost(mem=3 * words, ctrl=2 * words, alu=words, atomic=1) + commit

    @property
    def leaf_update_locked(self) -> InstCost:
        return InstCost(mem=self.scan + 4, ctrl=self.scan + 3, alu=self.scan, atomic=1)

    @property
    def leaf_update_plain(self) -> InstCost:
        return InstCost(mem=self.scan + 3, ctrl=self.scan + 2, alu=self.scan)

    # -- synchronization overheads ----------------------------------------- #
    @property
    def tx_begin_commit_query(self) -> InstCost:
        """Commit-time validation for a read-only tx over a traversal."""
        return InstCost(mem=4.0, ctrl=4.0, alu=2.0)

    @property
    def abort_rollback(self) -> InstCost:
        """Undo-log rollback + ownership release on abort."""
        return InstCost(mem=8.0, ctrl=4.0, alu=4.0)

    @property
    def lock_spin(self) -> InstCost:
        """One failed latch CAS + branch."""
        return InstCost(ctrl=1.0, atomic=1.0)

    @property
    def split_smo(self) -> InstCost:
        """Structure-modification path: plan acquire, data movement,
        version invalidation over ~2 nodes (device d_smo_upsert)."""
        words = 2 * (2 * self.fanout + 7)
        return InstCost(mem=words, ctrl=words / 2, alu=words / 2, atomic=words)


@dataclass
class EventTotals:
    """Accumulated instruction/transaction totals for one batch phase."""

    mem: float = 0.0
    ctrl: float = 0.0
    alu: float = 0.0
    atomic: float = 0.0
    transactions: float = 0.0
    conflicts: float = 0.0

    def add(self, cost: InstCost, count: float = 1.0, coalesce: float = COALESCE_SCATTERED):
        self.mem += cost.mem * count
        self.ctrl += cost.ctrl * count
        self.alu += cost.alu * count
        self.atomic += cost.atomic * count
        self.transactions += (cost.mem * coalesce + cost.atomic) * count

    def merge(self, other: "EventTotals") -> None:
        self.mem += other.mem
        self.ctrl += other.ctrl
        self.alu += other.alu
        self.atomic += other.atomic
        self.transactions += other.transactions
        self.conflicts += other.conflicts

    @property
    def thread_inst(self) -> float:
        return self.mem + self.ctrl + self.alu + self.atomic


def phase_seconds(totals: EventTotals, device: DeviceConfig) -> float:
    """Device time for a phase: the slower of compute and memory sides.

    Compute: thread instructions retire ``num_sms × warp_size`` wide.
    Memory: transactions are bounded by device bandwidth.
    """
    t_compute = totals.thread_inst * device.cycles_per_inst / (
        device.thread_slots * device.clock_hz
    )
    t_memory = totals.transactions / device.mem_transactions_per_second
    return max(t_compute, t_memory)


def writer_collision_groups(leaves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per element: (group size of its leaf, rank within its leaf group).

    Rank follows array order (= timestamp order), so earlier requests get
    lower retry ranks — the deterministic stand-in for 'who wins the race'.
    """
    if leaves.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    order = np.argsort(leaves, kind="stable")
    sorted_leaves = leaves[order]
    heads = np.empty(leaves.size, dtype=bool)
    heads[0] = True
    np.not_equal(sorted_leaves[1:], sorted_leaves[:-1], out=heads[1:])
    head_pos = np.flatnonzero(heads)
    run_id = np.cumsum(heads) - 1
    lengths = np.diff(np.append(head_pos, leaves.size))
    rank_sorted = np.arange(leaves.size) - head_pos[run_id]
    size = np.empty(leaves.size, dtype=np.int64)
    rank = np.empty(leaves.size, dtype=np.int64)
    size[order] = lengths[run_id]
    rank[order] = rank_sorted
    return size, rank


def batch_collisions(
    tree: BPlusTree, batch: RequestBatch
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Same-leaf collisions of a batch's point requests, for the baselines'
    whole-batch conflict models.

    Returns ``(q_idx, w_idx, q_leaves, w_rank, writers_on_leaf)``: the
    query and writer positions, each query's leaf, each writer's rank in
    its leaf group (:func:`writer_collision_groups`) and the number of
    writers per node id.
    """
    point_idx = np.flatnonzero(batch.kinds != OpKind.RANGE)
    leaves = np.zeros(batch.n, dtype=np.int64)
    if point_idx.size:
        leaves[point_idx] = batch_find_leaf(tree, batch.keys[point_idx])
    q_idx = np.flatnonzero(batch.kinds == OpKind.QUERY)
    w_idx = np.flatnonzero(is_update_kind_array(batch.kinds))
    w_leaves = leaves[w_idx]
    _, w_rank = writer_collision_groups(w_leaves)
    writers_on_leaf = np.bincount(w_leaves, minlength=tree.max_nodes)
    return q_idx, w_idx, leaves[q_idx], w_rank, writers_on_leaf
