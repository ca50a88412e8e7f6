"""Vectorized batch traversal over the B+tree.

The vector engine processes whole request batches level-synchronously: all
requests descend one tree level per step as a single gather, mirroring how a
GPU kernel's warps advance through the tree together. Every function returns
both results and a :class:`TraversalEvents` record — the event counts the
device cost model converts to instructions/transactions.

Horizontal (leaf-chain) traversal implements the §5 locality path: starting
from a buffered leaf, walk ``next_leaf`` pointers until the target key is
covered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .._types import EMPTY_KEY, NO_NODE, NULL_VALUE
from ..errors import SimulationError
from ..simt.lowered import OP_BRANCH, OP_LOAD, OpTrace
from .layout import OFF_COUNT, OFF_KEYS, OFF_LEAF, OFF_NEXT

if TYPE_CHECKING:  # tree.py imports this module
    from .tree import BPlusTree


@dataclass
class TraversalEvents:
    """Counts of tree-access events for one batch phase."""

    requests: int = 0
    node_visits: int = 0
    key_words_read: int = 0
    vertical_steps: int = 0
    horizontal_steps: int = 0
    leaf_lookups: int = 0
    #: per-request traversal step counts (for Fig. 10)
    steps_per_request: np.ndarray | None = None
    extra: dict[str, int] = field(default_factory=dict)

    def merge(self, other: "TraversalEvents") -> None:
        self.requests += other.requests
        self.node_visits += other.node_visits
        self.key_words_read += other.key_words_read
        self.vertical_steps += other.vertical_steps
        self.horizontal_steps += other.horizontal_steps
        self.leaf_lookups += other.leaf_lookups
        for k, v in other.extra.items():
            self.extra[k] = self.extra.get(k, 0) + v
        if other.steps_per_request is not None:
            if self.steps_per_request is None:
                self.steps_per_request = other.steps_per_request.copy()
            else:
                self.steps_per_request = np.concatenate(
                    [self.steps_per_request, other.steps_per_request]
                )

    @property
    def total_steps(self) -> int:
        return self.vertical_steps + self.horizontal_steps


def _key_rows(tree: BPlusTree, nodes: np.ndarray) -> np.ndarray:
    """Gather the full key row of each node (shape: len(nodes) x fanout)."""
    return tree.views.key_rows(nodes)


def batch_find_leaf(tree: BPlusTree, keys: np.ndarray) -> tuple[np.ndarray, TraversalEvents]:
    """Vertical traversal for every key; returns leaf ids and event counts.

    All leaves sit at depth ``tree.height``, so the descent is a fixed
    number of level-synchronous steps. The keys descend in sorted order
    (unsorted input is argsorted and the leaves scattered back): nodes on
    one level hold disjoint, increasing key ranges, so each visited node's
    keys form one contiguous run. Per level, only the distinct visited
    nodes' rows are gathered, and one ``searchsorted`` over their
    concatenated valid separators, minus the run's offset into that
    concatenation, yields every key's child slot. The events still charge
    a full-row scan per request (``n * fanout`` key words per level): they
    model the device's branch-free search, not this host computation.
    """
    keys = np.asarray(keys, dtype=np.int64)
    n = int(keys.size)
    ev = TraversalEvents(requests=n)
    nodes = np.full(n, tree.root, dtype=np.int64)
    if n == 0:
        ev.steps_per_request = np.zeros(0, dtype=np.int64)
        return nodes, ev
    lay = tree.layout
    views = tree.views
    data = tree.arena.data
    order = None
    if np.any(keys[1:] < keys[:-1]):
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
    width = np.arange(lay.fanout)
    for _ in range(tree.height - 1):
        new_run = np.concatenate(([True], nodes[1:] != nodes[:-1]))
        run = np.cumsum(new_run) - 1
        visited = nodes[new_run]
        counts = views.host_field(visited, "count")
        rows = views.key_rows(visited)
        seps = rows[width < counts[:, None]]
        offset = np.cumsum(counts) - counts
        slots = np.searchsorted(seps, keys, side="right") - offset[run]
        nodes = data[views.payload_addrs(nodes, slots)]
        ev.node_visits += n
        ev.key_words_read += n * lay.fanout
        ev.vertical_steps += n
    # the leaf itself counts as a visited node (paper counts nodes traversed)
    ev.node_visits += n
    ev.vertical_steps += n
    ev.steps_per_request = np.full(n, tree.height, dtype=np.int64)
    if order is not None:
        leaves = np.empty_like(nodes)
        leaves[order] = nodes
        nodes = leaves
    return nodes, ev


def batch_range_spans(tree: BPlusTree, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Leaves each ``[lo, hi]`` range's leaf-chain walk visits (its first
    and last leaf included)."""
    lo_leaves, _ = batch_find_leaf(tree, lo)
    hi_leaves, _ = batch_find_leaf(tree, hi)
    leaves = tree.leaf_ids()
    chain_pos = np.zeros(tree.max_nodes, dtype=np.int64)
    chain_pos[leaves] = np.arange(len(leaves))
    return chain_pos[hi_leaves] - chain_pos[lo_leaves] + 1


#: op-stream tokens of :func:`batch_range_scan` and their lengths: a checked
#: word (``Load``, ``Branch``), a key in range (``Load``, ``Branch``, value
#: ``Load``) and a child pointer (``Load``). Every token opens with a Load,
#: and a token's second op, if any, is its Branch.
_CHECK, _HIT, _CHILD = 0, 1, 2
_TOKEN_LEN = np.array([2, 3, 1])


def _load(data: np.ndarray, addrs: np.ndarray) -> np.ndarray:
    """Gather ``data[addrs]``, rejecting an address outside the arena with
    the interpreter's error."""
    bad = (addrs < 0) | (addrs >= data.size)
    if bad.any():
        raise SimulationError(f"load address {int(addrs[bad][0])} out of bounds")
    return data[addrs]


def _node_bases(tree: BPlusTree, nodes: np.ndarray, first: int) -> np.ndarray:
    """Base address of each node in ``nodes``, whose first load is word
    ``first``. A node id so far out that its address would wrap in int64 is
    rejected here, naming the address the interpreter computes in Python
    integers."""
    lay = tree.layout
    size = tree.arena.data.size
    far = (nodes > size) | (nodes < -size)  # any such node lies outside the arena
    if far.any():
        node = int(nodes[far][0])
        raise SimulationError(
            f"load address {lay.base + node * lay.stride + first} out of bounds"
        )
    return lay.base + nodes * lay.stride


def _check_runs(data: np.ndarray, first: np.ndarray, n: np.ndarray) -> None:
    """Reject runs of ``n`` consecutive loads from ``first`` (``first >= 0``)
    that leave the arena, naming the first word outside it as the
    interpreter would."""
    bad = (n > 0) & (n > data.size - first)  # no int64 wrap for a huge n
    if bad.any():
        raise SimulationError(
            f"load address {max(int(first[bad][0]), data.size)} out of bounds"
        )


def batch_range_scan(
    tree: BPlusTree, lo: np.ndarray, hi: np.ndarray
) -> tuple[OpTrace, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every ``[lo[j], hi[j]]`` scan of
    :func:`~repro.core.kernels.d_range_raw` at once, in numpy.

    Returns the scans' op streams (lane ``j`` is range ``j``; no Marks) and
    their results as one CSR triple ``(counts, keys, values)``, equal to
    :func:`~repro.workloads.requests.flatten_scans` of the programs' results.
    Each stream is ``d_range_raw``'s, op by op:

    * descent, per inner level: ``Load leaf``, ``Branch``, one (``Load``,
      ``Branch``) per separator scanned — up to the first one above ``lo``,
      at most ``fanout`` — and ``Load child``; at the leaf ``Load leaf``,
      ``Branch``;
    * leaf-chain walk, per leaf: ``Load count``, ``Branch``; one (``Load``,
      ``Branch``) per key scanned, plus the value's ``Load`` for a key in
      ``[lo, hi]``; ``Load next``, ``Branch``. The walk ends after the leaf
      holding the first key above ``hi``, or at the end of the chain.

    Lanes advance level by level and leaf by leaf; every word a program
    would load is bounds-checked first, raising the interpreter's
    :class:`~repro.errors.SimulationError`. Words are read as the program
    reads them (a count past the fanout scans on into the payload), so the
    streams follow the arena even where the tree is malformed.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    n = int(lo.size)
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        trace = OpTrace(np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int8), empty)
        return trace, (empty, empty, empty)
    lay = tree.layout
    data = tree.arena.data
    size = data.size
    tok_lane: list[np.ndarray] = []  # tokens, appended in program order per lane
    tok_code: list[np.ndarray] = []
    found: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # (lane, key, value)

    def emit(lanes: np.ndarray, code) -> None:
        tok_lane.append(lanes)
        tok_code.append(np.broadcast_to(np.asarray(code, dtype=np.int8), lanes.shape))

    # descent (d_find_leaf): level-synchronous, each lane until its leaf flag
    node = np.full(n, tree.root, dtype=np.int64)
    lanes = np.arange(n)
    width = np.arange(lay.fanout)
    while lanes.size:
        base = _node_bases(tree, node[lanes], OFF_LEAF)
        inner = _load(data, base + OFF_LEAF) == 0
        emit(lanes, _CHECK)
        lanes, base = lanes[inner], base[inner]
        # the row may run past the arena; only the words scanned are checked
        rows = data[np.minimum(base[:, None] + OFF_KEYS + width, size - 1)]
        above = rows > lo[lanes, None]
        slot = np.where(above.any(axis=1), above.argmax(axis=1), lay.fanout)
        scanned = np.minimum(slot + 1, lay.fanout)
        _check_runs(data, base + OFF_KEYS, scanned)
        emit(np.repeat(lanes, scanned), _CHECK)
        node[lanes] = _load(data, base + lay.payload_off + slot)
        emit(lanes, _CHILD)

    # leaf-chain walk: one leaf per step for every lane still walking
    lanes = np.arange(n)
    while lanes.size:
        base = _node_bases(tree, node[lanes], OFF_COUNT)
        count = _load(data, base + OFF_COUNT)
        emit(lanes, _CHECK)
        first = base + OFF_KEYS
        # keys the lane may scan without leaving the arena
        avail = np.minimum(np.maximum(count, 0), np.maximum(size - first, 0))
        seg = np.repeat(np.arange(lanes.size), avail)
        slot = np.arange(seg.size) - np.repeat(np.cumsum(avail) - avail, avail)
        keys = data[first[seg] + slot]
        above = keys > hi[lanes][seg]
        seg_above = seg[above]
        lead = np.diff(seg_above, prepend=-1) != 0
        stop = np.full(lanes.size, np.iinfo(np.int64).max)
        stop[seg_above[lead]] = slot[above][lead]
        done = stop < np.iinfo(np.int64).max
        # a lane that finds no key above ``hi`` reads all ``count`` keys
        _check_runs(data, first, np.where(done, 0, count))
        read = slot <= stop[seg]
        seg, slot, keys = seg[read], slot[read], keys[read]
        hit = (keys >= lo[lanes][seg]) & (keys <= hi[lanes][seg])
        emit(lanes[seg], np.where(hit, _HIT, _CHECK))
        values = _load(data, base[seg[hit]] + lay.payload_off + slot[hit])
        found.append((lanes[seg[hit]], keys[hit], values))
        nxt = _load(data, base + OFF_NEXT)
        emit(lanes, _CHECK)
        go = ~done & (nxt != NO_NODE)
        lanes = lanes[go]
        node[lanes] = nxt[go]

    lane = np.concatenate(tok_lane)
    order = np.argsort(lane, kind="stable")
    code = np.concatenate(tok_code)[order]
    starts = np.concatenate(([0], np.cumsum(_TOKEN_LEN[code])))
    offsets = starts[np.searchsorted(lane[order], np.arange(n + 1))]
    kinds = np.full(starts[-1], OP_LOAD, dtype=np.int8)
    kinds[starts[:-1][code != _CHILD] + 1] = OP_BRANCH
    trace = OpTrace(offsets, kinds, np.zeros(0, dtype=np.int64))

    hit_lane, hit_keys, hit_values = (np.concatenate(a) for a in zip(*found))
    order = np.argsort(hit_lane, kind="stable")
    counts = np.bincount(hit_lane, minlength=n)
    return trace, (counts, hit_keys[order], hit_values[order])


def batch_leaf_slots(
    tree: BPlusTree, leaves: np.ndarray, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Slot of each ``keys[i]`` in leaf ``leaves[i]``, and whether the leaf
    holds the key there.

    The slot is the number of key words in the leaf's row below
    ``keys[i]`` (unused slots hold ``EMPTY_KEY``, above every key), capped
    at the last slot, so a hit reads the payload at it. Leaves need not
    hold their key, and keys may come in any order. A leaf's row is sorted,
    so every key runs a branch-free binary search over its own row, all
    keys at once: each step is one gather of ``n`` words, about
    ``log2(fanout)`` of them, where comparing each key with its whole row
    reads ``n * fanout``.
    """
    keys = np.asarray(keys, dtype=np.int64)
    lay = tree.layout
    data = tree.arena.data
    first = tree.views.node_bases(leaves) + OFF_KEYS
    at = first.copy()  # per key: the row word its search stands on
    width = lay.fanout
    while width > 1:
        half = width // 2
        at += half * (data[at + half] < keys)
        width -= half
    slots = np.minimum(at - first + (data[at] < keys), lay.fanout - 1)
    return slots, data[first + slots] == keys


def batch_leaf_lookup(
    tree: BPlusTree, leaves: np.ndarray, keys: np.ndarray
) -> tuple[np.ndarray, TraversalEvents]:
    """Find each key in its leaf; returns values (NULL_VALUE when absent)."""
    keys = np.asarray(keys, dtype=np.int64)
    leaves = np.asarray(leaves, dtype=np.int64)
    n = int(keys.size)
    ev = TraversalEvents(requests=n, leaf_lookups=n)
    if n == 0:
        return np.zeros(0, dtype=np.int64), ev
    ev.key_words_read += n * tree.layout.fanout
    slots, hit = batch_leaf_slots(tree, leaves, keys)
    payload = tree.arena.data[tree.views.payload_addrs(leaves, slots)]
    return np.where(hit, payload, NULL_VALUE).astype(np.int64), ev


def batch_horizontal_find_leaf(
    tree: BPlusTree, start_leaves: np.ndarray, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, TraversalEvents]:
    """Leaf-chain walk from ``start_leaves`` toward each key (§5).

    Returns (leaf ids, per-request steps, events). A request whose key lies
    *before* its start leaf (possible only after concurrent splits) falls
    back to vertical traversal; its steps then count as vertical.
    """
    keys = np.asarray(keys, dtype=np.int64)
    leaves = np.asarray(start_leaves, dtype=np.int64).copy()
    n = int(keys.size)
    ev = TraversalEvents(requests=n)
    steps = np.ones(n, dtype=np.int64)  # reading the buffered leaf is a step
    if n == 0:
        return leaves, steps, ev
    views = tree.views

    # fallback: key precedes the buffered leaf's fence (left of its range)
    fences = views.host_field(leaves, "fence")
    ev.key_words_read += n
    fallback = keys < fences
    if np.any(fallback):
        fb_leaves, fb_ev = batch_find_leaf(tree, keys[fallback])
        leaves[fallback] = fb_leaves
        steps[fallback] = tree.height
        ev.merge(fb_ev)

    active = ~fallback
    while np.any(active):
        idx = np.flatnonzero(active)
        cur = leaves[idx]
        ev.key_words_read += int(idx.size)
        ev.node_visits += int(idx.size)
        nxt = views.host_field(cur, "next_leaf")
        has_next = nxt != NO_NODE
        nxt_fence = np.where(
            has_next, views.host_field(np.maximum(nxt, 0), "fence"), 0
        )
        advance = has_next & (nxt_fence <= keys[idx])
        move = idx[advance]
        leaves[move] = nxt[advance]
        steps[move] += 1
        ev.horizontal_steps += int(move.size)
        active[idx[~advance]] = False
    ev.steps_per_request = steps.copy()
    return leaves, steps, ev


def leaf_max_keys(tree: BPlusTree, leaves: np.ndarray) -> np.ndarray:
    """Largest real key per leaf (-1 for an empty leaf). Host plane."""
    leaves = np.asarray(leaves, dtype=np.int64)
    counts = tree.views.host_field(leaves, "count")
    rows = _key_rows(tree, leaves)
    return np.where(counts > 0, rows[np.arange(len(leaves)), np.maximum(counts - 1, 0)], -1)


def leaf_rf_values(tree: BPlusTree, leaves: np.ndarray) -> np.ndarray:
    """RF field per leaf (host plane)."""
    return tree.views.host_field(np.asarray(leaves, dtype=np.int64), "rf")
