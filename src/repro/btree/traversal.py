"""Vectorized batch traversal over the B+tree.

The vector engine processes whole request batches level-synchronously: all
requests descend one tree level per step as a single gather, mirroring how a
GPU kernel's warps advance through the tree together. The functions count
no events: the cost model charges each request's traversal from its step
count (see :class:`~repro.core.locality.LocalitySteps`), and the op streams
of :func:`batch_point_query` and :func:`batch_range_scan` are replayed by
the lowered SIMT launches.

Horizontal (leaf-chain) traversal implements the §5 locality path: starting
from a buffered leaf, walk ``next_leaf`` pointers until the target key is
covered.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .._types import NO_NODE, NULL_VALUE
from ..errors import SimulationError
from ..simt.lowered import TOK_CHECK, TOK_HIT, TOK_LOAD, TOK_MARK, OpTrace, expand
from .layout import OFF_COUNT, OFF_FENCE, OFF_KEYS, OFF_LEAF, OFF_NEXT, OFF_RF

if TYPE_CHECKING:  # tree.py imports this module
    from .tree import BPlusTree


def batch_find_leaf(tree: BPlusTree, keys: np.ndarray) -> np.ndarray:
    """Vertical traversal for every key; returns each key's leaf id.

    All leaves sit at depth ``tree.height``, so the descent is a fixed
    number of level-synchronous steps. The keys descend in sorted order
    (unsorted input is argsorted and the leaves scattered back): nodes on
    one level hold disjoint, increasing key ranges, so each visited node's
    keys form one contiguous run. Per level, only the distinct visited
    nodes' rows are gathered, and one ``searchsorted`` over their
    concatenated valid separators, minus the run's offset into that
    concatenation, yields every key's child slot.
    """
    keys = np.asarray(keys, dtype=np.int64)
    nodes = np.full(keys.size, tree.root, dtype=np.int64)
    if keys.size == 0:
        return nodes
    views = tree.views
    data = tree.arena.data
    order = None
    if np.any(keys[1:] < keys[:-1]):
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
    width = np.arange(tree.layout.fanout)
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
    if order is not None:
        leaves = np.empty_like(nodes)
        leaves[order] = nodes
        nodes = leaves
    return nodes


def batch_range_spans(tree: BPlusTree, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Leaves each ``[lo, hi]`` range's leaf-chain walk visits (its first
    and last leaf included)."""
    lo_leaves = batch_find_leaf(tree, lo)
    hi_leaves = batch_find_leaf(tree, hi)
    _, chain_pos = tree.leaf_chain()
    return chain_pos[hi_leaves] - chain_pos[lo_leaves] + 1


#: safety valve for leaf-chain walks (a correct walk is bounded by the leaf
#: count; hitting this indicates a broken chain, not contention).
MAX_HORIZONTAL_STEPS = 1_000_000


class _Tokens:
    """Tokens (:data:`~repro.simt.lowered.PATTERNS`) of ``n`` op streams,
    appended in program order per stream."""

    def __init__(self, n: int) -> None:
        self.n = n
        #: stream ids are kept as small integers: a stable sort of those is
        #: a radix sort
        self.dtype = np.min_scalar_type(n)
        self.streams: list[np.ndarray] = []
        self.codes: list[np.ndarray] = []
        self.addrs: list[np.ndarray] = []

    def emit(self, streams: np.ndarray, code, addrs) -> None:
        """One token per entry of ``streams``, on the words ``addrs`` (0 for
        a Mark)."""
        n = streams.size
        self.streams.append(streams.astype(self.dtype))
        self.codes.append(np.full(n, code, dtype=np.int8) if np.isscalar(code)
                          else code.astype(np.int8))
        self.addrs.append(np.full(n, addrs, dtype=np.int64) if np.isscalar(addrs) else addrs)

    def sorted(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The tokens in stream order: where each stream's tokens start (and
        the last ends), and every token's type and word."""
        stream = np.concatenate(self.streams)
        order = np.argsort(stream, kind="stable")
        bounds = np.searchsorted(stream[order], np.arange(self.n + 1))
        return bounds, np.concatenate(self.codes)[order], np.concatenate(self.addrs)[order]

    def ops(self, value_off: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The streams as CSR ``(offsets, kinds, addrs)``; a matched key's
        value lies ``value_off`` words past the key."""
        bounds, types, words = self.sorted()
        kinds, addrs, ends = expand(types, words, (0, 0, value_off))
        return np.concatenate(([0], ends))[bounds], kinds, addrs


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


def _runs(first: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The words of runs of ``n`` consecutive words from ``first``, flat."""
    ends = np.cumsum(n)
    return np.repeat(first - (ends - n), n) + np.arange(ends[-1] if n.size else 0)


def _descend(tree: BPlusTree, keys: np.ndarray, streams: np.ndarray,
             tokens: _Tokens) -> tuple[np.ndarray, np.ndarray]:
    """:func:`~repro.btree.device_ops.d_find_leaf` for every key at once.

    Emits each descent's op stream into ``tokens`` (key ``i`` into stream
    ``streams[i]``): per inner level ``Load leaf``, ``Branch``, one
    (``Load``, ``Branch``) per separator scanned — up to the first one above
    the key, at most ``fanout`` — and ``Load child``; at the leaf ``Load
    leaf``, ``Branch``. Lanes advance level by level, every word is
    bounds-checked before it is read, and words are read as the program
    reads them, so the descent follows the arena even where the tree is
    malformed. Returns each key's leaf and nodes visited.
    """
    lay = tree.layout
    data = tree.arena.data
    size = data.size
    node = np.full(keys.size, tree.root, dtype=np.int64)
    steps = np.ones(keys.size, dtype=np.int64)
    lanes = np.arange(keys.size)
    width = np.arange(lay.fanout)
    while lanes.size:
        base = _node_bases(tree, node[lanes], OFF_LEAF)
        inner = _load(data, base + OFF_LEAF) == 0
        tokens.emit(streams[lanes], TOK_CHECK, base + OFF_LEAF)
        lanes, base = lanes[inner], base[inner]
        # the row may run past the arena; only the words scanned are checked
        rows = data[np.minimum(base[:, None] + OFF_KEYS + width, size - 1)]
        above = rows > keys[lanes, None]
        slot = np.where(above.any(axis=1), above.argmax(axis=1), lay.fanout)
        scanned = np.minimum(slot + 1, lay.fanout)
        _check_runs(data, base + OFF_KEYS, scanned)
        tokens.emit(np.repeat(streams[lanes], scanned), TOK_CHECK, _runs(base + OFF_KEYS, scanned))
        child = base + lay.payload_off + slot
        node[lanes] = _load(data, child)
        tokens.emit(streams[lanes], TOK_LOAD, child)
        steps[lanes] += 1
    return node, steps


def _walk(tree: BPlusTree, keys: np.ndarray, starts: np.ndarray, streams: np.ndarray,
          tokens: _Tokens) -> tuple[np.ndarray, np.ndarray]:
    """:func:`~repro.btree.device_ops.d_walk_leaves` from ``starts[i]``
    toward every ``keys[i]`` at once, into stream ``streams[i]`` of
    ``tokens``: per leaf ``Load next``, ``Branch`` and, if there is a next
    leaf, ``Load`` of its fence, ``Branch``, moving on while that fence is
    at most the key. Returns each walk's leaf and steps (the buffered leaf
    counts as one)."""
    data = tree.arena.data
    node = np.array(starts, dtype=np.int64)
    steps = np.ones(keys.size, dtype=np.int64)
    lanes = np.arange(keys.size)
    while lanes.size:
        if steps[lanes[0]] > MAX_HORIZONTAL_STEPS:  # all walking lanes are level
            raise SimulationError("leaf chain walk did not terminate")
        at = _node_bases(tree, node[lanes], OFF_NEXT) + OFF_NEXT
        nxt = _load(data, at)
        tokens.emit(streams[lanes], TOK_CHECK, at)
        go = nxt != NO_NODE
        lanes, nxt = lanes[go], nxt[go]
        at = _node_bases(tree, nxt, OFF_FENCE) + OFF_FENCE
        fence = _load(data, at)
        tokens.emit(streams[lanes], TOK_CHECK, at)
        go = fence <= keys[lanes]
        lanes = lanes[go]
        node[lanes] = nxt[go]
        steps[lanes] += 1
    return node, steps


def batch_range_scan(
    tree: BPlusTree, lo: np.ndarray, hi: np.ndarray, request_ids: np.ndarray
) -> tuple[OpTrace, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every ``[lo[j], hi[j]]`` scan of
    :func:`~repro.core.kernels.d_range_raw` at once, in numpy, for the
    range requests ``request_ids``.

    Returns the scans' op streams (lane ``j`` is range ``j``, each its own
    warp, ending at ``Mark(request_ids[j])``) and their results as one CSR
    triple ``(counts, keys, values)``, equal to
    :func:`~repro.workloads.requests.flatten_scans` of the programs'
    results. Each stream is ``d_range_raw``'s, op by op, with every Load's
    address, then the Mark:

    * the descent of :func:`_descend` toward ``lo``;
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
    request_ids = np.asarray(request_ids, dtype=np.int64)
    n = int(lo.size)
    lanes = np.arange(n)
    if n == 0:
        return OpTrace(np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int8), lanes,
                       request_ids, np.zeros(1, dtype=np.int64), lanes), (lanes, lanes, lanes)
    lay = tree.layout
    data = tree.arena.data
    size = data.size
    tokens = _Tokens(n)
    found: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # (lane, key, value)
    node, _ = _descend(tree, lo, lanes, tokens)

    # leaf-chain walk: one leaf per step for every lane still walking
    while lanes.size:
        base = _node_bases(tree, node[lanes], OFF_COUNT)
        count = _load(data, base + OFF_COUNT)
        tokens.emit(lanes, TOK_CHECK, base + OFF_COUNT)
        first = base + OFF_KEYS
        # keys the lane may scan without leaving the arena
        avail = np.minimum(np.maximum(count, 0), np.maximum(size - first, 0))
        seg = np.repeat(np.arange(lanes.size), avail)
        slot = np.arange(seg.size) - np.repeat(np.cumsum(avail) - avail, avail)
        key_at = first[seg] + slot
        keys = data[key_at]
        above = keys > hi[lanes][seg]
        seg_above = seg[above]
        lead = np.diff(seg_above, prepend=-1) != 0
        stop = np.full(lanes.size, np.iinfo(np.int64).max)
        stop[seg_above[lead]] = slot[above][lead]
        done = stop < np.iinfo(np.int64).max
        # a lane that finds no key above ``hi`` reads all ``count`` keys
        _check_runs(data, first, np.where(done, 0, count))
        read = slot <= stop[seg]
        seg, key_at, keys = seg[read], key_at[read], keys[read]
        hit = (keys >= lo[lanes][seg]) & (keys <= hi[lanes][seg])
        tokens.emit(lanes[seg], np.where(hit, TOK_HIT, TOK_CHECK), key_at)
        values = _load(data, key_at[hit] + (lay.payload_off - OFF_KEYS))
        found.append((lanes[seg[hit]], keys[hit], values))
        nxt = _load(data, base + OFF_NEXT)
        tokens.emit(lanes, TOK_CHECK, base + OFF_NEXT)
        go = ~done & (nxt != NO_NODE)
        lanes = lanes[go]
        node[lanes] = nxt[go]

    tokens.emit(np.arange(n), TOK_MARK, 0)
    offsets, kinds, addrs = tokens.ops(lay.payload_off - OFF_KEYS)
    trace = OpTrace(offsets, kinds, addrs, request_ids, np.arange(n + 1),
                    np.zeros(n, dtype=np.int64))
    hit_lane, hit_keys, hit_values = (np.concatenate(a) for a in zip(*found))
    order = np.argsort(hit_lane, kind="stable")
    counts = np.bincount(hit_lane, minlength=n)
    return trace, (counts, hit_keys[order], hit_values[order])


def batch_point_query(
    tree: BPlusTree,
    keys: np.ndarray,
    start_leaves: np.ndarray,
    load_rf: np.ndarray,
    streams: np.ndarray,
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every unprotected point query of Eirene's query kernel at once, in
    numpy: the op stream a lane of :func:`~repro.core.kernels.d_query` or
    of an iteration warp
    (:func:`~repro.core.kernels.make_iteration_lane_program`) runs for
    ``keys[i]``, op by op with every Load's address.

    * A query with ``start_leaves[i] == NO_NODE`` descends as in
      :func:`_descend`; any other walks the leaf chain from that buffered
      leaf (``d_walk_leaves``): per leaf ``Load next``, ``Branch`` and, if
      there is a next leaf, ``Load`` of its fence, ``Branch``, moving on
      while that fence is at most the key.
    * Then ``d_search_leaf``: one (``Load``, ``Branch``) per key word
      scanned, up to the first one at least the key (at most ``fanout``),
      plus the value's ``Load`` when that word is the key.
    * With ``load_rf[i]`` (the last lane of a request group) a ``Load`` of
      the found leaf's RF word, then the ``Mark``.

    Query ``i``'s ops form stream ``streams[i]`` (a permutation of
    ``0..n-1``), returned as CSR ``(offsets, kinds, addrs)``, beside each
    query's value (``NULL_VALUE`` when absent), leaf and nodes visited.
    Every word is bounds-checked before it is read, as in
    :func:`batch_range_scan`.
    """
    keys = np.asarray(keys, dtype=np.int64)
    start_leaves = np.asarray(start_leaves, dtype=np.int64)
    streams = np.asarray(streams, dtype=np.int64)
    n = int(keys.size)
    lay = tree.layout
    data = tree.arena.data
    size = data.size
    tokens = _Tokens(n)
    walk = start_leaves != NO_NODE
    down = np.flatnonzero(~walk)
    node = start_leaves.copy()
    steps = np.ones(n, dtype=np.int64)
    if down.size:
        node[down], steps[down] = _descend(tree, keys[down], streams[down], tokens)

    up = np.flatnonzero(walk)
    if up.size:
        node[up], steps[up] = _walk(tree, keys[up], start_leaves[up], streams[up], tokens)

    # d_search_leaf: the row may run past the arena; only the words scanned
    # are checked
    base = _node_bases(tree, node, OFF_KEYS)
    first = base + OFF_KEYS
    rows = data[np.minimum(first[:, None] + np.arange(lay.fanout), size - 1)]
    at_least = rows >= keys[:, None]
    stop = at_least.any(axis=1)
    slot = np.where(stop, at_least.argmax(axis=1), lay.fanout - 1)
    scanned = slot + 1
    _check_runs(data, first, scanned)
    hit = stop & (rows[np.arange(n), slot] == keys)
    code = np.full(int(scanned.sum()), TOK_CHECK, dtype=np.int8)
    code[np.cumsum(scanned)[hit] - 1] = TOK_HIT
    tokens.emit(np.repeat(streams, scanned), code, _runs(first, scanned))
    values = np.full(n, NULL_VALUE, dtype=np.int64)
    values[hit] = _load(data, base[hit] + lay.payload_off + slot[hit])

    rf = np.flatnonzero(load_rf)
    at = base[rf] + OFF_RF
    _load(data, at)
    tokens.emit(streams[rf], TOK_LOAD, at)
    tokens.emit(streams, TOK_MARK, 0)
    return tokens.ops(lay.payload_off - OFF_KEYS), (values, node, steps)


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


def batch_leaf_lookup(tree: BPlusTree, leaves: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Find each key in its leaf; returns values (NULL_VALUE when absent)."""
    keys = np.asarray(keys, dtype=np.int64)
    leaves = np.asarray(leaves, dtype=np.int64)
    if keys.size == 0:
        return np.zeros(0, dtype=np.int64)
    slots, hit = batch_leaf_slots(tree, leaves, keys)
    payload = tree.arena.data[tree.views.payload_addrs(leaves, slots)]
    return np.where(hit, payload, NULL_VALUE).astype(np.int64)


def leaf_rf_values(tree: BPlusTree, leaves: np.ndarray) -> np.ndarray:
    """RF field per leaf (host plane)."""
    return tree.views.host_field(np.asarray(leaves, dtype=np.int64), "rf")
