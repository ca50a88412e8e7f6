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

import numpy as np

from .._types import EMPTY_KEY, NO_NODE, NULL_VALUE
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
    lay = tree.layout
    rows = _key_rows(tree, leaves)
    ev.key_words_read += n * lay.fanout
    pos = (rows < keys[:, None]).sum(axis=1)
    pos_c = np.minimum(pos, lay.fanout - 1)
    hit = rows[np.arange(n), pos_c] == keys
    payload = tree.arena.data[tree.views.payload_addrs(leaves, pos_c)]
    vals = np.where(hit, payload, NULL_VALUE)
    return vals.astype(np.int64), ev


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
