"""Host-side B+tree over the simulated global memory.

This is the structural substrate every system under test shares: a regular
B+tree (inner nodes hold keys + child ids, leaves hold keys + values, leaves
chained left-to-right), stored in a :class:`~repro.memory.MemoryArena` with
the layout of :mod:`repro.btree.layout`.

The methods here are the *host plane*: bulk build, point/range operations
and structural maintenance used by the vectorized engine, the sequential
reference executor, and — as instantaneous host mutations — the device
programs. They manipulate the arena's words through the host views of
:mod:`repro.btree.views`; device-side counting is the responsibility of the
callers in :mod:`repro.btree.device_ops` and the kernels.

Deletion is **merge-free** (keys are removed and slots compacted, leaves may
underflow but are never merged), the standard choice in GPU B-trees — the
paper's structure conflicts come from *splits*, which are fully implemented
including root splits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._types import EMPTY_KEY, MAX_KEY, NO_NODE, NULL_VALUE, OpKind
from ..config import TreeConfig
from ..errors import TreeError, TreeFullError
from ..memory import MemoryArena
from .layout import OFF_KEYS, NodeLayout
from .traversal import batch_leaf_slots
from .views import StructView


@dataclass
class SplitEvent:
    """Record of one structural modification (for conflict accounting)."""

    node: int
    new_node: int
    level: int  # 0 = leaf


class BPlusTree:
    """A B+tree living in simulated GPU global memory."""

    def __init__(
        self,
        arena: MemoryArena,
        layout: NodeLayout,
        config: TreeConfig,
        max_nodes: int,
    ) -> None:
        self.arena = arena
        self.layout = layout
        self.config = config
        self.max_nodes = max_nodes
        self.root = NO_NODE
        self.height = 0  # number of node levels on a root->leaf path
        self._next_node = 0
        self.split_events: list[SplitEvent] = []
        self._views: StructView | None = None

    @property
    def views(self) -> StructView:
        # cached per arena binding; still tracks ``self.arena`` rebinding
        # (tests transplant trees between arenas). Caching also keeps the
        # StructView's NodeAddrs memo warm across traversal steps.
        v = self._views
        if v is None or v.arena is not self.arena:
            v = self._views = StructView(self.arena, self.layout)
        return v

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        keys: np.ndarray,
        values: np.ndarray,
        config: TreeConfig | None = None,
        fill_factor: float = 0.7,
        arena: MemoryArena | None = None,
    ) -> "BPlusTree":
        """Bulk-build a tree from sorted-or-not unique ``keys``/``values``.

        Leaves are packed to ``fill_factor`` of the fanout, mirroring how the
        paper's evaluation pre-builds trees of a given size and then streams
        request batches at them.
        """
        config = config or TreeConfig()
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        if keys.size != values.size:
            raise TreeError("keys and values must have equal length")
        if keys.size == 0:
            raise TreeError("cannot bulk-build an empty tree")
        if keys.min() < 0 or keys.max() > MAX_KEY:
            raise TreeError(f"keys must lie in [0, {MAX_KEY}]")
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        values = values[order]
        if np.any(keys[1:] == keys[:-1]):
            raise TreeError("bulk build requires unique keys")
        if not 0.25 <= fill_factor <= 1.0:
            raise TreeError(f"fill_factor must be in [0.25, 1.0], got {fill_factor}")

        fanout = config.fanout
        leaf_fill = max(1, min(fanout, int(round(fanout * fill_factor))))
        inner_fill = max(2, int(round((fanout + 1) * fill_factor)))
        max_nodes = cls.plan_max_nodes(int(keys.size), config, fill_factor)

        layout = NodeLayout(fanout=fanout)
        if arena is None:
            arena = MemoryArena(layout.arena_words(max_nodes))
        else:
            base = arena.alloc(layout.arena_words(max_nodes), align=layout.words_per_segment)
            layout = NodeLayout(fanout=fanout, base=base)

        tree = cls(arena, layout, config, max_nodes)
        tree._bulk_load(keys, values, leaf_fill, inner_fill)
        return tree

    @staticmethod
    def plan_max_nodes(n_keys: int, config: TreeConfig, fill_factor: float = 0.7) -> int:
        """Node-arena capacity for a bulk build of ``n_keys`` keys plus the
        configured headroom for subsequent splits."""
        fanout = config.fanout
        leaf_fill = max(1, min(fanout, int(round(fanout * fill_factor))))
        inner_fill = max(2, int(round((fanout + 1) * fill_factor)))
        n_leaves = (n_keys + leaf_fill - 1) // leaf_fill
        total = n_leaves
        level = n_leaves
        while level > 1:
            level = (level + inner_fill - 1) // inner_fill
            total += level
        return int(total * config.arena_headroom) + 8

    def _alloc_node(self, leaf: bool) -> int:
        if self._next_node >= self.max_nodes:
            raise TreeFullError(
                f"node arena exhausted at {self.max_nodes} nodes; "
                "increase TreeConfig.arena_headroom"
            )
        node = self._next_node
        self._next_node += 1
        h = self.views.host(node)
        h.words()[:] = 0
        h.leaf = 1 if leaf else 0
        h.rf = EMPTY_KEY
        h.next_leaf = NO_NODE
        h.keys[:] = EMPTY_KEY
        return node

    @property
    def node_count(self) -> int:
        return self._next_node

    def _bulk_load(
        self, keys: np.ndarray, values: np.ndarray, leaf_fill: int, inner_fill: int
    ) -> None:
        views = self.views
        # --- leaves ------------------------------------------------------
        leaf_ids: list[int] = []
        for start in range(0, keys.size, leaf_fill):
            chunk = slice(start, min(start + leaf_fill, keys.size))
            node = self._alloc_node(leaf=True)
            cnt = chunk.stop - chunk.start
            h = views.host(node)
            h.count = cnt
            h.keys[:cnt] = keys[chunk]
            h.values[:cnt] = values[chunk]
            # lower fence = the parent separator routing here (min key at
            # build time); the leftmost leaf is fenced at 0
            h.fence = keys[chunk][0] if leaf_ids else 0
            if leaf_ids:
                views.host(leaf_ids[-1]).next_leaf = node
            leaf_ids.append(node)
        views.host(leaf_ids[-1]).next_leaf = NO_NODE

        # --- inner levels --------------------------------------------------
        self.height = 1
        level_ids = leaf_ids
        level_mins = [int(views.host(n).keys[0]) for n in level_ids]
        while len(level_ids) > 1:
            next_ids: list[int] = []
            next_mins: list[int] = []
            # chunk so no inner node ends up with a single child (it would
            # have zero separators): shrink a chunk by one when exactly one
            # child would remain after it
            starts: list[int] = []
            pos = 0
            while pos < len(level_ids):
                starts.append(pos)
                step = inner_fill
                if len(level_ids) - (pos + step) == 1:
                    # absorb the orphan if capacity allows, else leave two
                    if step + 1 <= self.layout.fanout + 1:
                        step += 1
                    else:
                        step -= 1
                pos += step
            for i, start in enumerate(starts):
                stop = starts[i + 1] if i + 1 < len(starts) else len(level_ids)
                children = level_ids[start:stop]
                mins = level_mins[start:stop]
                node = self._alloc_node(leaf=False)
                h = views.host(node)
                cnt = len(children) - 1
                h.count = cnt
                if cnt:
                    h.keys[:cnt] = mins[1:]
                h.children[: len(children)] = children
                next_ids.append(node)
                next_mins.append(mins[0])
            level_ids, level_mins = next_ids, next_mins
            self.height += 1
        self.root = level_ids[0]
        self.init_rf()

    # ------------------------------------------------------------------ #
    # RF (range field, §5)
    # ------------------------------------------------------------------ #
    def init_rf(self) -> None:
        """Set each leaf's RF to the min key of the leaf ``height + 1`` hops
        ahead on the chain (``EMPTY_KEY`` when the chain ends earlier)."""
        views = self.views
        leaves = self.leaf_ids().tolist()
        hop = self.height + 1
        for i, leaf in enumerate(leaves):
            j = i + hop
            rf = EMPTY_KEY
            if j < len(leaves):
                tgt = views.host(leaves[j])
                if tgt.count > 0:
                    rf = int(tgt.keys[0])
            views.host(leaf).rf = rf

    def update_rf(self, start_leaf: int, observed_steps: int) -> None:
        """§5 dynamic RF maintenance: when a horizontal traversal starting at
        ``start_leaf`` took more steps than the tree height, record the min
        key of the leaf ``height + 1`` hops ahead so later iterations choose
        vertical traversal instead."""
        if observed_steps <= self.height:
            return
        rf = self.updated_rf(start_leaf)
        if rf is not None:
            self.views.host(start_leaf).rf = rf

    def updated_rf(self, start_leaf: int) -> int | None:
        """The RF :meth:`update_rf` records for ``start_leaf`` after a long
        walk: the min key of the leaf ``height + 1`` hops ahead, or
        ``None`` (the RF stays) when the chain ends earlier or that leaf is
        empty. Reads only; callers that must decide before writing use it."""
        node = self.rf_source(start_leaf)
        if node == NO_NODE:
            return None
        h = self.views.host(node)
        return int(h.keys[0]) if h.count > 0 else None

    def rf_source(self, start_leaf: int) -> int:
        """The leaf whose first key is ``start_leaf``'s RF: ``height + 1``
        hops on along the chain (``NO_NODE`` when the chain ends earlier)."""
        views = self.views
        node = start_leaf
        for _ in range(self.height + 1):
            node = views.host(node).next_leaf
            if node == NO_NODE:
                break
        return int(node)

    # ------------------------------------------------------------------ #
    # traversal helpers (host plane)
    # ------------------------------------------------------------------ #
    def child_slot(self, node: int, key: int) -> int:
        """Index of the child to follow in an inner node for ``key``."""
        hk = self.views.host(node).keys
        return int(np.searchsorted(hk, key, side="right"))

    def find_leaf(self, key: int) -> tuple[int, int]:
        """Descend from the root; return (leaf id, nodes visited)."""
        node = self.root
        steps = 1
        views = self.views
        while not views.host(node).leaf:
            node = int(views.host(node).children[self.child_slot(node, key)])
            steps += 1
        return node, steps

    def leaf_slot(self, leaf: int, key: int) -> int:
        """Slot of ``key`` in ``leaf``, or -1 when absent."""
        hk = self.views.host(leaf).keys
        pos = int(np.searchsorted(hk, key, side="left"))
        if pos < self.layout.fanout and hk[pos] == key:
            return pos
        return -1

    # ------------------------------------------------------------------ #
    # point operations (host plane)
    # ------------------------------------------------------------------ #
    def search(self, key: int) -> int:
        """Value stored under ``key``, or ``NULL_VALUE``."""
        leaf, _ = self.find_leaf(key)
        slot = self.leaf_slot(leaf, key)
        if slot < 0:
            return NULL_VALUE
        return int(self.views.host(leaf).payload[slot])

    def upsert(self, key: int, value: int) -> int:
        """Insert or overwrite ``key``; returns the old value or NULL_VALUE.

        This is the *update class* semantic the paper uses: ``update`` and
        ``insert`` both resolve to upsert on the leaf (insert of an existing
        key overwrites; update of a missing key inserts).
        """
        if not 0 <= key <= MAX_KEY:
            raise TreeError(f"key {key} out of range")
        path = self._descend_path(key)
        leaf = path[-1][0]
        slot = self.leaf_slot(leaf, key)
        if slot >= 0:
            payload = self.views.host(leaf).payload
            old = int(payload[slot])
            payload[slot] = value
            return old
        self._leaf_insert(path, key, value)
        return NULL_VALUE

    def delete(self, key: int) -> int:
        """Remove ``key``; returns the old value or ``NULL_VALUE`` if absent."""
        leaf, _ = self.find_leaf(key)
        slot = self.leaf_slot(leaf, key)
        if slot < 0:
            return NULL_VALUE
        h = self.views.host(leaf)
        cnt = h.count
        hk, hp = h.keys, h.values
        old = int(hp[slot])
        hk[slot : cnt - 1] = hk[slot + 1 : cnt]
        hp[slot : cnt - 1] = hp[slot + 1 : cnt]
        hk[cnt - 1] = EMPTY_KEY
        hp[cnt - 1] = 0
        h.count = cnt - 1
        return old

    def apply_updates(
        self,
        kinds: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        leaves: np.ndarray,
    ) -> np.ndarray:
        """Apply a batch of update-class requests; returns their old values.

        ``keys`` must be strictly increasing and lie in ``[0, MAX_KEY]``;
        ``leaves[i]`` is the leaf routing ``keys[i]`` on the current
        structure. Results, arena words and ``split_events`` equal those of
        calling :meth:`delete` (``OpKind.DELETE``) or :meth:`upsert` (any
        other kind) for each key in order, because:

        * an overwrite of a present key never changes the layout, so all of
          them are one gather of the old values and one scatter of the new
          ones, on the structure the leaves were found on;
        * inserts of absent keys and deletes still run one by one, in
          order, so every structural change happens as in the loop;
        * shifts and splits move a value together with its key, and no
          other request touches an overwritten key (keys are unique).

        A key not found in its given leaf takes the per-key path, so a
        stale ``leaves`` entry costs time, never correctness.
        """
        kinds = np.asarray(kinds)
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        leaves = np.asarray(leaves, dtype=np.int64)
        n = int(keys.size)
        if not kinds.size == values.size == leaves.size == n:
            raise TreeError("kinds, keys, values and leaves must have equal length")
        old = np.full(n, NULL_VALUE, dtype=np.int64)
        if n == 0:
            return old
        if np.any(keys[1:] <= keys[:-1]) or keys[0] < 0 or keys[-1] > MAX_KEY:
            raise TreeError(f"batch keys must be strictly increasing in [0, {MAX_KEY}]")
        views = self.views
        if (
            leaves.min() < 0
            or leaves.max() >= self._next_node
            or not np.all(views.host_field(leaves, "leaf"))
        ):
            raise TreeError("leaves must name leaf nodes of this tree")
        slots, hit = batch_leaf_slots(self, leaves, keys)
        overwrite = hit & (kinds != OpKind.DELETE)
        addrs = views.payload_addrs(leaves[overwrite], slots[overwrite])
        data = self.arena.data
        old[overwrite] = data[addrs]
        data[addrs] = values[overwrite]
        for i in np.flatnonzero(~overwrite):
            key = int(keys[i])
            if kinds[i] == OpKind.DELETE:
                old[i] = self.delete(key)
            else:
                old[i] = self.upsert(key, int(values[i]))
        return old

    def insert_into_leaves(self, leaves: np.ndarray, keys: np.ndarray,
                           values: np.ndarray) -> None:
        """Insert absent ``keys`` (with ``values``) into their ``leaves``,
        none of which may fill past ``fanout``: one merge of each leaf's
        row with its new keys. The rows end as the per-key inserts leave
        them, in any order, because no leaf splits."""
        if not keys.size:
            return
        lay = self.layout
        views = self.views
        data = self.arena.data
        leaf_ids, row_of, n_new = np.unique(leaves, return_inverse=True, return_counts=True)
        count = views.host_field(leaf_ids, "count")
        size = count + n_new
        if np.any(size > lay.fanout):
            raise TreeError("insert_into_leaves would overfill a leaf")
        width = np.arange(lay.fanout)
        held = width < count[:, None]
        key_rows = views.key_rows(leaf_ids)
        value_addrs = views.payload_addrs(leaf_ids, 0)[:, None] + width
        row = np.concatenate((np.repeat(np.arange(leaf_ids.size), count), row_of))
        key = np.concatenate((key_rows[held], keys))
        value = np.concatenate((data[value_addrs][held], values))
        order = np.lexsort((key, row))
        slot = np.arange(row.size) - np.repeat(np.cumsum(size) - size, size)
        row = row[order]
        data[views.node_bases(leaf_ids)[row] + OFF_KEYS + slot] = key[order]
        data[value_addrs[row, slot]] = value[order]
        data[views.field_addrs(leaf_ids, "count")] = size

    def range_scan(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """All (key, value) pairs with ``lo <= key <= hi``, in key order."""
        if hi < lo:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        leaf, _ = self.find_leaf(lo)
        out_k: list[int] = []
        out_v: list[int] = []
        while leaf != NO_NODE:
            h = self.views.host(leaf)
            cnt = h.count
            hk = h.keys[:cnt]
            hp = h.values[:cnt]
            sel = (hk >= lo) & (hk <= hi)
            out_k.extend(int(k) for k in hk[sel])
            out_v.extend(int(v) for v in hp[sel])
            if cnt and hk[cnt - 1] > hi:
                break
            leaf = h.next_leaf
        return np.asarray(out_k, dtype=np.int64), np.asarray(out_v, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # insertion machinery (splits)
    # ------------------------------------------------------------------ #
    def _descend_path(self, key: int) -> list[tuple[int, int]]:
        """Root-to-leaf path as (node, child slot taken); leaf slot is -1."""
        path: list[tuple[int, int]] = []
        node = self.root
        views = self.views
        while not views.host(node).leaf:
            slot = self.child_slot(node, key)
            path.append((node, slot))
            node = int(views.host(node).children[slot])
        path.append((node, -1))
        return path

    def _leaf_insert(self, path: list[tuple[int, int]], key: int, value: int) -> None:
        leaf = path[-1][0]
        cnt = self.views.host(leaf).count
        if cnt < self.layout.fanout:
            self._insert_into_leaf(leaf, cnt, key, value)
            return
        # split the leaf, then insert into the correct half
        new_leaf = self._split_leaf(leaf)
        sep = int(self.views.host(new_leaf).keys[0])
        target = new_leaf if key >= sep else leaf
        tcnt = self.views.host(target).count
        self._insert_into_leaf(target, tcnt, key, value)
        self._insert_separator(path[:-1], sep, new_leaf)

    def _insert_into_leaf(self, leaf: int, cnt: int, key: int, value: int) -> None:
        h = self.views.host(leaf)
        hk, hp = h.keys, h.values
        pos = int(np.searchsorted(hk[:cnt], key, side="left"))
        hk[pos + 1 : cnt + 1] = hk[pos:cnt]
        hp[pos + 1 : cnt + 1] = hp[pos:cnt]
        hk[pos] = key
        hp[pos] = value
        h.count = cnt + 1

    def _split_leaf(self, leaf: int) -> int:
        """Split a full leaf; returns the new right sibling."""
        new_leaf = self._alloc_node(leaf=True)
        h = self.views.host(leaf)
        n = self.views.host(new_leaf)
        cnt = h.count
        half = cnt // 2
        hk, hp = h.keys, h.values
        nk, np_ = n.keys, n.values
        moved = cnt - half
        nk[:moved] = hk[half:cnt]
        np_[:moved] = hp[half:cnt]
        hk[half:cnt] = EMPTY_KEY
        hp[half:cnt] = 0
        h.count = half
        n.count = moved
        # chain + fence + version + RF propagation (§4.2, §5)
        n.fence = nk[0]
        n.next_leaf = h.next_leaf
        h.next_leaf = new_leaf
        h.version += 1
        n.version = h.version
        n.rf = h.rf
        self.split_events.append(SplitEvent(node=leaf, new_node=new_leaf, level=0))
        return new_leaf

    def _insert_separator(self, inner_path: list[tuple[int, int]], sep: int, child: int) -> None:
        """Insert (sep -> child) into the parent chain, splitting upward."""
        views = self.views
        level = 1
        while inner_path:
            node, _ = inner_path.pop()
            cnt = views.host(node).count
            if cnt < self.layout.fanout:
                self._insert_into_inner(node, cnt, sep, child)
                return
            node_new, promote = self._split_inner(node, level)
            # insert into the proper half after the split
            target = node_new if sep >= promote else node
            self._insert_into_inner(target, views.host(target).count, sep, child)
            sep, child = promote, node_new
            level += 1
        # split reached the root: grow the tree
        new_root = self._alloc_node(leaf=False)
        h = views.host(new_root)
        h.count = 1
        h.keys[0] = sep
        h.children[0] = self.root
        h.children[1] = child
        self.root = new_root
        self.height += 1
        self.init_rf()

    def _insert_into_inner(self, node: int, cnt: int, sep: int, child: int) -> None:
        h = self.views.host(node)
        hk, hp = h.keys, h.children
        pos = int(np.searchsorted(hk[:cnt], sep, side="left"))
        hk[pos + 1 : cnt + 1] = hk[pos:cnt]
        hp[pos + 2 : cnt + 2] = hp[pos + 1 : cnt + 1]
        hk[pos] = sep
        hp[pos + 1] = child
        h.count = cnt + 1

    def _split_inner(self, node: int, level: int) -> tuple[int, int]:
        """Split a full inner node; returns (new right node, promoted key)."""
        new_node = self._alloc_node(leaf=False)
        h = self.views.host(node)
        n = self.views.host(new_node)
        cnt = h.count  # == fanout
        mid = cnt // 2
        hk, hp = h.keys, h.children
        nk, np_ = n.keys, n.children
        promote = int(hk[mid])
        right = cnt - mid - 1
        nk[:right] = hk[mid + 1 : cnt]
        np_[: right + 1] = hp[mid + 1 : cnt + 1]
        hk[mid:cnt] = EMPTY_KEY
        hp[mid + 1 : cnt + 1] = 0
        h.count = mid
        n.count = right
        self.split_events.append(SplitEvent(node=node, new_node=new_node, level=level))
        return new_node, promote

    # ------------------------------------------------------------------ #
    # inspection / validation
    # ------------------------------------------------------------------ #
    def leaf_ids(self) -> np.ndarray:
        """Leaf node ids in key order, as an int64 array.

        Gathered level by level from the root: each inner level is one
        gather of its nodes' child rows, keeping the first ``count + 1``
        entries, so the leaf list costs ``height - 1`` gathers rather than
        a walk of the leaf chain. :meth:`validate` checks the chain against
        it.
        """
        views = self.views
        width = np.arange(self.layout.fanout + 1)
        nodes = np.array([self.root], dtype=np.int64)
        for _ in range(self.height - 1):
            counts = views.host_field(nodes, "count")
            rows = self.arena.data[views.payload_addrs(nodes, 0)[:, None] + width]
            nodes = rows[width <= counts[:, None]]
        return nodes

    def leaf_chain(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`leaf_ids` and each node's position in it: a
        ``max_nodes``-sized index holding a leaf's chain position and -1 for
        every other node."""
        chain = self.leaf_ids()
        pos = np.full(self.max_nodes, -1, dtype=np.int64)
        pos[chain] = np.arange(chain.size)
        return chain, pos

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """All (key, value) pairs in key order (host plane)."""
        views = self.views
        leaves = self.leaf_ids()
        width = np.arange(self.layout.fanout)
        held = width < views.host_field(leaves, "count")[:, None]
        values = self.arena.data[views.payload_addrs(leaves, 0)[:, None] + width]
        return views.key_rows(leaves)[held], values[held]

    def __len__(self) -> int:
        return int(self.views.host_field(self.leaf_ids(), "count").sum())

    def validate(self) -> None:
        """Check structural invariants; raises :class:`TreeError` on failure.

        Checks: per-node key ordering, separator consistency, uniform leaf
        depth, child counts, a leaf chain that links exactly the in-order
        leaves and ends, and global key ordering.
        """
        lay = self.layout
        leaf_depths: set[int] = set()

        def rec(node: int, lo: int, hi: int, depth: int) -> None:
            h = self.views.host(node)
            cnt = h.count
            if cnt > lay.fanout or cnt < 0:
                raise TreeError(f"node {node}: bad count {cnt}")
            hk = h.keys[:cnt]
            if np.any(hk[1:] <= hk[:-1]):
                raise TreeError(f"node {node}: keys not strictly increasing")
            if cnt and (hk[0] < lo or hk[-1] >= hi):
                raise TreeError(f"node {node}: keys escape [{lo}, {hi})")
            if h.leaf:
                leaf_depths.add(depth)
                if h.fence != lo:
                    raise TreeError(
                        f"leaf {node}: fence {h.fence} != routed lower bound {lo}"
                    )
                return
            if cnt == 0 and node != self.root:
                raise TreeError(f"inner node {node} has no separator")
            hp = h.children
            bounds = [lo, *[int(k) for k in hk], hi]
            for i in range(cnt + 1):
                rec(int(hp[i]), bounds[i], bounds[i + 1], depth + 1)

        rec(self.root, 0, EMPTY_KEY, 1)
        if len(leaf_depths) != 1:
            raise TreeError(f"leaves at different depths: {sorted(leaf_depths)}")
        if leaf_depths.pop() != self.height:
            raise TreeError("stored height disagrees with actual leaf depth")
        # the chain must visit exactly the in-order leaves: stepping it in
        # lockstep with leaf_ids() also bounds the walk on a cyclic chain
        leaves = self.leaf_ids().tolist()
        node = leaves[0]
        for leaf in leaves:
            if node != leaf:
                raise TreeError(f"leaf chain reaches {node} where key order has leaf {leaf}")
            node = self.views.host(node).next_leaf
        if node != NO_NODE:
            raise TreeError(f"leaf chain continues past the last leaf to {node}")
        keys, _ = self.items()
        if np.any(keys[1:] <= keys[:-1]):
            raise TreeError("leaf keys are not globally sorted")
