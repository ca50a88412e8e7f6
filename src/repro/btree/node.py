"""Scalar node accessors over the arena.

These helpers go through the *counted* arena plane; they are the units the
device-side programs (baselines and Eirene kernels) are built from. Host
code that must not be charged (bulk build, the sequential reference) uses
:class:`~repro.btree.tree.BPlusTree` host views instead.

Since the typed-view refactor this class is a thin method-style veneer over
:mod:`repro.btree.views` — each accessor delegates to the generated
:class:`~repro.btree.views.NodeView` / :class:`~repro.btree.views.HostNodeView`
planes, so the layout table in :data:`repro.btree.views.FIELDS` stays the
single source of field offsets and counted-access labels.
"""

from __future__ import annotations

import numpy as np

from .._types import EMPTY_KEY
from ..memory import MemoryArena
from .layout import NodeLayout
from .views import StructView


class NodeAccessor:
    """Counted scalar access to one node arena."""

    def __init__(self, arena: MemoryArena, layout: NodeLayout) -> None:
        self.arena = arena
        self.layout = layout

    @property
    def views(self) -> StructView:
        # rebuilt per access so callers that rebind ``self.arena`` (e.g. a
        # test moving a tree into a larger arena) keep a coherent view
        return StructView(self.arena, self.layout)

    # -- header ---------------------------------------------------------
    def count(self, node: int) -> int:
        return self.views.node(node).count

    def set_count(self, node: int, value: int) -> None:
        self.views.node(node).count = value

    def is_leaf(self, node: int) -> bool:
        return bool(self.views.node(node).leaf)

    def version(self, node: int) -> int:
        return self.views.node(node).version

    def bump_version(self, node: int) -> int:
        """Atomically increment the split version; returns the new value."""
        return self.views.node(node).bump_version()

    def rf(self, node: int) -> int:
        return self.views.node(node).rf

    def set_rf(self, node: int, value: int) -> None:
        self.views.node(node).rf = value

    def fence(self, node: int) -> int:
        return self.views.node(node).fence

    def set_fence(self, node: int, value: int) -> None:
        self.views.node(node).fence = value

    def next_leaf(self, node: int) -> int:
        return self.views.node(node).next_leaf

    def set_next_leaf(self, node: int, value: int) -> None:
        self.views.node(node).next_leaf = value

    # -- keys / payload --------------------------------------------------
    def key(self, node: int, slot: int) -> int:
        return self.views.node(node).keys[slot]

    def set_key(self, node: int, slot: int, value: int) -> None:
        self.views.node(node).keys[slot] = value

    def payload(self, node: int, slot: int) -> int:
        return self.views.node(node).payload[slot]

    def set_payload(self, node: int, slot: int, value: int) -> None:
        self.views.node(node).payload[slot] = value

    # -- warp-style vector reads ------------------------------------------
    def keys_row(self, node: int) -> np.ndarray:
        """Read all key slots of a node as one coalesced warp load."""
        return self.views.node(node).keys[:]

    # -- host (uncounted) views -------------------------------------------
    def host_keys(self, node: int) -> np.ndarray:
        return self.views.host(node).keys

    def host_payload(self, node: int) -> np.ndarray:
        return self.views.host(node).payload

    def host_min_key(self, node: int) -> int:
        """Smallest key in the subtree rooted at ``node`` (uncounted)."""
        while not self.views.host(node).leaf:
            node = int(self.views.host(node).children[0])
        return int(self.views.host(node).keys[0])

    def clear_node(self, node: int, leaf: bool) -> None:
        """Host-side initialization of a fresh node (uncounted)."""
        h = self.views.host(node)
        h.words()[:] = 0
        h.leaf = 1 if leaf else 0
        h.rf = EMPTY_KEY
        h.next_leaf = -1
        h.keys[:] = EMPTY_KEY
