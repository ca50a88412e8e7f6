"""Typed node views generated from :class:`~repro.btree.layout.NodeLayout`.

Every node field the layout defines appears once in :data:`FIELDS`; from
that single declarative table two view classes are *generated* — one per
access plane — so call sites write ``node.count``, ``node.keys[slot]`` or
``node.children[i]`` instead of hand-rolled ``lay.addr(node, OFF_*)``
arithmetic:

* :class:`NodeAddrs` — the **address plane**: each field resolves to its
  word address. Device thread programs use this to ``yield Load(a.fence)``;
  the accounting stays wherever the instruction is executed, so swapping
  raw arithmetic for views is invisible to the event counters.
* :class:`HostNodeView` — the **host plane**: numpy views of the arena's
  words for bulk build, splits and validation, mirroring the paper's
  convention that CPU-side tree construction is free.

:class:`StructView` binds a layout to an arena and hands out per-node views
plus the vectorized address helpers the batch traversal engine needs
(``field_addrs``, ``key_rows``), so the level-synchronous gathers are also
expressed against field *names* rather than offsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..memory import MemoryArena
from .layout import (
    HEADER_WORDS,
    OFF_COUNT,
    OFF_FENCE,
    OFF_KEYS,
    OFF_LEAF,
    OFF_LOCK,
    OFF_NEXT,
    OFF_RF,
    OFF_VERSION,
    NodeLayout,
)


@dataclass(frozen=True)
class FieldSpec:
    """One scalar header field: its name and its offset word."""

    name: str
    offset: int


#: the declarative layout table all view classes are generated from —
#: one row per header word of :mod:`repro.btree.layout`
FIELDS: tuple[FieldSpec, ...] = (
    FieldSpec("count", OFF_COUNT),
    FieldSpec("leaf", OFF_LEAF),
    FieldSpec("version", OFF_VERSION),
    FieldSpec("rf", OFF_RF),
    FieldSpec("next_leaf", OFF_NEXT),
    FieldSpec("lock", OFF_LOCK),
    FieldSpec("fence", OFF_FENCE),
)

FIELD_BY_NAME: dict[str, FieldSpec] = {f.name: f for f in FIELDS}

if len(FIELDS) != HEADER_WORDS:  # pragma: no cover - layout/table drift guard
    raise AssertionError("FIELDS table out of sync with the node header layout")


# --------------------------------------------------------------------- #
# address plane
# --------------------------------------------------------------------- #
class ArrayAddrs:
    """Addresses of an in-node array (keys or payload)."""

    __slots__ = ("base", "width")

    def __init__(self, base: int, width: int) -> None:
        self.base = base
        self.width = width

    def __getitem__(self, slot):
        try:  # int fast path (hot: one call per separator examined)
            return self.base + slot
        except TypeError:
            return np.arange(self.width, dtype=np.int64)[slot] + self.base

    def __len__(self) -> int:
        return self.width

    def row(self) -> np.ndarray:
        """All slot addresses, in order (one coalesced warp access)."""
        return np.arange(self.base, self.base + self.width, dtype=np.int64)


class NodeAddrs:
    """Address plane: every field of one node resolved to its word address.

    Instances are immutable functions of ``(layout, node)`` and are memoized
    by :meth:`StructView.addrs`, so ``keys``/``payload`` are built eagerly
    once instead of per access.
    """

    __slots__ = ("_base", "_layout", "keys", "payload")

    def __init__(self, layout: NodeLayout, node: int) -> None:
        base = layout.node_base(node)
        self._base = base
        self._layout = layout
        self.keys = ArrayAddrs(base + OFF_KEYS, layout.fanout)
        self.payload = ArrayAddrs(base + layout.payload_off, layout.fanout + 1)

    # aliases matching what the payload means per node kind
    @property
    def children(self) -> ArrayAddrs:
        return self.payload

    values = children

    def words(self) -> range:
        """Every word address of the node (split plans own all of them)."""
        return range(self._base, self._base + self._layout.node_words)


def _addr_property(offset: int):
    def get(self: NodeAddrs) -> int:
        return self._base + offset

    return property(get)


for _f in FIELDS:
    setattr(NodeAddrs, _f.name, _addr_property(_f.offset))


# --------------------------------------------------------------------- #
# host plane
# --------------------------------------------------------------------- #
class HostNodeView:
    """Numpy-backed view of one node's words (bulk build, splits, validation)."""

    __slots__ = ("_data", "_base", "_layout")

    def __init__(self, data: np.ndarray, layout: NodeLayout, node: int) -> None:
        self._data = data
        self._base = layout.node_base(node)
        self._layout = layout

    @property
    def keys(self) -> np.ndarray:
        base = self._base + OFF_KEYS
        return self._data[base : base + self._layout.fanout]

    @property
    def payload(self) -> np.ndarray:
        base = self._base + self._layout.payload_off
        return self._data[base : base + self._layout.fanout + 1]

    children = payload
    values = payload

    def words(self) -> np.ndarray:
        return self._data[self._base : self._base + self._layout.node_words]


def _host_property(offset: int):
    def get(self: HostNodeView) -> int:
        return int(self._data[self._base + offset])

    def set_(self: HostNodeView, value: int) -> None:
        self._data[self._base + offset] = value

    return property(get, set_)


for _f in FIELDS:
    setattr(HostNodeView, _f.name, _host_property(_f.offset))


# --------------------------------------------------------------------- #
# the bound factory + vectorized plane
# --------------------------------------------------------------------- #
class StructView:
    """Layout-bound view factory over one arena.

    Hands out per-node views on both planes, plus the vectorized address
    helpers the level-synchronous batch traversal uses (whole-batch gathers
    of one field or one key row per node).
    """

    def __init__(self, arena: MemoryArena, layout: NodeLayout) -> None:
        self.arena = arena
        self.layout = layout
        #: node id -> NodeAddrs; addresses are a pure function of
        #: (layout, node), so sharing the objects is observation-free and
        #: saves reconstructing them on every traversal step.
        self._addr_cache: dict[int, NodeAddrs] = {}

    # per-node views ----------------------------------------------------
    def addrs(self, node: int) -> NodeAddrs:
        a = self._addr_cache.get(node)
        if a is None:
            a = self._addr_cache[node] = NodeAddrs(self.layout, node)
        return a

    def host(self, node: int) -> HostNodeView:
        return HostNodeView(self.arena.data, self.layout, node)

    # vectorized (host-plane) helpers -----------------------------------
    def node_bases(self, nodes: np.ndarray) -> np.ndarray:
        lay = self.layout
        return lay.base + np.asarray(nodes, dtype=np.int64) * lay.stride

    def field_addrs(self, nodes: np.ndarray, name: str) -> np.ndarray:
        """Address of field ``name`` for every node in ``nodes``."""
        return self.node_bases(nodes) + FIELD_BY_NAME[name].offset

    def host_field(self, nodes: np.ndarray, name: str) -> np.ndarray:
        """Host gather of one header field across ``nodes``."""
        return self.arena.data[self.field_addrs(nodes, name)]

    def key_rows(self, nodes: np.ndarray) -> np.ndarray:
        """Key rows of ``nodes`` (host plane; shape ``len(nodes) x fanout``).

        Gathered as whole rows of the node region viewed as a
        ``(node, word)`` matrix, rather than word by word.
        """
        lay = self.layout
        data = self.arena.data
        cap = (data.size - lay.base) // lay.stride
        matrix = data[lay.base : lay.base + cap * lay.stride].reshape(cap, lay.stride)
        return matrix[np.asarray(nodes, dtype=np.int64), OFF_KEYS : OFF_KEYS + lay.fanout]

    def payload_addrs(self, nodes: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Address of payload slot ``slots[i]`` in node ``nodes[i]``."""
        return self.node_bases(nodes) + self.layout.payload_off + slots
