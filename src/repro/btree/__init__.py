"""B+tree substrate: layout, host operations, vectorized batch traversal."""

from .layout import (
    HEADER_WORDS,
    OFF_COUNT,
    OFF_KEYS,
    OFF_LEAF,
    OFF_LOCK,
    OFF_NEXT,
    OFF_RF,
    OFF_VERSION,
    NodeLayout,
)
from .traversal import (
    batch_find_leaf,
    batch_leaf_lookup,
    batch_leaf_slots,
    batch_point_query,
    batch_range_scan,
    batch_range_spans,
    leaf_rf_values,
)
from .tree import BPlusTree, SplitEvent

__all__ = [
    "BPlusTree",
    "HEADER_WORDS",
    "NodeLayout",
    "OFF_COUNT",
    "OFF_KEYS",
    "OFF_LEAF",
    "OFF_LOCK",
    "OFF_NEXT",
    "OFF_RF",
    "OFF_VERSION",
    "SplitEvent",
    "batch_find_leaf",
    "batch_leaf_lookup",
    "batch_leaf_slots",
    "batch_point_query",
    "batch_range_scan",
    "batch_range_spans",
    "leaf_rf_values",
]
