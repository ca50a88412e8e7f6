"""GPU-style data-parallel primitives (the CUB substitute).

Everything Eirene's host pipeline needs: stable LSD radix sort, Blelloch
scans (plain and segmented), stream compaction and run-length detection.
Each primitive reports work counts for the device cost model. The scans
execute their GPU dataflow level by level; the radix sort's passes are
only charged, and its permutation, which stability fixes, is computed by
a numpy sort.
"""

from .compact import compact_indices, expand_runs, run_heads, run_lengths
from .radix import RadixWork, radix_argsort, radix_sort_pairs, significant_passes
from .scan import (
    ScanWork,
    exclusive_scan,
    inclusive_scan,
    segment_ids,
    segmented_exclusive_scan,
)

__all__ = [
    "RadixWork",
    "ScanWork",
    "compact_indices",
    "exclusive_scan",
    "expand_runs",
    "inclusive_scan",
    "radix_argsort",
    "radix_sort_pairs",
    "run_heads",
    "run_lengths",
    "segment_ids",
    "segmented_exclusive_scan",
    "significant_passes",
]
