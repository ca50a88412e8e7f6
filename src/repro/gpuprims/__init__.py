"""GPU-style data-parallel primitives (the CUB substitute).

What Eirene's host pipeline executes: a stable LSD radix sort and
run-length detection. The radix sort's passes are only charged
(:class:`RadixWork`), and its permutation, which stability fixes, is
computed by a numpy sort. The pipeline's scans are charged through the
cost model (``CombineWork.scan_elements``) and computed with numpy.
"""

from .compact import run_heads, run_lengths
from .radix import RadixWork, radix_argsort, significant_passes

__all__ = [
    "RadixWork",
    "radix_argsort",
    "run_heads",
    "run_lengths",
    "significant_passes",
]
