"""Run detection (CUB ``DeviceRunLengthEncode``).

The combining scan (§4.1.1) detects runs of equal keys in the sorted
stream (``run_heads`` / ``run_lengths``): one request per run is issued.
"""

from __future__ import annotations

import numpy as np


def run_heads(sorted_keys: np.ndarray) -> np.ndarray:
    """Boolean mask marking the first element of each equal-key run."""
    keys = np.asarray(sorted_keys)
    heads = np.empty(keys.size, dtype=bool)
    if keys.size == 0:
        return heads
    heads[0] = True
    np.not_equal(keys[1:], keys[:-1], out=heads[1:])
    return heads


def run_lengths(heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(start index, length) of each run, from a run-head mask."""
    heads = np.asarray(heads, dtype=bool)
    starts = np.flatnonzero(heads)
    if starts.size == 0:
        return starts, starts.copy()
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1] = heads.size
    return starts, ends - starts
