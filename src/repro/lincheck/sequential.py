"""Sequential reference executor.

Executes a request batch one request at a time in logical-timestamp order
against a plain key→value map. By the paper's §6 definition, a concurrent
execution is linearizable iff its results (and final state) equal this
executor's. Every system under test is checked against it; Eirene must
always match, the baselines are *expected* to diverge under same-key races
(they do not guarantee linearizability).
"""

from __future__ import annotations

import numpy as np

from .._types import NULL_VALUE, OpKind
from ..workloads.requests import BatchResults, RequestBatch, flatten_scans


class SequentialReference:
    """Timestamp-order executor over an in-memory map."""

    def __init__(self, keys: np.ndarray, values: np.ndarray) -> None:
        self.map: dict[int, int] = {
            int(k): int(v) for k, v in zip(keys, values, strict=True)
        }
        self._sorted_keys: np.ndarray | None = None

    def _sorted(self) -> np.ndarray:
        if self._sorted_keys is None:
            self._sorted_keys = np.array(sorted(self.map), dtype=np.int64)
        return self._sorted_keys

    def _dirty(self) -> None:
        self._sorted_keys = None

    def execute(self, batch: RequestBatch) -> BatchResults:
        """Run the batch sequentially; returns the reference results."""
        results = BatchResults.empty(batch.n)
        scans: list[tuple[np.ndarray, np.ndarray]] = []
        kinds = batch.kinds
        keys = batch.keys
        values = batch.values
        ends = batch.range_ends
        for i in range(batch.n):
            kind = kinds[i]
            key = int(keys[i])
            if kind == OpKind.QUERY:
                results.values[i] = self.map.get(key, NULL_VALUE)
            elif kind in (OpKind.UPDATE, OpKind.INSERT):
                results.values[i] = self.map.get(key, NULL_VALUE)
                if key not in self.map:
                    self._dirty()
                self.map[key] = int(values[i])
            elif kind == OpKind.DELETE:
                if key in self.map:
                    results.values[i] = self.map.pop(key)
                    self._dirty()
                else:
                    results.values[i] = NULL_VALUE
            elif kind == OpKind.RANGE:
                sk = self._sorted()
                lo = int(np.searchsorted(sk, key, side="left"))
                hi = int(np.searchsorted(sk, int(ends[i]), side="right"))
                rk = sk[lo:hi].copy()  # a view would pin all of sk until the end
                rv = np.array([self.map[int(k)] for k in rk], dtype=np.int64)
                scans.append((rk, rv))
        results.set_range_results(np.flatnonzero(kinds == OpKind.RANGE), *flatten_scans(scans))
        return results

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """Final map contents in key order."""
        sk = self._sorted()
        return sk.copy(), np.array([self.map[int(k)] for k in sk], dtype=np.int64)
