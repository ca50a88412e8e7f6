"""Sequential reference executor.

Executes a request batch in logical-timestamp order against a plain
key→value map. By the paper's §6 definition, a concurrent execution is
linearizable iff its results (and final state) equal this executor's.
Every system under test is checked against it; Eirene must always match,
the baselines are *expected* to diverge under same-key races (they do not
guarantee linearizability).

The map is two arrays: its keys, sorted and unique, and their values. A
batch is answered in array steps rather than one request at a time, with
results equal to the one-at-a-time replay:

* A point request (query, update, insert, delete) returns the value its
  key held just before it: the value written by the nearest earlier write
  to that key in the batch (``NULL_VALUE`` after a delete), else the
  key's value when the batch started. One stable sort by key finds every
  request's nearest earlier write.
* Only ranges need intermediate states. The batch is cut before each range
  that follows a write since the previous range, so inside a segment every
  range comes before every write. A segment's ranges read the state at the
  segment's start, and then the segment's last write per key is merged
  into the arrays.

This module imports nothing from the systems it checks: only numpy, the
shared scalar types and the request containers.
"""

from __future__ import annotations

import numpy as np

from .._types import NULL_VALUE, OpKind, is_update_kind_array
from ..workloads.requests import BatchResults, RequestBatch


class SequentialReference:
    """Timestamp-order executor over an in-memory map."""

    def __init__(self, keys: np.ndarray, values: np.ndarray) -> None:
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        if keys.shape != values.shape:
            raise ValueError("keys and values must have equal length")
        # the last value given for a key wins, as in a dict built in order
        self._keys, last = np.unique(keys[::-1], return_index=True)
        self._values = values[::-1][last]

    def execute(self, batch: RequestBatch) -> BatchResults:
        """Run the batch in timestamp order; returns the reference results."""
        results = BatchResults.empty(batch.n)
        kinds, keys = batch.kinds, batch.keys
        is_range = kinds == OpKind.RANGE
        is_write = is_update_kind_array(kinds)
        self._answer_points(batch, np.flatnonzero(~is_range), is_write, results)

        # cut before each range with a write between it and the previous range
        ranges = np.flatnonzero(is_range)
        cut = np.diff(np.cumsum(is_write)[ranges], prepend=0) > 0
        bounds = np.concatenate(([0], ranges[cut], [batch.n]))
        counts, rkeys, rvalues = [], [], []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            seg = ranges[np.searchsorted(ranges, lo):np.searchsorted(ranges, hi)]
            first = np.searchsorted(self._keys, keys[seg], side="left")
            n_rows = np.searchsorted(self._keys, batch.range_ends[seg], side="right") - first
            rows = np.repeat(first - (np.cumsum(n_rows) - n_rows), n_rows)
            rows += np.arange(rows.size)
            counts.append(n_rows)
            rkeys.append(self._keys[rows])
            rvalues.append(self._values[rows])
            self._apply_writes(batch, lo + np.flatnonzero(is_write[lo:hi]))
        results.set_range_results(
            ranges, *(np.concatenate(a) for a in (counts, rkeys, rvalues))
        )
        return results

    def _answer_points(
        self, batch: RequestBatch, points: np.ndarray, is_write: np.ndarray,
        results: BatchResults,
    ) -> None:
        """Every point request's result: the nearest earlier write to its key,
        else the key's value at the start of the batch."""
        if points.size == 0:
            return
        order = np.argsort(batch.keys[points], kind="stable")
        pos = points[order]  # key-sorted, timestamp order within a key
        skeys = batch.keys[pos]
        m = int(pos.size)
        head = np.empty(m, dtype=bool)
        head[0] = True
        np.not_equal(skeys[1:], skeys[:-1], out=head[1:])
        run = np.cumsum(head) - 1
        # exclusive segmented max-scan of write positions: offsetting each
        # run by run * (m + 2) keeps earlier runs' markers below its own
        marker = np.where(is_write[pos], np.arange(m), -1)
        prev = np.empty(m, dtype=np.int64)
        prev[0] = -1
        prev[1:] = marker[:-1]
        prev[head] = -1
        off = run * (m + 2)
        prev = np.maximum.accumulate(prev + off) - off
        src = pos[np.maximum(prev, 0)]
        written = np.where(
            batch.kinds[src] == OpKind.DELETE, np.int64(NULL_VALUE), batch.values[src]
        )
        at, present = self._locate(skeys[head])
        start = np.full(at.size, NULL_VALUE, dtype=np.int64)
        start[present] = self._values[at[present]]
        results.values[pos] = np.where(prev >= 0, written, start[run])

    def _apply_writes(self, batch: RequestBatch, writes: np.ndarray) -> None:
        """Merge the last of ``writes`` (timestamp order) per key into the map."""
        if writes.size == 0:
            return
        wkeys, last = np.unique(batch.keys[writes][::-1], return_index=True)
        src = writes[::-1][last]
        delete = batch.kinds[src] == OpKind.DELETE
        pos, present = self._locate(wkeys)
        put = present & ~delete
        self._values[pos[put]] = batch.values[src[put]]
        gone = present & delete
        if gone.any():
            self._keys = np.delete(self._keys, pos[gone])
            self._values = np.delete(self._values, pos[gone])
        new = ~present & ~delete
        if new.any():
            at = np.searchsorted(self._keys, wkeys[new])
            self._keys = np.insert(self._keys, at, wkeys[new])
            self._values = np.insert(self._values, at, batch.values[src[new]])

    def _locate(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each key's position in the map's key array (where it would be
        inserted when absent), and whether the map holds it."""
        pos = np.searchsorted(self._keys, keys)
        present = np.zeros(keys.size, dtype=bool)
        inside = pos < self._keys.size
        present[inside] = self._keys[pos[inside]] == keys[inside]
        return pos, present

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """Final map contents in key order."""
        return self._keys.copy(), self._values.copy()
