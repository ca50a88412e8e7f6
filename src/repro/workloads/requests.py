"""Request batches and result containers.

Requests are stored structure-of-arrays (numpy), matching how the real
system buffers them in host memory before transfer (§7). A request's
*logical timestamp* is its index in the batch — its arrival order in the
buffer — which is exactly what the paper's linearizability argument keys on.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .._types import KIND_DTYPE, MAX_KEY, NULL_VALUE, OpKind
from ..errors import WorkloadError

#: OpKind values are contiguous, so a min/max check validates a batch's
#: kinds (plain ints: numpy compares them much faster than enum members)
_KIND_MIN, _KIND_MAX, _RANGE = int(min(OpKind)), int(max(OpKind)), int(OpKind.RANGE)


def check_key_range(keys) -> None:
    """Reject any key outside ``[0, MAX_KEY]`` with :class:`WorkloadError`.

    The radix sort needs non-negative keys, and ``EMPTY_KEY`` (above
    ``MAX_KEY``) marks a leaf's unused slots, so no request may name it.
    """
    keys = np.asarray(keys)
    if keys.size and (keys.min() < 0 or keys.max() > MAX_KEY):
        bad = np.flatnonzero((keys < 0) | (keys > MAX_KEY))
        raise WorkloadError(f"keys {keys[bad]} outside [0, {MAX_KEY}] at requests {bad}")


@dataclass
class RequestBatch:
    """One buffered batch of concurrent requests (SoA)."""

    kinds: np.ndarray  # int8 OpKind per request
    keys: np.ndarray  # int64 target key (lower bound for RANGE)
    values: np.ndarray  # int64 payload for UPDATE/INSERT; 0 otherwise
    range_ends: np.ndarray  # int64 inclusive upper bound for RANGE; 0 otherwise

    def __post_init__(self) -> None:
        kinds = np.asarray(self.kinds)
        self.keys = np.ascontiguousarray(self.keys, dtype=np.int64)
        self.values = np.ascontiguousarray(self.values, dtype=np.int64)
        self.range_ends = np.ascontiguousarray(self.range_ends, dtype=np.int64)
        if not (self.keys.size == self.values.size == self.range_ends.size == kinds.size):
            raise WorkloadError("request batch arrays must have equal length")
        if kinds.size and (kinds.min() < _KIND_MIN or kinds.max() > _KIND_MAX):
            raise WorkloadError(f"unknown request kinds in {np.unique(kinds)}")
        self.kinds = np.ascontiguousarray(kinds, dtype=KIND_DTYPE)
        check_key_range(self.keys)
        inverted = np.flatnonzero((self.kinds == _RANGE) & (self.range_ends < self.keys))
        if inverted.size:
            raise WorkloadError(f"empty range (range_end < key) at requests {inverted}")

    @property
    def n(self) -> int:
        return int(self.kinds.size)

    def __len__(self) -> int:
        return self.n

    @property
    def timestamps(self) -> np.ndarray:
        """Logical timestamps = arrival order in the buffer."""
        return np.arange(self.n, dtype=np.int64)

    def kind_counts(self) -> dict[OpKind, int]:
        return {k: int((self.kinds == k).sum()) for k in OpKind}

    def subset(self, idx: np.ndarray) -> "RequestBatch":
        return RequestBatch(
            kinds=self.kinds[idx],
            keys=self.keys[idx],
            values=self.values[idx],
            range_ends=self.range_ends[idx],
        )

    @classmethod
    def from_ops(cls, ops: list[tuple]) -> "RequestBatch":
        """Build from a list of op tuples — test/example convenience.

        Accepted forms: ``(OpKind.QUERY, key)``, ``(OpKind.UPDATE, key, value)``,
        ``(OpKind.INSERT, key, value)``, ``(OpKind.DELETE, key)``,
        ``(OpKind.RANGE, lo, hi)``.
        """
        n = len(ops)
        kinds = np.zeros(n, dtype=KIND_DTYPE)
        keys = np.zeros(n, dtype=np.int64)
        values = np.zeros(n, dtype=np.int64)
        ends = np.zeros(n, dtype=np.int64)
        for i, op in enumerate(ops):
            kind = OpKind(op[0])
            kinds[i] = kind
            keys[i] = op[1]
            if kind in (OpKind.UPDATE, OpKind.INSERT):
                if len(op) != 3:
                    raise WorkloadError(f"{kind.name} needs (kind, key, value): {op}")
                values[i] = op[2]
            elif kind == OpKind.RANGE:
                if len(op) != 3:
                    raise WorkloadError(f"RANGE needs (kind, lo, hi): {op}")
                ends[i] = op[2]
            elif len(op) != 2:
                raise WorkloadError(f"{kind.name} needs (kind, key): {op}")
        return cls(kinds=kinds, keys=keys, values=values, range_ends=ends)


@dataclass
class BatchResults:
    """Results for one batch, indexed by request position (timestamp).

    Point requests put their answer in ``values`` (queries: the value or
    ``NULL_VALUE``; update-class: the *old* value at their linearization
    point, i.e. the value an atomic swap would have returned). Range
    queries store their pairs in the flat ``range_keys``/``range_values``
    arrays, delimited by ``range_offsets``.
    """

    values: np.ndarray
    range_offsets: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.int64))
    range_keys: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    range_values: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    @classmethod
    def empty(cls, n: int) -> "BatchResults":
        return cls(
            values=np.full(n, NULL_VALUE, dtype=np.int64),
            range_offsets=np.zeros(n + 1, dtype=np.int64),
        )

    @property
    def n(self) -> int:
        return int(self.values.size)

    def range_result(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = int(self.range_offsets[i]), int(self.range_offsets[i + 1])
        return self.range_keys[lo:hi], self.range_values[lo:hi]

    def set_range_results(
        self,
        positions: np.ndarray,
        counts: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Install range rows in CSR form.

        ``positions`` are the answered requests (strictly increasing),
        ``counts[j]`` the number of rows of request ``positions[j]``, and
        ``keys``/``values`` the flat rows in that order. Requests not named
        get no rows.
        """
        positions, counts, keys, values = (
            np.asarray(a, dtype=np.int64) for a in (positions, counts, keys, values)
        )
        if positions.shape != counts.shape or keys.shape != values.shape:
            raise WorkloadError("range results: mismatched array lengths")
        if np.any(np.diff(positions) <= 0) or np.any((positions < 0) | (positions >= self.n)):
            raise WorkloadError(
                f"range results: positions must be strictly increasing in [0, {self.n})"
            )
        if np.any(counts < 0) or counts.sum() != keys.size:
            raise WorkloadError(f"range results: counts must be >= 0 and sum to {keys.size}")
        per_request = np.zeros(self.n + 1, dtype=np.int64)
        per_request[positions + 1] = counts
        self.range_offsets = np.cumsum(per_request)
        self.range_keys, self.range_values = keys, values


def range_ordinals(batch: RequestBatch) -> tuple[np.ndarray, np.ndarray]:
    """The batch's range request positions, and per request its ordinal
    among them: the slot its scan takes in a :func:`flatten_scans` list."""
    is_range = batch.kinds == OpKind.RANGE
    return np.flatnonzero(is_range), np.cumsum(is_range) - 1


def flatten_scans(
    scans: list[tuple[Sequence[int], Sequence[int]]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(counts, keys, values)`` of per-range ``(keys, values)`` scans,
    concatenated in list order, for :meth:`BatchResults.set_range_results`."""
    counts = np.array([len(ks) for ks, _ in scans], dtype=np.int64)
    total = int(counts.sum())
    keys = np.fromiter(chain.from_iterable(ks for ks, _ in scans), np.int64, total)
    values = np.fromiter(chain.from_iterable(vs for _, vs in scans), np.int64, total)
    return counts, keys, values
