"""Linearizability checker.

Compares a system's concurrent batch results and final tree state against
the :class:`~repro.lincheck.sequential.SequentialReference`. A mismatch is
reported as a :class:`~repro.errors.LinearizabilityViolation` carrying the
first few offending requests — enough to see *which* same-key race the
system resolved against timestamp order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._types import OpKind
from ..errors import LinearizabilityViolation
from ..workloads.requests import BatchResults, RequestBatch


@dataclass
class CheckReport:
    """Outcome of a linearizability check."""

    ok: bool
    n_requests: int
    value_mismatches: list[int] = field(default_factory=list)
    range_mismatches: list[int] = field(default_factory=list)
    state_mismatch: str | None = None

    @property
    def n_mismatches(self) -> int:
        return len(self.value_mismatches) + len(self.range_mismatches) + (
            1 if self.state_mismatch else 0
        )

    def describe(self, batch: RequestBatch | None = None, limit: int = 5) -> str:
        if self.ok:
            return f"linearizable: all {self.n_requests} request results match"
        lines = [f"NOT linearizable: {self.n_mismatches} mismatches"]
        for i in self.value_mismatches[:limit]:
            if batch is not None:
                lines.append(
                    f"  request {i}: {OpKind(batch.kinds[i]).name} key={batch.keys[i]}"
                )
            else:
                lines.append(f"  request {i}: value mismatch")
        for i in self.range_mismatches[:limit]:
            lines.append(f"  request {i}: range result mismatch")
        if self.state_mismatch:
            lines.append(f"  final state: {self.state_mismatch}")
        return "\n".join(lines)


def compare_results(
    batch: RequestBatch, got: BatchResults, expected: BatchResults
) -> CheckReport:
    """Compare per-request results; does not look at final state."""
    report = CheckReport(ok=True, n_requests=batch.n)
    is_range = batch.kinds == OpKind.RANGE
    report.value_mismatches = [
        int(i) for i in np.flatnonzero(~is_range & (got.values != expected.values))
    ]
    # a range mismatches if its row count or any of its rows differs; the
    # rows of equal-count ranges line up once the other ranges are masked out
    got_n, exp_n = np.diff(got.range_offsets), np.diff(expected.range_offsets)
    bad = is_range & (got_n != exp_n)
    got_rows, exp_rows = np.repeat(is_range & ~bad, got_n), np.repeat(is_range & ~bad, exp_n)
    owner = np.repeat(np.arange(batch.n), got_n)[got_rows]
    differs = (got.range_keys[got_rows] != expected.range_keys[exp_rows]) | (
        got.range_values[got_rows] != expected.range_values[exp_rows]
    )
    bad[owner[differs]] = True
    report.range_mismatches = [int(i) for i in np.flatnonzero(bad)]
    report.ok = not (report.value_mismatches or report.range_mismatches)
    return report


def compare_state(
    got_items: tuple[np.ndarray, np.ndarray],
    expected_items: tuple[np.ndarray, np.ndarray],
) -> str | None:
    """Compare final key/value contents; returns a description or None."""
    gk, gv = got_items
    ek, ev = expected_items
    if gk.size != ek.size:
        return f"size {gk.size} != expected {ek.size}"
    if not np.array_equal(gk, ek):
        first = int(np.flatnonzero(gk != ek)[0])
        return f"key divergence at position {first}: {gk[first]} != {ek[first]}"
    if not np.array_equal(gv, ev):
        first = int(np.flatnonzero(gv != ev)[0])
        return f"value divergence at key {gk[first]}: {gv[first]} != {ev[first]}"
    return None


def check_linearizable(
    batch: RequestBatch,
    got: BatchResults,
    expected: BatchResults,
    got_items: tuple[np.ndarray, np.ndarray] | None = None,
    expected_items: tuple[np.ndarray, np.ndarray] | None = None,
    raise_on_fail: bool = False,
) -> CheckReport:
    """Full check: per-request results plus (optionally) final state."""
    report = compare_results(batch, got, expected)
    if got_items is not None and expected_items is not None:
        report.state_mismatch = compare_state(got_items, expected_items)
        if report.state_mismatch:
            report.ok = False
    if raise_on_fail and not report.ok:
        raise LinearizabilityViolation(report.describe(batch))
    return report
