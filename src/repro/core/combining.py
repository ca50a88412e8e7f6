"""Combining-based synchronization (§4.1.1).

The batch's point requests are sorted by (key, logical timestamp) — a
stable radix sort by key over the arrival-ordered buffer — and scanned to
form *runs* of equal keys. Per run:

* one request is **issued** to traverse the tree: the update-class request
  with the largest timestamp if the run contains any update/insert/delete,
  otherwise the query with the largest timestamp;
* every request's return value is determined by its *dependence*: the
  nearest update-class request strictly before it (within the run, in
  timestamp order) supplies its value (``NULL`` if that is a delete);
  requests with no in-run predecessor take the key's *old value*, which the
  issued request retrieves from the leaf.

Because exactly one request per key is issued, key conflicts are eliminated,
and because every return value is computed from the timestamp-order
dependence chain, the batch is linearizable (§6).

Everything here is expressed as the GPU primitives the paper names: radix
sort, head-flag run detection, and segmented max-scans (implemented as one
``maximum.accumulate`` over offset-partitioned values).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._types import NULL_VALUE, OpKind, is_query_kind_array, is_update_kind_array
from ..gpuprims import RadixWork, radix_argsort, run_heads, run_lengths
from ..workloads.requests import BatchResults, RequestBatch


@dataclass
class CombineWork:
    """Primitive work performed by the combining pass (for the cost model)."""

    sort: RadixWork = field(default_factory=RadixWork)
    scan_elements: int = 0


@dataclass
class CombinePlan:
    """Output of the combining pass over a batch's point requests."""

    n_total: int
    #: original indices of point (non-range) requests, and the sort perm
    point_idx: np.ndarray
    perm: np.ndarray
    #: per sorted position: original request index
    sorted_orig: np.ndarray
    #: sorted views of the point requests
    sorted_keys: np.ndarray
    sorted_kinds: np.ndarray
    sorted_values: np.ndarray
    #: run structure over sorted positions
    run_id: np.ndarray
    run_start: np.ndarray
    run_len: np.ndarray
    #: per run: sorted position / original index / fields of the issued request
    issued_pos: np.ndarray
    issued_orig: np.ndarray
    issued_kinds: np.ndarray
    issued_keys: np.ndarray
    issued_values: np.ndarray
    #: per sorted position: dependence (nearest in-run predecessor write)
    prev_valid: np.ndarray
    prev_is_delete: np.ndarray
    prev_value: np.ndarray
    work: CombineWork

    @property
    def n_point(self) -> int:
        return int(self.point_idx.size)

    @property
    def n_runs(self) -> int:
        return int(self.run_start.size)

    @property
    def n_combined(self) -> int:
        """Requests whose tree traversal was eliminated (key conflicts)."""
        return self.n_point - self.n_runs

    @property
    def run_has_update(self) -> np.ndarray:
        """Per run: does it contain any update-class request?"""
        return is_update_kind_array(self.issued_kinds)


def combine_point_requests(batch: RequestBatch) -> CombinePlan:
    """Sort + combine the batch's point requests (§4.1.1, Fig. 3)."""
    work = CombineWork()
    kinds = batch.kinds
    point_mask = kinds != OpKind.RANGE
    point_idx = np.flatnonzero(point_mask)
    keys = batch.keys[point_idx]
    ns = int(point_idx.size)

    # stable sort by key == (key, timestamp) lexicographic order, because
    # the buffer is already in timestamp order
    perm = radix_argsort(keys, work.sort)
    sorted_orig = point_idx[perm]
    sorted_keys = keys[perm]
    sorted_kinds = batch.kinds[sorted_orig]
    sorted_values = batch.values[sorted_orig]

    heads = run_heads(sorted_keys)
    run_start, run_len = run_lengths(heads)
    run_id = np.cumsum(heads, dtype=np.int64) - 1
    work.scan_elements += ns

    if ns == 0:
        empty = np.zeros(0, dtype=np.int64)
        return CombinePlan(
            n_total=batch.n,
            point_idx=point_idx,
            perm=perm,
            sorted_orig=sorted_orig,
            sorted_keys=sorted_keys,
            sorted_kinds=sorted_kinds,
            sorted_values=sorted_values,
            run_id=run_id,
            run_start=run_start,
            run_len=run_len,
            issued_pos=empty,
            issued_orig=empty,
            issued_kinds=np.zeros(0, dtype=sorted_kinds.dtype),
            issued_keys=empty,
            issued_values=empty,
            prev_valid=np.zeros(0, dtype=bool),
            prev_is_delete=np.zeros(0, dtype=bool),
            prev_value=empty,
            work=work,
        )

    # -- segmented max-scans over update-class markers -------------------- #
    # offset partitioning: marker + run_id * BIG makes a global cummax act
    # as a per-run cummax (cross-run values decode below any real marker)
    pos = np.arange(ns, dtype=np.int64)
    is_upd = is_update_kind_array(sorted_kinds)
    marker = np.where(is_upd, pos, np.int64(-1))
    big = np.int64(ns + 2)
    seg_off = run_id * big
    work.scan_elements += 2 * ns

    # inclusive scan: last update-class at-or-before each position
    incl = np.maximum.accumulate(marker + seg_off) - seg_off
    # exclusive scan: shift markers one right, reset at run heads
    marker_ex = np.empty_like(marker)
    marker_ex[0] = -1
    marker_ex[1:] = marker[:-1]
    marker_ex[heads] = -1
    excl = np.maximum.accumulate(marker_ex + seg_off) - seg_off

    run_end = run_start + run_len - 1
    # per run: last update-class position, or -1 when the run is all-query
    last_upd = incl[run_end]
    last_upd = np.where(last_upd < 0, np.int64(-1), last_upd)
    issued_pos = np.where(last_upd >= 0, last_upd, run_end)

    prev = np.where(excl < 0, np.int64(-1), excl)
    prev_valid = prev >= 0
    prev_c = np.maximum(prev, 0)
    prev_is_delete = prev_valid & (sorted_kinds[prev_c] == OpKind.DELETE)
    prev_value = np.where(prev_valid, sorted_values[prev_c], NULL_VALUE)

    issued_orig = sorted_orig[issued_pos]
    return CombinePlan(
        n_total=batch.n,
        point_idx=point_idx,
        perm=perm,
        sorted_orig=sorted_orig,
        sorted_keys=sorted_keys,
        sorted_kinds=sorted_kinds,
        sorted_values=sorted_values,
        run_id=run_id,
        run_start=run_start,
        run_len=run_len,
        issued_pos=issued_pos,
        issued_orig=issued_orig,
        issued_kinds=sorted_kinds[issued_pos],
        issued_keys=sorted_keys[issued_pos],
        issued_values=sorted_values[issued_pos],
        prev_valid=prev_valid,
        prev_is_delete=prev_is_delete,
        prev_value=prev_value,
        work=work,
    )


def propagate_results(
    plan: CombinePlan, old_vals_per_run: np.ndarray, results: BatchResults
) -> None:
    """RESULT_CAL (§4.2, Algorithm 1 line 6): fill every point request's
    return value from its dependence and the issued requests' old values.

    ``old_vals_per_run`` holds, per run, the key's value in the tree at the
    start of the batch (``NULL_VALUE`` when absent) as retrieved by the
    issued request.
    """
    if plan.n_point == 0:
        return
    old = old_vals_per_run[plan.run_id]
    res_sorted = np.where(
        plan.prev_valid,
        np.where(plan.prev_is_delete, np.int64(NULL_VALUE), plan.prev_value),
        old,
    )
    results.values[plan.sorted_orig] = res_sorted
