"""Range queries under combining (§4.1.2).

A range query cannot be combined per-key, and executing it "in the original
manner" against the tree would be wrong once updates in its range were
combined away (Fig. 4). The paper's mechanism, implemented here:

* range queries are sorted with the other requests by their lower bound
  (they ride the same pipeline; their tree scan reads the pre-batch state
  because the query kernel launches before the update kernel);
* for every key inside a range that also has update-class requests in the
  batch, an *artificial query* is generated with the range query's
  timestamp and inserted into that key's dependence chain (Fig. 5);
* after the range executes, each patched key's value in the range result is
  replaced by the artificial query's result — including **insertion** of a
  key the pre-batch tree lacked (the artificial query saw an insert before
  the range's timestamp) and **removal** of a key whose nearest preceding
  update was a delete.

An artificial query whose dependence chain has no write before the range's
timestamp resolves to the key's old value — a no-op patch, skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._types import NULL_VALUE, OpKind, is_update_kind_array
from ..workloads.requests import BatchResults, RequestBatch
from .combining import CombinePlan


@dataclass
class RangePatchPlan:
    """Artificial-query patches grouped by range request.

    Parallel arrays, sorted by (range request, key): patch ``j`` says that
    range ``range_pos[j]`` must see ``key[j]`` with ``value[j]``
    (``NULL_VALUE`` ⇒ the key is absent at the range's timestamp).
    """

    range_pos: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    keys: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    values: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    @property
    def n(self) -> int:
        return int(self.range_pos.size)


def plan_range_patches(batch: RequestBatch, plan: CombinePlan) -> RangePatchPlan:
    """Generate artificial queries for every (range, updated key) pair."""
    range_idx = np.flatnonzero(batch.kinds == OpKind.RANGE)
    if range_idx.size == 0 or plan.n_runs == 0:
        return RangePatchPlan()

    # each range covers the runs [r0, r1) of the key-sorted run keys
    run_keys = plan.sorted_keys[plan.run_start]
    r0 = np.searchsorted(run_keys, batch.keys[range_idx], side="left")
    r1 = np.searchsorted(run_keys, batch.range_ends[range_idx], side="right")
    span = r1 - r0
    pair_ts = np.repeat(range_idx, span)  # a range's timestamp is its index
    pair_run = np.arange(int(span.sum())) + np.repeat(r0 - (np.cumsum(span) - span), span)

    # update-class elements in the sorted domain are (run, timestamp)-ordered,
    # so one composite key finds each artificial query's nearest earlier write
    upd_pos = np.flatnonzero(is_update_kind_array(plan.sorted_kinds))
    upd_run = plan.run_id[upd_pos]
    stride = batch.n + 1
    upd_key = upd_run * stride + plan.sorted_orig[upd_pos]
    w = np.searchsorted(upd_key, pair_run * stride + pair_ts, side="left") - 1
    # no earlier write in the run: the artificial query reads the old value
    hit = w >= 0
    hit[hit] = upd_run[w[hit]] == pair_run[hit]
    w = upd_pos[w[hit]]
    return RangePatchPlan(
        range_pos=pair_ts[hit],
        keys=run_keys[pair_run[hit]],
        values=np.where(
            plan.sorted_kinds[w] == OpKind.DELETE, NULL_VALUE, plan.sorted_values[w]
        ),
    )


def apply_range_patches(
    batch: RequestBatch, patch_plan: RangePatchPlan, results: BatchResults
) -> None:
    """Patch the raw pre-batch range scans installed in ``results`` in place.

    One ``lexsort`` over (range, key, source) puts every patch right after
    the raw row it replaces, so keeping the last row of each (range, key)
    lets the patch win; tombstone patches (``NULL_VALUE``) then drop out.
    """
    if patch_plan.n == 0:
        return
    raw_pos = np.repeat(np.arange(batch.n), np.diff(results.range_offsets))
    pos = np.concatenate([raw_pos, patch_plan.range_pos])
    keys = np.concatenate([results.range_keys, patch_plan.keys])
    values = np.concatenate([results.range_values, patch_plan.values])
    is_patch = np.repeat([False, True], [raw_pos.size, patch_plan.n])
    order = np.lexsort((is_patch, keys, pos))
    pos, keys, values, is_patch = pos[order], keys[order], values[order], is_patch[order]
    last = np.ones(pos.size, dtype=bool)
    last[:-1] = (pos[1:] != pos[:-1]) | (keys[1:] != keys[:-1])
    keep = last & ~(is_patch & (values == NULL_VALUE))
    range_idx = np.flatnonzero(batch.kinds == OpKind.RANGE)
    counts = np.bincount(pos[keep], minlength=batch.n)[range_idx]
    results.set_range_results(range_idx, counts, keys[keep], values[keep])
