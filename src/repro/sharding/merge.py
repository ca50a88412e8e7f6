"""Stitch per-shard batch outcomes back into one :class:`BatchOutcome`.

Shards are modeled as *separate devices running concurrently*, so the
merged batch time is the straggler's time (``max`` over shard seconds) and
the merged phase breakdown is the straggler's phase breakdown — whereas
device *work* (instructions, transactions, conflicts) sums across shards,
exactly like multi-GPU accounting. Per-shard :class:`PipelineTrace`s are
both merged into one trace (pass records summed by name) and kept
individually in ``outcome.extras["shards"]`` next to each shard's QoS
summary, so the harness can show where the straggler spent its time.

Result stitching:

* a point request appears on exactly one shard — its value and response
  time scatter straight back to its original batch index;
* a split range query appears on every shard it overlaps — its response
  time is the worst piece's (the request is only answered when its last
  shard finishes). Range rows stay in CSR form throughout: every shard row
  is tagged with its request's origin, the shards' rows concatenate in
  shard order, and one stable sort by origin groups each request's pieces.
  Stability keeps the shard order inside a request, which is key order
  since shards are contiguous key ranges — so the stitched rows are sorted
  exactly like the single-tree answer.
"""

from __future__ import annotations

import numpy as np

from .._types import OpKind
from ..baselines.base import BatchOutcome
from ..errors import SimulationError
from ..metrics.qos import ShardQoS, response_time_stats
from ..metrics.trace import merge_traces
from ..workloads.requests import BatchResults, RequestBatch
from .router import RoutedSubBatch


def merge_shard_outcomes(
    batch: RequestBatch,
    routed: list[RoutedSubBatch],
    outcomes: list[BatchOutcome | None],
    system: str,
) -> BatchOutcome:
    """Combine per-shard outcomes of one routed batch (None = empty shard)."""
    live = [(r, o) for r, o in zip(routed, outcomes) if o is not None]
    if not live:
        raise SimulationError("no shard produced an outcome (empty batch?)")
    if any(r.n != o.n_requests for r, o in live):
        raise SimulationError("shard outcome size disagrees with its sub-batch")

    results = BatchResults.empty(batch.n)
    response = np.zeros(batch.n, dtype=np.float64)
    for r, o in live:
        # point results scatter 1:1; a split range visits several shards, so
        # response time keeps the worst piece
        results.values[r.origin] = o.results.values
        np.maximum.at(response, r.origin, o.response_time_s)
    row_origin = np.concatenate(
        [np.repeat(r.origin, np.diff(o.results.range_offsets)) for r, o in live]
    )
    order = np.argsort(row_origin, kind="stable")
    range_idx = np.flatnonzero(batch.kinds == OpKind.RANGE)
    results.set_range_results(
        range_idx,
        np.bincount(row_origin, minlength=batch.n)[range_idx],
        np.concatenate([o.results.range_keys for _, o in live])[order],
        np.concatenate([o.results.range_values for _, o in live])[order],
    )

    straggler = max((o for _, o in live), key=lambda o: o.seconds)
    merged_trace = merge_traces([o.trace for _, o in live])
    shard_qos = [
        ShardQoS(
            shard=r.shard,
            n_requests=o.n_requests,
            seconds=o.seconds,
            stats=response_time_stats(o.response_time_s),
        )
        for r, o in live
    ]
    out = BatchOutcome(
        system=system,
        results=results,
        n_requests=batch.n,
        seconds=straggler.seconds,
        phase=straggler.phase,
        response_time_s=response,
        mem_inst=sum(o.mem_inst for _, o in live),
        control_inst=sum(o.control_inst for _, o in live),
        alu_inst=sum(o.alu_inst for _, o in live),
        atomic_inst=sum(o.atomic_inst for _, o in live),
        transactions=sum(o.transactions for _, o in live),
        conflicts=sum(o.conflicts for _, o in live),
        traversal_steps=float(
            np.average(
                [o.traversal_steps for _, o in live],
                weights=[max(o.n_requests, 1) for _, o in live],
            )
        ),
        trace=merged_trace,
        extras={
            "shards": shard_qos,
            "shard_traces": {r.shard: o.trace for r, o in live if o.trace is not None},
            "straggler_shard": max(live, key=lambda ro: ro[1].seconds)[0].shard,
        },
    )
    return out
