"""GB-tree without concurrency control — the "ideal" profiling reference.

The first bar of the paper's Fig. 1: the same B+tree and kernels with all
conflict detection/resolution removed. It is *not* a correct concurrent
structure (the paper uses it only as the lower bound on per-request work);
in the SIMT engine its mutations execute through the instantaneous host
path, so the tree never corrupts, while the charged instruction stream is
the unsynchronized one.

Pipeline: one unsynchronized kernel pass plus the shared apply/response/
finalize passes — the smallest pass list of the four systems.
"""

from __future__ import annotations

import numpy as np

from .._types import OpKind, is_update_kind_array
from ..btree import batch_range_spans
from ..btree.device_ops import d_find_leaf, d_search_leaf, d_walk_leaves
from ..core.pipeline import (
    FinalizePass,
    HostApplyPass,
    Pass,
    PassPipeline,
    PipelineContext,
    SimtResponsePass,
    WeightedResponsePass,
)
from ..simt import Mark, Store
from ..workloads.requests import flatten_scans, range_ordinals
from .base import System


class NoCCChargePass(Pass):
    """Vector engine: charge the unsynchronized per-request kernel work."""

    name = "kernel"

    def run(self, ctx: PipelineContext) -> None:
        batch = ctx.batch
        im = ctx.imodel
        tree = ctx.tree
        point = batch.kinds != OpKind.RANGE
        q_mask = batch.kinds == OpKind.QUERY
        w_mask = is_update_kind_array(batch.kinds)
        n_point = int(point.sum())
        height = tree.height

        # every point request descends root→leaf and touches its leaf
        ctx.totals.add(im.node_visit_plain, count=n_point * height)
        ctx.totals.add(im.leaf_lookup_plain, count=int(q_mask.sum()))
        ctx.totals.add(im.leaf_update_plain, count=int(w_mask.sum()))

        # ranges: descent plus the spanned leaf chain
        range_idx = np.flatnonzero(batch.kinds == OpKind.RANGE)
        if range_idx.size:
            spans = batch_range_spans(tree, batch.keys[range_idx], batch.range_ends[range_idx])
            ctx.totals.add(im.node_visit_plain, count=int(range_idx.size) * height)
            ctx.totals.add(im.leaf_lookup_plain, count=int(spans.sum()))

        ctx.traversal_steps = float(height)
        ctx.roofline_phase("query_kernel")


class NoCCSimtKernelPass(Pass):
    """SIMT engine: one launch of unsynchronized per-request programs."""

    name = "kernel"

    def run(self, ctx: PipelineContext) -> None:
        batch = ctx.batch
        tree = ctx.tree
        n = ctx.n
        results = ctx.results
        range_idx, range_slot = range_ordinals(batch)
        scans: list = [None] * range_idx.size
        steps_taken = np.zeros(n, dtype=np.int64)

        def make_program(i: int):
            kind = int(batch.kinds[i])
            key = int(batch.keys[i])
            slot = int(range_slot[i])

            def program():
                leaf, steps = yield from d_find_leaf(tree, key)
                steps_taken[i] = steps
                if kind == OpKind.QUERY:
                    val = yield from d_search_leaf(tree, leaf, key)
                    results.values[i] = val
                elif kind in (OpKind.UPDATE, OpKind.INSERT):
                    # unsynchronized mutation: host path + charged stores
                    results.values[i] = tree.upsert(key, int(batch.values[i]))
                    yield from _charge_leaf_write(tree, leaf)
                elif kind == OpKind.DELETE:
                    results.values[i] = tree.delete(key)
                    yield from _charge_leaf_write(tree, leaf)
                elif kind == OpKind.RANGE:
                    hi = int(batch.range_ends[i])
                    end_leaf, extra = yield from d_walk_leaves(tree, leaf, hi)
                    steps_taken[i] += extra
                    scans[slot] = tree.range_scan(key, hi)
                yield Mark(i)

            return program()

        launch = ctx.launch()
        launch.add_programs([make_program(i) for i in range(n)])
        ctx.run_launch(launch, "query_kernel")
        results.set_range_results(range_idx, *flatten_scans(scans))
        if n:
            ctx.traversal_steps = float(steps_taken.mean())


class NoCCGBTree(System):
    """B+tree kernels with no synchronization (profiling reference)."""

    name = "GB-tree w/o concurrent control"

    def build_pipeline(self, engine: str) -> PassPipeline:
        if engine == "vector":
            passes = [
                NoCCChargePass(),
                # plain splits rewrite in place: no acquire storm
                HostApplyPass(split_cost_factor=0.5),
                WeightedResponsePass(),
                FinalizePass(),
            ]
        else:
            passes = [NoCCSimtKernelPass(), SimtResponsePass(), FinalizePass()]
        return PassPipeline(passes, name=f"nocc/{engine}")


def _charge_leaf_write(tree, leaf: int):
    """Charge the stores an in-leaf mutation performs (idempotent rewrites
    of the leaf's current contents — same addresses, same coalescing)."""
    keys = tree.views.addrs(leaf).keys
    data = tree.arena.data
    for slot in range(tree.layout.fanout // 2 + 1):
        addr = keys[slot]
        yield Store(addr, int(data[addr]))
