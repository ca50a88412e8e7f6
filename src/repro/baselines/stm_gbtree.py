"""STM GB-tree baseline (Holey & Zhai, ICPP'14).

Every request — query, update, range — executes as one eager transaction
covering its whole tree traversal and leaf operation. This is the paper's
high-overhead baseline: each transactional word read costs three loads
(ownership, version, data), commits re-validate the read set, and any
overlap with a writer aborts and restarts the whole request. Splits go
through the structure-modification path of
:func:`repro.btree.device_ops.d_smo_upsert`.

Pipeline: one whole-operation transactional kernel pass plus the shared
apply/response/finalize passes.
"""

from __future__ import annotations

import numpy as np

from .._types import OpKind
from ..btree import batch_range_spans
from ..btree.device_ops import (
    d_find_leaf_stm,
    d_leaf_delete_stm,
    d_leaf_upsert_stm,
    d_search_leaf_stm,
    d_smo_upsert,
)
from ..btree.tree import BPlusTree
from ..core.pipeline import (
    FinalizePass,
    HostApplyPass,
    Pass,
    PassPipeline,
    PipelineContext,
    SimtResponsePass,
    WeightedResponsePass,
)
from ..device import DeviceContext
from ..errors import SimulationError, TransactionAborted
from ..simt import BRANCH, Mark
from ..stm import DeviceStm, StmRegion
from ..workloads.requests import flatten_scans, range_ordinals
from .base import System
from .model import OVERLAP, batch_collisions

#: fraction of a writer's window a (shorter) read-only tx is exposed to.
READER_EXPOSURE = 0.5

#: give up after this many aborts of one request (livelock guard).
MAX_RETRIES = 10_000


class StmChargePass(Pass):
    """Vector engine: whole-operation STM collision model + work charges."""

    name = "kernel"

    def run(self, ctx: PipelineContext) -> None:
        batch = ctx.batch
        im = ctx.imodel
        tree = ctx.tree
        totals = ctx.totals
        height = tree.height
        n = ctx.n

        # expected aborts: writers serialize per leaf; readers are exposed
        # to every writer of their leaf for a fraction of its window
        q_idx, w_idx, q_leaves, w_rank, writers_on_leaf = batch_collisions(tree, batch)
        retries = np.zeros(n, dtype=np.float64)
        retries[w_idx] = OVERLAP * w_rank
        retries[q_idx] = OVERLAP * READER_EXPOSURE * writers_on_leaf[q_leaves]

        base_q = height * im.node_visit_stm + im.leaf_lookup_stm + im.tx_begin_commit_query
        base_w = height * im.node_visit_stm + im.leaf_update_stm
        work = np.zeros(n, dtype=np.float64)  # thread instructions per request

        nq, nw = int(q_idx.size), int(w_idx.size)
        totals.add(base_q, count=nq)
        totals.add(base_w, count=nw)
        # retried work: queries redo ~half a traversal, writers redo the
        # traversal plus rollback
        retry_q = 0.5 * base_q
        retry_w = 0.7 * base_w + im.abort_rollback
        totals.add(retry_q, count=float(retries[q_idx].sum()))
        totals.add(retry_w, count=float(retries[w_idx].sum()))
        work[q_idx] = base_q.mem + base_q.ctrl + base_q.alu + retries[q_idx] * (
            retry_q.mem + retry_q.ctrl + retry_q.alu
        )
        work[w_idx] = base_w.mem + base_w.ctrl + base_w.alu + retries[w_idx] * (
            retry_w.mem + retry_w.ctrl + retry_w.alu
        )

        # ranges: transactional scan over the spanned leaf chain
        range_idx = np.flatnonzero(batch.kinds == OpKind.RANGE)
        if range_idx.size:
            spans = batch_range_spans(tree, batch.keys[range_idx], batch.range_ends[range_idx])
            base_r = height * im.node_visit_stm + im.tx_begin_commit_query
            totals.add(base_r, count=int(range_idx.size))
            totals.add(im.leaf_lookup_stm, count=int(spans.sum()))
            r_retries = OVERLAP * READER_EXPOSURE * writers_on_leaf.mean() * spans
            retries[range_idx] = r_retries
            totals.add(retry_q, count=float(r_retries.sum()))
            work[range_idx] = (
                base_r.mem + base_r.ctrl + spans * im.leaf_lookup_stm.mem
            ) * (1 + r_retries)

        totals.conflicts = float(retries.sum())
        ctx.art["work"] = work
        ctx.extras["retries"] = retries
        ctx.traversal_steps = float(height)
        ctx.roofline_phase("query_kernel")


class StmSimtKernelPass(Pass):
    """SIMT engine: whole-operation eager transactions, abort & restart."""

    name = "kernel"

    def run(self, ctx: PipelineContext) -> None:
        system = ctx.system
        batch = ctx.batch
        tree = ctx.tree
        stm = system.stm
        n = ctx.n
        results = ctx.results
        range_idx, range_slot = range_ordinals(batch)
        scans: list = [None] * range_idx.size
        steps_taken = np.zeros(n, dtype=np.int64)
        retries = np.zeros(n, dtype=np.int64)
        stm_before = stm.stats.snapshot()

        def make_program(i: int):
            kind = int(batch.kinds[i])
            key = int(batch.keys[i])
            value = int(batch.values[i])
            hi = int(batch.range_ends[i])
            slot = int(range_slot[i])

            def program():
                while True:
                    if retries[i] > MAX_RETRIES:
                        raise SimulationError(f"request {i} livelocked")
                    tx = stm.begin()
                    try:
                        leaf, steps = yield from d_find_leaf_stm(tree, stm, tx, key)
                        steps_taken[i] = steps
                        if kind == OpKind.QUERY:
                            val = yield from d_search_leaf_stm(tree, stm, tx, leaf, key)
                            yield from stm.d_commit(tx)
                            results.values[i] = val
                        elif kind in (OpKind.UPDATE, OpKind.INSERT):
                            old, needs_split = yield from d_leaf_upsert_stm(
                                tree, stm, tx, leaf, key, value
                            )
                            yield BRANCH
                            if needs_split:
                                yield from stm.d_abort(tx, counted=False)
                                old = yield from d_smo_upsert(
                                    tree, stm, system.smo_lock_addr, i, key, value
                                )
                            else:
                                yield from stm.d_commit(tx)
                            results.values[i] = old
                        elif kind == OpKind.DELETE:
                            old = yield from d_leaf_delete_stm(tree, stm, tx, leaf, key)
                            yield from stm.d_commit(tx)
                            results.values[i] = old
                        elif kind == OpKind.RANGE:
                            ks, vs = yield from _d_range_scan_stm(tree, stm, tx, leaf, key, hi)
                            yield from stm.d_commit(tx)
                            scans[slot] = (ks, vs)
                        yield Mark(i)
                        return
                    except TransactionAborted:
                        retries[i] += 1
                        continue

            return program()

        launch = ctx.launch()
        launch.add_programs([make_program(i) for i in range(n)])
        ctx.run_launch(launch, "query_kernel")
        results.set_range_results(range_idx, *flatten_scans(scans))
        stm_delta = stm.stats.delta_since(stm_before)
        ctx.totals.conflicts += float(stm_delta.conflicts)
        if n:
            ctx.traversal_steps = float(steps_taken.mean())
        ctx.extras["retries"] = retries
        ctx.extras["stm"] = stm_delta


class StmGBTree(System):
    """Concurrent GPU B+tree protected by whole-operation eager STM."""

    name = "STM GB-tree"

    def __init__(
        self, tree: BPlusTree, stm_region: StmRegion, smo_lock_addr: int, devctx: DeviceContext
    ) -> None:
        super().__init__(tree, devctx)
        self.stm = DeviceStm(tree.arena, stm_region)
        self.smo_lock_addr = smo_lock_addr

    def build_pipeline(self, engine: str) -> PassPipeline:
        if engine == "vector":
            passes = [
                StmChargePass(),
                HostApplyPass(split_cost_factor=1.0),
                WeightedResponsePass(),
                FinalizePass(),
            ]
        else:
            passes = [StmSimtKernelPass(), SimtResponsePass(), FinalizePass()]
        return PassPipeline(passes, name=f"stm/{engine}")


def _d_range_scan_stm(tree: BPlusTree, stm: DeviceStm, tx, leaf: int, lo: int, hi: int):
    """Transactional leaf-chain scan collecting pairs in [lo, hi]."""
    ks: list[int] = []
    vs: list[int] = []
    node = leaf
    while True:
        a = tree.views.addrs(node)
        cnt = yield from stm.d_read(tx, a.count)
        yield BRANCH
        done = False
        for slot in range(cnt):
            k = yield from stm.d_read(tx, a.keys[slot])
            yield BRANCH
            if k > hi:
                done = True
                break
            if k >= lo:
                v = yield from stm.d_read(tx, a.values[slot])
                ks.append(int(k))
                vs.append(int(v))
        nxt = yield from stm.d_read(tx, a.next_leaf)
        yield BRANCH
        if done or nxt == -1:
            return ks, vs
        node = nxt
