"""Lock GB-tree baseline (Awad et al., PPoPP'19).

Fine-grained per-node latches: writers descend with latch crabbing (hold
the parent until the child is latched and non-full, so split targets are
always held), readers traverse lock-free but validate each node against its
latch word and version, restarting from the root on interference. Memory
overhead per request is small (one latch word per node visited — the
paper's 1.12×); control overhead is large (spin loops and validation
branches — the paper's 2.85×).

Pipeline: one latched kernel pass plus the shared apply/response/finalize
passes.
"""

from __future__ import annotations

import numpy as np

from .._types import OpKind
from ..btree import batch_range_spans
from ..btree.device_ops import (
    d_find_leaf_coupling,
    d_find_leaf_locked_query,
    d_leaf_covers,
    d_leaf_delete_device,
    d_leaf_upsert_device,
    d_leaf_upsert_locked,
    d_release_all,
    d_search_leaf,
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
from ..locks import LatchTable
from ..simt import BRANCH, Load, Mark
from ..workloads.requests import flatten_scans, range_ordinals
from .base import System
from .model import OVERLAP, batch_collisions

#: expected latch-hold length in issue slots (drives expected spins in the
#: vector model; the SIMT engine measures the real value).
HOLD_SLOTS = 24.0


class LockChargePass(Pass):
    """Vector engine: latch-spin / reader-restart collision model."""

    name = "kernel"

    def run(self, ctx: PipelineContext) -> None:
        batch = ctx.batch
        im = ctx.imodel
        tree = ctx.tree
        totals = ctx.totals
        height = tree.height
        n = ctx.n

        q_idx, w_idx, q_leaves, w_rank, writers_on_leaf = batch_collisions(tree, batch)
        # writers spin while earlier same-leaf writers hold the leaf latch
        spins = np.zeros(n, dtype=np.float64)
        spins[w_idx] = OVERLAP * w_rank * HOLD_SLOTS
        # readers re-validate nodes a writer touched (restart from root)
        reader_restarts = OVERLAP * 0.25 * writers_on_leaf[q_leaves]

        base_q = height * im.node_visit_lock_validated + im.leaf_lookup_plain
        base_w = height * im.node_visit_coupling + im.leaf_update_locked
        nq, nw = int(q_idx.size), int(w_idx.size)
        totals.add(base_q, count=nq)
        totals.add(base_w, count=nw)
        totals.add(im.lock_spin, count=float(spins.sum()))
        totals.add(base_q, count=float(reader_restarts.sum()))

        work = np.zeros(n, dtype=np.float64)
        bq = base_q.mem + base_q.ctrl + base_q.alu
        bw = base_w.mem + base_w.ctrl + base_w.alu
        work[q_idx] = bq * (1 + reader_restarts)
        work[w_idx] = bw + spins[w_idx] * 2

        range_idx = np.flatnonzero(batch.kinds == OpKind.RANGE)
        if range_idx.size:
            spans = batch_range_spans(tree, batch.keys[range_idx], batch.range_ends[range_idx])
            totals.add(height * im.node_visit_lock_validated, count=int(range_idx.size))
            totals.add(im.leaf_lookup_plain + im.lock_spin * 0.5, count=int(spans.sum()))
            work[range_idx] = (
                height * im.node_visit_lock_validated.mem + spans * im.leaf_lookup_plain.mem
            ) * 2

        # a 'conflict' in the lock design is a failed latch CAS or a reader
        # restart — what the paper's conflict counts compare across systems
        totals.conflicts = float(spins.sum() + reader_restarts.sum())
        ctx.art["work"] = work
        ctx.extras["spins"] = spins
        ctx.traversal_steps = float(height)
        ctx.roofline_phase("query_kernel")


class LockSimtKernelPass(Pass):
    """SIMT engine: latched writer / validated reader programs."""

    name = "kernel"

    def run(self, ctx: PipelineContext) -> None:
        system = ctx.system
        batch = ctx.batch
        tree = ctx.tree
        latches = system.latches
        n = ctx.n
        results = ctx.results
        range_idx, range_slot = range_ordinals(batch)
        scans: list = [None] * range_idx.size
        steps_taken = np.zeros(n, dtype=np.int64)
        lock_before = latches.stats.snapshot()

        def make_program(i: int):
            kind = int(batch.kinds[i])
            key = int(batch.keys[i])
            value = int(batch.values[i])
            hi = int(batch.range_ends[i])
            slot = int(range_slot[i])

            def program():
                if kind == OpKind.QUERY:
                    leaf, steps = yield from d_find_leaf_locked_query(tree, latches, key)
                    steps_taken[i] = steps
                    val = yield from d_search_leaf(tree, leaf, key)
                    results.values[i] = val
                elif kind in (OpKind.UPDATE, OpKind.INSERT, OpKind.DELETE):
                    old, steps = yield from _d_update_locked(
                        tree, latches, kind, key, value, i
                    )
                    steps_taken[i] = steps
                    results.values[i] = old
                elif kind == OpKind.RANGE:
                    leaf, steps = yield from d_find_leaf_locked_query(tree, latches, key)
                    steps_taken[i] = steps
                    ks, vs = yield from _d_range_scan_locked(tree, latches, leaf, key, hi)
                    scans[slot] = (ks, vs)
                yield Mark(i)

            return program()

        launch = ctx.launch()
        launch.add_programs([make_program(i) for i in range(n)])
        ctx.run_launch(launch, "query_kernel")
        results.set_range_results(range_idx, *flatten_scans(scans))
        lock_delta = latches.stats.delta_since(lock_before)
        ctx.totals.conflicts += float(lock_delta.spins)
        if n:
            ctx.traversal_steps = float(steps_taken.mean())
        ctx.extras["locks"] = lock_delta


class LockGBTree(System):
    """Concurrent GPU B+tree with fine-grained node latches."""

    name = "Lock GB-tree"

    def __init__(self, tree: BPlusTree, devctx: DeviceContext) -> None:
        super().__init__(tree, devctx)
        self.latches = LatchTable()

    def build_pipeline(self, engine: str) -> PassPipeline:
        if engine == "vector":
            passes = [
                LockChargePass(),
                # no ownership storm, latched split
                HostApplyPass(split_cost_factor=0.6),
                WeightedResponsePass(),
                FinalizePass(),
            ]
        else:
            passes = [LockSimtKernelPass(), SimtResponsePass(), FinalizePass()]
        return PassPipeline(passes, name=f"lock/{engine}")


def _d_update_locked(tree: BPlusTree, latches: LatchTable, kind: int, key: int, value: int, owner: int):
    """Writer path of the lock design: optimistic validated descent, latch
    only the target leaf, mutate in place; fall back to full latch crabbing
    only when a split is needed (the child-safety path splits then).

    Returns (old value, traversal steps of the final successful attempt).
    """
    while True:
        leaf, steps = yield from d_find_leaf_locked_query(tree, latches, key)
        lock = tree.views.addrs(leaf).lock
        yield from latches.d_acquire(lock, owner)
        covers = yield from d_leaf_covers(tree, leaf, key)
        yield BRANCH
        if not covers:
            yield from latches.d_release(lock)
            continue  # a split moved the key range: retry descent
        if kind == OpKind.DELETE:
            old = yield from d_leaf_delete_device(tree, leaf, key)
            yield from latches.d_release(lock)
            return old, steps
        old, needs_split = yield from d_leaf_upsert_device(tree, leaf, key, value)
        yield from latches.d_release(lock)
        yield BRANCH
        if not needs_split:
            return old, steps
        # split path: latch-crabbing descent holds every unsafe ancestor
        leaf2, steps2, held = yield from d_find_leaf_coupling(tree, latches, key, owner)
        old = yield from d_leaf_upsert_locked(tree, latches, held, leaf2, key, value)
        yield from d_release_all(tree, latches, held)
        return old, steps + steps2


def _d_range_scan_locked(tree: BPlusTree, latches: LatchTable, leaf: int, lo: int, hi: int):
    """Leaf-chain scan with per-leaf latch/version validation (retry leaf)."""
    ks: list[int] = []
    vs: list[int] = []
    node = leaf
    while True:
        a = tree.views.addrs(node)
        while True:  # validated read of one leaf
            locked = yield from latches.d_is_locked(a.lock)
            if locked:
                continue
            ver = yield Load(a.version)
            cnt = yield Load(a.count)
            yield BRANCH
            tmp_k: list[int] = []
            tmp_v: list[int] = []
            done = False
            for slot in range(cnt):
                k = yield Load(a.keys[slot])
                yield BRANCH
                if k > hi:
                    done = True
                    break
                if k >= lo:
                    v = yield Load(a.values[slot])
                    tmp_k.append(int(k))
                    tmp_v.append(int(v))
            nxt = yield Load(a.next_leaf)
            ver2 = yield Load(a.version)
            yield BRANCH
            if ver2 == ver:
                ks.extend(tmp_k)
                vs.extend(tmp_v)
                break
        if done or nxt == -1:
            return ks, vs
        node = nxt
