"""Eirene: the combining-based concurrency control framework (§4–§7).

Pipeline per buffered batch (Algorithm 1), expressed as concrete
:class:`~repro.core.pipeline.Pass` objects selected by
:func:`~repro.core.pipeline.eirene_pass_plan` from the
:class:`~repro.config.EireneConfig` feature flags:

1. **COMBINING** (:class:`CombinePass`) — radix-sort point requests by
   (key, timestamp), combine same-key runs, build the dependence structure
   (:mod:`repro.core.combining`); range queries get artificial-query
   patches (:mod:`repro.core.range_combining`).
2. **PARTITION** (:class:`PartitionPass`) — issued requests split into the
   query kernel (queries + range queries, no synchronization) and the
   update kernel (optimistic STM with leaf-version validation). With
   ``enable_kernel_partition=False`` the split kernels are replaced by one
   *unified* kernel whose queries must take an STM-protected leaf read
   (the ablation's cost: no NTG search, protection overhead, reader
   aborts); ranges then pre-scan in their own pass so RESULT_CAL patching
   still sees pre-update state.
3. **QUERY_KERNEL / UPDATE_KERNEL** — executed under locality-aware warp
   reorganization (§5) when enabled: consecutive request groups share an
   iteration warp and reuse each other's leaf positions.
4. **RESULT_CAL** — unissued requests compute their results from the
   dependence chain and the issued requests' retrieved old values; range
   results are patched by their artificial queries.

On the SIMT engine each kernel launch is planned once
(:meth:`EireneTree._launch_runs`): one :class:`LaneLayout` places its
requests in lanes, iterations and warps, and both the interpreted warps
and a lowered launch's trace are built from it. A lowered launch is handed
to the launcher as a finished trace, its writes already made, and runs
right away.

Because exactly one request per key is issued and every result follows the
timestamp-order dependence, the outcome is linearizable (§6) — the test
suite checks every batch against the sequential reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._types import NO_NODE, NULL_VALUE, OpKind
from ..btree import (
    batch_find_leaf,
    batch_leaf_lookup,
    batch_leaf_slots,
    batch_point_query,
    batch_range_scan,
)
from ..btree.tree import BPlusTree
from ..config import EireneConfig, FULL_EIRENE
from ..device import DeviceContext
from ..factory import grow_node_block
from ..simt import Mark
from ..simt.lowered import OpTrace
from ..stm import DeviceStm, StmRegion
from ..baselines.base import System
from ..baselines.model import (
    COALESCE_SORTED,
    OVERLAP,
    EventTotals,
    InstCost,
    phase_seconds,
    writer_collision_groups,
)
from ..workloads.requests import BatchResults, RequestBatch, flatten_scans, range_ordinals
from .combining import CombinePlan, combine_point_requests, propagate_results
from .kernels import (
    LaneSlot,
    d_protected_query,
    d_query,
    d_range_raw,
    d_update,
    make_iteration_lane_program,
    make_warp_shared,
)
from .locality import (
    IterationPlan,
    build_iteration_plan,
    cross_warp_rf_hazard,
    vector_locality_steps,
)
from .pipeline import FinalizePass, Pass, PassPipeline, PipelineContext
from .range_combining import apply_range_patches, plan_range_patches
from .update_schedule import UpdateSchedule
from .update_trace import UpdateTemplates

#: fraction of a writer's leaf-region transaction window a unified-kernel
#: query's (much shorter) protected leaf read is exposed to. Only the
#: ``enable_kernel_partition=False`` ablation pays this — partitioned
#: kernels never run queries concurrently with writers.
UNIFIED_READER_EXPOSURE = 0.25


# --------------------------------------------------------------------- #
# shared host-plane passes
# --------------------------------------------------------------------- #
class CombinePass(Pass):
    """COMBINING: sort + combine point requests, cost the host phases."""

    name = "combine"

    def run(self, ctx: PipelineContext) -> None:
        plan = combine_point_requests(ctx.batch)
        t_sort, t_combine, t_rescal = ctx.system._host_phase_times(plan)
        ctx.phase.sort = t_sort
        ctx.phase.combine = t_combine
        ctx.art["plan"] = plan
        ctx.art["t_rescal"] = t_rescal
        ctx.art["old_vals"] = np.full(plan.n_runs, NULL_VALUE, dtype=np.int64)


class PartitionPass(Pass):
    """PARTITION: split issued runs into query-class and update-class."""

    name = "partition"

    def run(self, ctx: PipelineContext) -> None:
        plan: CombinePlan = ctx.art["plan"]
        q_runs, u_runs = ctx.system._partition(plan)
        ctx.system._reserve_nodes(plan, u_runs)
        ctx.art["q_runs"] = q_runs
        ctx.art["u_runs"] = u_runs


# --------------------------------------------------------------------- #
# vector-engine passes
# --------------------------------------------------------------------- #
def _find_issued_leaves(ctx: PipelineContext, find) -> None:
    """Per class, the issued keys' leaves and traversal steps from
    ``find(keys) -> (leaves, steps)`` into ``ctx.art["{q,u}_{leaves,steps}"]``.

    Query-class keys go first: the RF maintenance of
    :func:`vector_locality_steps` mutates tree state in that order,
    matching the kernel launch order.
    """
    plan: CombinePlan = ctx.art["plan"]
    for cls in ("q", "u"):
        keys = plan.issued_keys[ctx.art[f"{cls}_runs"]]
        if keys.size:
            leaves, steps = find(keys)
        else:
            leaves, steps = np.zeros((2, 0), dtype=np.int64)
        ctx.art[f"{cls}_leaves"] = leaves
        ctx.art[f"{cls}_steps"] = steps


class VectorLocalityPass(Pass):
    """§5 warp reorganization: per-class iteration plans and the resulting
    traversal step counts (horizontal walks shortcut vertical descents)."""

    name = "locality"

    def __init__(self, enable_rf: bool = True) -> None:
        self.enable_rf = enable_rf

    def run(self, ctx: PipelineContext) -> None:
        cfg = ctx.system.config

        def find(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            iplan = build_iteration_plan(
                int(keys.size), ctx.device.warp_size,
                cfg.rgs_per_iteration_warp, ctx.device.num_sms,
            )
            ls = vector_locality_steps(ctx.tree, iplan, keys, enable_rf=self.enable_rf)
            return ls.leaves, ls.steps

        _find_issued_leaves(ctx, find)


class VectorPlainTraversalPass(Pass):
    """Locality-off traversal: every issued request descends root→leaf."""

    name = "traversal"

    def run(self, ctx: PipelineContext) -> None:
        def find(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            leaves = batch_find_leaf(ctx.tree, keys)
            return leaves, np.full(keys.size, ctx.tree.height, dtype=np.int64)

        _find_issued_leaves(ctx, find)


class VectorQueryKernelPass(Pass):
    """QUERY_KERNEL: unsynchronized issued queries, NTG search optional."""

    name = "query_kernel"

    def __init__(self, ntg: bool = True) -> None:
        self.ntg = ntg

    def run(self, ctx: PipelineContext) -> None:
        plan: CombinePlan = ctx.art["plan"]
        im = ctx.imodel
        q_runs = ctx.art["q_runs"]
        q_keys = plan.issued_keys[q_runs]
        ctx.art["q_steps_avg"] = float(ctx.tree.height)
        if q_keys.size:
            q_steps = ctx.art["q_steps"]
            q_visit = im.node_visit_ntg if self.ntg else im.node_visit_plain
            ctx.totals.add(q_visit, count=float(q_steps.sum()), coalesce=COALESCE_SORTED)
            ctx.totals.add(
                im.leaf_lookup_plain, count=int(q_keys.size), coalesce=COALESCE_SORTED
            )
            q_old = batch_leaf_lookup(ctx.tree, ctx.art["q_leaves"], q_keys)
            ctx.art["old_vals"][q_runs] = q_old
            ctx.art["q_steps_avg"] = float(q_steps.mean())
        ctx.phase.query_kernel = phase_seconds(ctx.totals, ctx.device)


class VectorRangeScanPass(Pass):
    """Range queries: pre-update leaf-chain scans (host plane), charged as
    part of the (unsynchronized) query-kernel bucket."""

    name = "range_scan"

    def run(self, ctx: PipelineContext) -> None:
        im = ctx.imodel
        n_ranges, span_total = ctx.system._raw_ranges(ctx.batch, ctx.results)
        if n_ranges:
            height = ctx.tree.height
            ctx.totals.add(
                im.node_visit_plain, count=n_ranges * height, coalesce=COALESCE_SORTED
            )
            ctx.totals.add(im.leaf_lookup_plain, count=span_total, coalesce=COALESCE_SORTED)
            # copying each matched pair out costs a load+store per element
            n_elements = int(ctx.results.range_keys.size)
            ctx.totals.add(InstCost(mem=2, alu=1), count=n_elements, coalesce=COALESCE_SORTED)
        ctx.phase.query_kernel = phase_seconds(ctx.totals, ctx.device)


def _charge_updates(ctx: PipelineContext, totals: EventTotals, retries: np.ndarray) -> None:
    """Charge the issued update-class requests onto ``totals``: descent,
    leaf-region STM update and the expected retries, noted per request in
    ``retries``. Concurrent writers to one leaf clash only in the (short)
    leaf-region transaction."""
    plan: CombinePlan = ctx.art["plan"]
    im = ctx.imodel
    u_runs = ctx.art["u_runs"]
    ctx.art["u_steps_avg"] = float(ctx.tree.height)
    if not u_runs.size:
        return
    u_steps = ctx.art["u_steps"]
    totals.add(im.node_visit_plain, count=float(u_steps.sum()), coalesce=COALESCE_SORTED)
    totals.add(im.leaf_update_stm, count=int(u_runs.size), coalesce=COALESCE_SORTED)
    _, u_rank = writer_collision_groups(ctx.art["u_leaves"])
    u_retry = OVERLAP * u_rank
    retry_cost = im.leaf_update_stm + im.abort_rollback
    totals.add(retry_cost, count=float(u_retry.sum()), coalesce=COALESCE_SORTED)
    totals.conflicts += float(u_retry.sum())
    retries[plan.issued_orig[u_runs]] = u_retry
    ctx.art["u_steps_avg"] = float(u_steps.mean())


def _apply_updates(ctx: PipelineContext, totals: EventTotals) -> None:
    """Apply the issued update-class requests (unique, key-sorted) host-side
    as one batch on the leaves the traversal found, charging their splits
    onto ``totals``; their old values go to ``ctx.art["old_vals"]``."""
    plan: CombinePlan = ctx.art["plan"]
    u_runs = ctx.art["u_runs"]
    tree = ctx.tree
    splits_before = len(tree.split_events)
    ctx.art["old_vals"][u_runs] = tree.apply_updates(
        plan.issued_kinds[u_runs],
        plan.issued_keys[u_runs],
        plan.issued_values[u_runs],
        ctx.art["u_leaves"],
    )
    splits = len(tree.split_events) - splits_before
    totals.add(ctx.imodel.split_smo, count=splits, coalesce=COALESCE_SORTED)
    ctx.art["splits"] = splits


class VectorUpdateKernelPass(Pass):
    """UPDATE_KERNEL: optimistic leaf-region STM; its own kernel roofline."""

    name = "update_kernel"

    def run(self, ctx: PipelineContext) -> None:
        u_totals = EventTotals()
        retries = np.zeros(ctx.n, dtype=np.float64)
        _charge_updates(ctx, u_totals, retries)
        _apply_updates(ctx, u_totals)
        ctx.phase.update_kernel = phase_seconds(u_totals, ctx.device)
        ctx.totals.merge(u_totals)
        ctx.art["retries"] = retries


class VectorUnifiedKernelPass(Pass):
    """``enable_kernel_partition=False`` ablation: one kernel runs queries
    and updates together. Queries lose the NTG search (the kernel is no
    longer homogeneous) and must read their leaf inside a short STM
    transaction (concurrent writers can split their leaf mid-read), paying
    ``UNIFIED_READER_EXPOSURE`` of the writers' conflict windows."""

    name = "unified_kernel"

    def run(self, ctx: PipelineContext) -> None:
        plan: CombinePlan = ctx.art["plan"]
        im = ctx.imodel
        tree = ctx.tree
        totals = ctx.totals
        q_runs = ctx.art["q_runs"]
        retries = np.zeros(ctx.n, dtype=np.float64)
        _charge_updates(ctx, totals, retries)

        ctx.art["q_steps_avg"] = float(tree.height)
        if q_runs.size:
            q_steps = ctx.art["q_steps"]
            q_leaves = ctx.art["q_leaves"]
            writers_on_leaf = np.bincount(ctx.art["u_leaves"], minlength=tree.max_nodes)
            # plain per-lane scans (no NTG) + protected leaf-region read
            totals.add(
                im.node_visit_plain, count=float(q_steps.sum()), coalesce=COALESCE_SORTED
            )
            q_leaf_read = im.leaf_lookup_stm + im.tx_begin_commit_query
            totals.add(q_leaf_read, count=int(q_runs.size), coalesce=COALESCE_SORTED)
            q_retry = OVERLAP * UNIFIED_READER_EXPOSURE * writers_on_leaf[q_leaves]
            totals.add(q_leaf_read, count=float(q_retry.sum()), coalesce=COALESCE_SORTED)
            totals.conflicts += float(q_retry.sum())
            retries[plan.issued_orig[q_runs]] += q_retry
            # old values are read before the host applies the batch's updates
            q_old = batch_leaf_lookup(tree, q_leaves, plan.issued_keys[q_runs])
            ctx.art["old_vals"][q_runs] = q_old
            ctx.art["q_steps_avg"] = float(q_steps.mean())

        _apply_updates(ctx, totals)
        ctx.art["retries"] = retries
        # one launch: a single roofline over the merged work (incl. ranges)
        ctx.phase.query_kernel = phase_seconds(totals, ctx.device)


def _result_cal(ctx: PipelineContext) -> CombinePlan:
    """RESULT_CAL proper: propagate dependence-chain results from the issued
    requests' old values, patch range scans with their artificial queries,
    and charge the phase. Returns the combine plan."""
    batch = ctx.batch
    plan: CombinePlan = ctx.art["plan"]
    propagate_results(plan, ctx.art["old_vals"], ctx.results)
    apply_range_patches(batch, plan_range_patches(batch, plan), ctx.results)
    ctx.phase.result_cal = ctx.art["t_rescal"]
    ctx.extras.update(plan=plan, n_combined=plan.n_combined)
    return plan


class VectorResultCalPass(Pass):
    """RESULT_CAL: propagate dependence-chain results, patch ranges, model
    response times (retry-heavy requests respond late)."""

    name = "result_cal"

    def run(self, ctx: PipelineContext) -> None:
        _result_cal(ctx)
        im = ctx.imodel
        n = ctx.n
        seconds = ctx.phase.total
        # response times: every request's result is ready at the end of the
        # pipeline; conflict retries add per-request jitter on top
        resp = np.full(n, seconds / max(n, 1))
        retries = ctx.art["retries"]
        if retries.any():
            jitter = retries * (im.leaf_update_stm.mem + im.abort_rollback.mem) \
                * ctx.device.cycles_per_mem_transaction / ctx.device.clock_hz / n
            resp = resp + jitter
        ctx.response_time_s = resp

        issued_steps = np.concatenate([ctx.art["q_steps"], ctx.art["u_steps"]])
        if issued_steps.size:
            ctx.traversal_steps = float(issued_steps.mean())
        ctx.extras.update(
            splits=ctx.art["splits"],
            query_steps=ctx.art["q_steps_avg"],
            update_steps=ctx.art["u_steps_avg"],
        )


# --------------------------------------------------------------------- #
# SIMT-engine passes
# --------------------------------------------------------------------- #
class _SimtKernelPass(Pass):
    """A SIMT kernel pass; ``locality`` packs its issued requests into §5
    iteration warps, else one lane per request."""

    def __init__(self, locality: bool = True) -> None:
        self.locality = locality


class SimtQueryKernelPass(_SimtKernelPass):
    """QUERY_KERNEL launch: issued queries (iteration warps under locality)
    plus the batch's range programs, all in one unsynchronized launch."""

    name = "query_kernel"

    def run(self, ctx: PipelineContext) -> None:
        ctx.system._launch_runs(ctx, ctx.art["q_runs"], self.locality, "query_kernel",
                                protected=False, ranges=True)


class SimtUpdateKernelPass(_SimtKernelPass):
    """UPDATE_KERNEL launch: issued update-class requests under optimistic
    leaf-region STM (Algorithm 1); real conflicts from the STM stats."""

    name = "update_kernel"

    def run(self, ctx: PipelineContext) -> None:
        ctx.system._launch_runs(ctx, ctx.art["u_runs"], self.locality, "update_kernel",
                                protected=True, ranges=False)


class SimtRangeScanPass(Pass):
    """Unified-kernel mode only: range programs launch *before* the unified
    kernel so they scan pre-update state (RESULT_CAL patches assume it)."""

    name = "range_scan"

    def run(self, ctx: PipelineContext) -> None:
        if np.any(ctx.batch.kinds == OpKind.RANGE):
            ctx.system._launch_runs(ctx, np.zeros(0, dtype=np.int64), False, "query_kernel",
                                    protected=False, ranges=True)


class SimtUnifiedKernelPass(_SimtKernelPass):
    """``enable_kernel_partition=False`` ablation: every issued request in
    one launch. Update-class requests run Algorithm 1 unchanged; queries run
    :func:`~repro.core.kernels.d_protected_query` — they can race concurrent
    leaf splits, so their leaf read needs the STM leaf-region transaction."""

    name = "unified_kernel"

    def run(self, ctx: PipelineContext) -> None:
        ctx.system._launch_runs(ctx, np.arange(ctx.art["plan"].n_runs), self.locality,
                                "query_kernel", protected=True, ranges=False)


class SimtResultCalPass(Pass):
    """RESULT_CAL + response times from the merged launch counters."""

    name = "result_cal"

    def run(self, ctx: PipelineContext) -> None:
        _result_cal(ctx)
        ctx.simt_response()
        steps = np.asarray(ctx.art["steps_record"], dtype=np.int64)
        if steps.size:
            ctx.traversal_steps = float(steps.mean())


# --------------------------------------------------------------------- #
# lowered SIMT launches
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class LaneLayout:
    """Where the issued requests of a launch run, decided once per launch by
    :meth:`EireneTree._lane_layout`: the lowered query and update kernels
    and the interpreted iteration warps are all built from it.

    Request ``p`` runs in iteration ``it[p]`` of launch lane ``lane[p]``,
    which belongs to warp ``warp[p]``. Warp ``w`` holds lanes
    ``warp_lanes[w]:warp_lanes[w + 1]`` and runs ``iters[w]`` barrier
    iterations (0 without locality: one request per lane, the warps of
    ``warp_size`` lanes each). ``order`` lists the requests lane by
    lane, each lane's in iteration order: the order of their op streams.
    With locality, ``iplan`` is the iteration plan, ``rg[p]`` request
    ``p``'s RG and ``rg_warp`` each RG's warp.
    """

    warp: np.ndarray
    lane: np.ndarray
    it: np.ndarray
    order: np.ndarray
    warp_lanes: np.ndarray
    iters: np.ndarray
    iplan: IterationPlan | None = None
    rg: np.ndarray | None = None
    rg_warp: np.ndarray | None = None

    @property
    def n_warps(self) -> int:
        return int(self.iters.size)


@dataclass(frozen=True)
class LoweredRuns:
    """The issued requests of a lowered launch, in ``runs`` order: their old
    values, traversal steps and transaction retries, and the finished trace
    of the warps they fill (an update launch has made its arena, RF and STM
    writes already: the launch runs right after)."""

    trace: OpTrace
    values: np.ndarray
    steps: np.ndarray
    retries: np.ndarray


class EireneTree(System):
    """Combining-based concurrent GPU B+tree."""

    name = "Eirene"

    def __init__(
        self,
        tree: BPlusTree,
        stm_region: StmRegion,
        smo_lock_addr: int,
        devctx: DeviceContext,
        config: EireneConfig = FULL_EIRENE,
    ) -> None:
        super().__init__(tree, devctx)
        self.config = config
        self.stm = DeviceStm(tree.arena, stm_region)
        self.smo_lock_addr = smo_lock_addr

    # ------------------------------------------------------------------ #
    # pipeline assembly: EireneConfig flags -> pass selection
    # ------------------------------------------------------------------ #
    def build_pipeline(self, engine: str) -> PassPipeline:
        from .pipeline import eirene_pass_plan

        cfg = self.config
        factories = {
            "combine": CombinePass,
            "partition": PartitionPass,
            "finalize": FinalizePass,
        }
        if engine == "vector":
            factories.update(
                locality=lambda: VectorLocalityPass(enable_rf=cfg.enable_rf_decision),
                traversal=VectorPlainTraversalPass,
                query_kernel=lambda: VectorQueryKernelPass(
                    ntg=cfg.enable_narrowed_thread_groups
                ),
                range_scan=VectorRangeScanPass,
                update_kernel=VectorUpdateKernelPass,
                unified_kernel=VectorUnifiedKernelPass,
                result_cal=VectorResultCalPass,
            )
        else:
            factories.update(
                query_kernel=lambda: SimtQueryKernelPass(locality=cfg.enable_locality),
                update_kernel=lambda: SimtUpdateKernelPass(locality=cfg.enable_locality),
                range_scan=SimtRangeScanPass,
                unified_kernel=lambda: SimtUnifiedKernelPass(locality=cfg.enable_locality),
                result_cal=SimtResultCalPass,
            )
        passes = [factories[name]() for name in eirene_pass_plan(cfg, engine)]
        return PassPipeline(passes, name=f"eirene/{engine}")

    # ------------------------------------------------------------------ #
    # shared pipeline pieces (called by the passes above)
    # ------------------------------------------------------------------ #
    def _partition(self, plan: CombinePlan) -> tuple[np.ndarray, np.ndarray]:
        """Indices (into runs) of query-issued vs update-issued runs."""
        upd = plan.run_has_update
        return np.flatnonzero(~upd), np.flatnonzero(upd)

    def _reserve_nodes(self, plan: CombinePlan, u_runs: np.ndarray) -> None:
        """Grow the node block before the batch's first launch when its
        worst case could pass ``max_nodes``: each absent key it upserts
        splits at most one node per level and the root (``height + 1`` new
        nodes). The block grows by the tree's ``arena_headroom`` factor, or
        to the worst case if that is more; a factor of 1 keeps it fixed.
        An arena holding a sanitizer's shadow words keeps it fixed too."""
        tree = self.tree
        keys = plan.issued_keys[u_runs][plan.issued_kinds[u_runs] != OpKind.DELETE]
        per_insert = tree.height + 1
        if tree.node_count + keys.size * per_insert <= tree.max_nodes:
            return
        _, hit = batch_leaf_slots(tree, batch_find_leaf(tree, keys), keys)
        need = tree.node_count + int(np.count_nonzero(~hit)) * per_insert
        grown = int(tree.max_nodes * tree.config.arena_headroom)
        if need > tree.max_nodes and grown > tree.max_nodes and not tree.arena.system_words:
            self.smo_lock_addr = grow_node_block(tree, self.stm.region, self.smo_lock_addr,
                                                 max(grown, need))

    def _host_phase_times(self, plan: CombinePlan) -> tuple[float, float, float]:
        """Sort / combine / result-cal device time from primitive work."""
        c = self.devctx.cost
        n = plan.n_point
        t_sort = c.seconds(c.cycles_per_sort_element_pass * plan.work.sort.passes * max(n, 1))
        t_combine = c.seconds(c.cycles_per_scan_element * max(plan.work.scan_elements, n))
        t_rescal = c.seconds(
            c.cycles_per_result_cal * max(plan.n_combined, 1)
            + c.cycles_per_scan_element * n
        )
        return t_sort, t_combine, t_rescal

    def _raw_ranges(self, batch: RequestBatch, results: BatchResults) -> tuple[int, int]:
        """Install the pre-update range scans (host plane) into ``results``;
        returns the number of ranges and the total leaves they span."""
        range_idx = np.flatnonzero(batch.kinds == OpKind.RANGE)
        _, (counts, keys, values) = batch_range_scan(
            self.tree, batch.keys[range_idx], batch.range_ends[range_idx], range_idx
        )
        results.set_range_results(range_idx, counts, keys, values)
        span_total = int((counts // max(self.imodel.fanout // 2, 1) + 1).sum())
        return int(range_idx.size), span_total

    # ------------------------------------------------------------------ #
    # SIMT kernels
    # ------------------------------------------------------------------ #
    def _launch_runs(
        self,
        ctx: PipelineContext,
        runs: np.ndarray,
        locality: bool,
        bucket: str,
        protected: bool,
        ranges: bool,
    ) -> None:
        """One SIMT launch over the issued requests of ``runs``, run and
        accounted onto ``phase.<bucket>``: Algorithm 1's QUERY_KERNEL and
        UPDATE_KERNEL differ only in these arguments.

        ``locality`` packs the runs into iteration warps, else one lane per
        request; either way one :class:`LaneLayout` places them. A
        ``protected`` launch runs beside writers: update-class requests
        take the leaf-region STM, queries a protected leaf read, and the
        STM's conflicts are accounted. ``ranges`` adds one raw-scan warp per
        range request, after the runs' warps, and installs the scans into
        ``ctx.results`` after the run.

        A launch is lowered whole when the launch allows it
        (:attr:`~repro.simt.KernelLaunch.lowers`) and its requests' streams
        can be built up front: an unprotected launch when
        :meth:`_lower_queries` finds its point queries' streams fixed at
        launch time, a protected one without ranges when
        :meth:`_lower_updates` finds it split-free. No lane program is
        built then: the launch gets one finished trace of its warps and
        runs right away.
        """
        plan: CombinePlan = ctx.art["plan"]
        old_vals = ctx.art["old_vals"]
        steps_record = ctx.art.setdefault("steps_record", [])
        retries = np.zeros(ctx.n, dtype=np.int64)
        stm_before = self.stm.stats.snapshot()
        splits_before = len(self.tree.split_events)
        launch = ctx.launch()
        batch = ctx.batch
        range_idx = range_ordinals(batch)[0] if ranges else np.zeros(0, dtype=np.int64)
        scans: list = [None] * range_idx.size
        found = None
        lay = self._lane_layout(int(runs.size), locality)
        lowered = None
        if launch.lowers and not protected:
            lowered = self._lower_queries(plan, runs, lay)
        elif launch.lowers and not ranges:
            lowered = self._lower_updates(plan, runs, lay, launch.rng)
        if lowered is not None:
            old_vals[runs] = lowered.values
            steps_record.extend(lowered.steps.tolist())
            retries[plan.issued_orig[runs]] = lowered.retries
            trace = lowered.trace
            if range_idx.size:
                scan, found = batch_range_scan(self.tree, batch.keys[range_idx],
                                               batch.range_ends[range_idx], range_idx)
                trace = trace.append(scan)
            launch.add_lowered(trace)
        else:
            if lay.iplan is not None:
                self._add_iteration_warps(launch, plan, runs, lay, old_vals, steps_record,
                                          retries, protected)
            else:
                programs = [
                    self._lane_program(plan, r, old_vals, retries, steps_record, protected)
                    for r in runs.tolist()
                ]
                for lo, hi in zip(lay.warp_lanes[:-1].tolist(), lay.warp_lanes[1:].tolist()):
                    launch.add_warp(programs[lo:hi])
            for slot, i in enumerate(range_idx.tolist()):
                launch.add_warp([self._range_program(batch, i, scans, slot)])
        ctx.run_launch(launch, bucket)
        if ranges:
            ctx.results.set_range_results(
                range_idx, *(flatten_scans(scans) if found is None else found)
            )
        if protected:
            stm_delta = self.stm.stats.delta_since(stm_before)
            ctx.totals.conflicts += float(stm_delta.conflicts)
            ctx.extras["stm"] = stm_delta
            ctx.extras["retries"] = int(retries.sum())
            ctx.extras["splits"] = len(self.tree.split_events) - splits_before

    def _lane_layout(self, n: int, locality: bool) -> LaneLayout:
        """The :class:`LaneLayout` of ``n`` issued (key-sorted) requests."""
        ws = self.device.warp_size
        if not locality or n == 0:
            warp_lanes = np.append(np.arange(0, n, ws), n)
            request = np.arange(n)
            return LaneLayout(
                warp=request // ws, lane=request, it=np.zeros(n, dtype=np.int64),
                order=request, warp_lanes=warp_lanes,
                iters=np.zeros(warp_lanes.size - 1, dtype=np.int64),
            )
        iplan = build_iteration_plan(n, ws, self.config.rgs_per_iteration_warp,
                                     self.device.num_sms)
        rg_size = iplan.rg_end - iplan.rg_start
        rg_warp = np.repeat(np.arange(iplan.n_warps), np.diff(iplan.warp_offsets))
        rg = np.repeat(np.arange(iplan.n_rgs), rg_size)
        warp = rg_warp[rg]
        lane_count = np.maximum.reduceat(rg_size, iplan.warp_offsets[:-1])
        warp_lanes = np.concatenate(([0], np.cumsum(lane_count)))
        lane = warp_lanes[warp] + np.arange(n) - iplan.rg_start[rg]
        it = rg - iplan.warp_offsets[warp]
        return LaneLayout(
            warp=warp, lane=lane, it=it, order=np.lexsort((it, lane)), warp_lanes=warp_lanes,
            iters=np.diff(iplan.warp_offsets), iplan=iplan, rg=rg, rg_warp=rg_warp,
        )

    def _lower_queries(
        self, plan: CombinePlan, runs: np.ndarray, lay: LaneLayout
    ) -> LoweredRuns | None:
        """The unprotected point queries of ``runs``, laid out by ``lay``,
        as one lowered trace, with their values and traversal steps;
        ``None`` when the interpreter must run them.

        Iteration warps take their RGs' walk decisions from
        :func:`vector_locality_steps`, which reads every RF as it stood at
        launch time. That is exact unless
        :func:`~repro.core.locality.cross_warp_rf_hazard` finds an RF that
        one warp rewrites and another loads for a decision: such a launch
        is interpreted. So is one whose traced leaves or steps differ from
        the locality pass's (a malformed tree). Otherwise this makes the
        kernel's ``update_rf`` calls and returns the trace.
        """
        tree = self.tree
        n = int(runs.size)
        keys = plan.issued_keys[runs]
        iplan = lay.iplan
        start = np.full(n, NO_NODE)
        rf_load = np.zeros(n, dtype=bool)
        if iplan is not None:
            rf = self.config.enable_rf_decision
            ls = vector_locality_steps(tree, iplan, keys, rf, update_rf=False)
            rg_leaf = ls.leaves[iplan.rg_end - 1]
            if rf and cross_warp_rf_hazard(iplan, rg_leaf, ls.rf_leaves):
                return None
            buffered = np.concatenate(([NO_NODE], rg_leaf[:-1]))[lay.rg]
            start = np.where(ls.horizontal, buffered, NO_NODE)
            rf_load[iplan.rg_end - 1] = True
        streams = np.empty(n, dtype=np.int64)
        streams[lay.order] = np.arange(n)
        (offsets, kinds, addrs), (values, leaves, steps) = batch_point_query(
            tree, keys, start, rf_load, streams
        )
        if iplan is not None:
            if not (np.array_equal(leaves, ls.leaves) and np.array_equal(steps, ls.steps)):
                return None
            for leaf, walked in zip(ls.rf_leaves.tolist(), ls.rf_steps.tolist()):
                tree.update_rf(leaf, walked)
        lane_streams = np.concatenate(([0], np.cumsum(np.bincount(lay.lane))))
        trace = OpTrace(offsets[lane_streams], kinds, addrs, plan.issued_orig[runs][lay.order],
                        lay.warp_lanes, lay.iters)
        return LoweredRuns(trace, values, steps, np.zeros(n, dtype=np.int64))

    def _lower_updates(
        self, plan: CombinePlan, runs: np.ndarray, lay: LaneLayout, rng
    ) -> LoweredRuns | None:
        """The update kernel over ``runs``, laid out by ``lay``, as one
        lowered trace, or ``None`` when the interpreter must run it.

        A launch lowers when it cannot split: it holds no ``DELETE`` and no
        leaf gets more absent-key inserts than it has free slots (``count +
        inserts <= fanout``). Every absent key is inserted, so such a launch
        never reaches ``d_smo_upsert``, and a leaf transaction can fail only
        at its leaf's ``count`` word (see :mod:`repro.core.update_trace`).
        A leaf that would fill past ``fanout`` is the fallback.
        :class:`UpdateSchedule` plays those words' events in the
        reference's order, deriving a record at each attempt on a leaf
        whose row another writer changes, on a copy of the launch's
        scheduling ``rng`` where warps meet; the launch is interpreted when
        it cannot (a cross-warp RF hazard, an ``update_rf`` reading a first
        key an insert changes, a transaction meeting another's publish
        tail, ``MAX_RETRIES``) or when the abort injector is set. All of
        this is decided before any program is built and before any write.
        A lowered launch then makes its writes here, since it runs right
        after: the overwritten values and the rows that take inserts, with
        their counts, one version bump per committed transaction on each
        word it wrote, the ``update_rf`` calls, the STM statistics and
        transaction ids.
        """
        stm = self.stm
        n = int(runs.size)
        kinds = plan.issued_kinds[runs]
        if n == 0 or stm.abort_injector is not None or np.any(kinds == OpKind.DELETE):
            return None
        tree = self.tree
        cfg = self.config
        tpl = UpdateTemplates(tree, stm.region, plan.issued_keys[runs])
        if not tpl.valid.all():
            return None
        ins = ~tpl.hit
        if np.any(tpl.count + np.bincount(tpl.leaves[ins], minlength=tree.max_nodes)[tpl.leaves]
                  > tree.layout.fanout):
            return None
        sched = UpdateSchedule(tree, tpl, lay, cfg.stm_retry_threshold, cfg.enable_rf_decision,
                               rng)
        if not sched.play():
            return None
        trace = tpl.trace(lay, plan.issued_orig[runs], sched)
        data = tree.arena.data
        region = stm.region
        values = plan.issued_values[runs]
        data[tpl.value_addr[tpl.hit]] = values[tpl.hit]
        tree.insert_into_leaves(tpl.leaves[ins], tpl.keys[ins], values[ins])
        np.add.at(data, region.version_base + tpl.committed_writes() - region.data_base, 1)
        for leaf, walked in sched.rf_calls:
            tree.update_rf(leaf, walked)
        stm_stats = sched.stm_stats()
        for name, count in stm_stats.items():
            setattr(stm.stats, name, getattr(stm.stats, name) + count)
        stm._next_tid += stm_stats["begins"]
        return LoweredRuns(trace, tpl.old_values, sched.steps, sched.n_fails)

    def _lane_program(self, plan: CombinePlan, run: int, old_vals, retries, steps_record,
                      protected: bool):
        """One lane for issued run ``run``: ``d_update`` for an update-class
        run; a query runs ``d_protected_query`` in a protected launch, else
        ``d_query``."""
        tree = self.tree
        update = bool(plan.run_has_update[run])
        kind = int(plan.issued_kinds[run])
        key = int(plan.issued_keys[run])
        value = int(plan.issued_values[run])
        req_id = int(plan.issued_orig[run])

        def program():
            if update:
                res = yield from d_update(
                    tree, self.stm, self.smo_lock_addr, self.config.stm_retry_threshold,
                    req_id, kind, key, value,
                )
                val, steps = res.old, res.steps
                retries[req_id] = res.retries
            elif protected:
                val, steps, retries[req_id], _horiz, _leaf = yield from d_protected_query(
                    tree, self.stm, key
                )
            else:
                val, steps = yield from d_query(tree, key)
            old_vals[run] = val
            steps_record.append(steps)
            yield Mark(req_id)

        return program()

    def _range_program(self, batch: RequestBatch, i: int, scans: list, slot: int):
        tree = self.tree
        lo, hi = int(batch.keys[i]), int(batch.range_ends[i])

        def program():
            ks, vs, _steps = yield from d_range_raw(tree, lo, hi)
            scans[slot] = (ks, vs)
            yield Mark(i)

        return program()

    def _add_iteration_warps(self, launch, plan: CombinePlan, runs: np.ndarray,
                             lay: LaneLayout, old_vals, steps_record, retries,
                             protected: bool) -> None:
        """Build the iteration warps of ``lay`` (locality on) over the
        issued requests of ``runs`` (key-sorted)."""
        cfg = self.config
        update_ctx = (
            (self.stm, self.smo_lock_addr, cfg.stm_retry_threshold) if protected else None
        )

        def on_result(slot: LaneSlot, val: int, steps: int, _horiz: bool, n_retries: int) -> None:
            old_vals[slot.tag] = val
            steps_record.append(steps)
            retries[slot.req_id] = n_retries

        iplan = lay.iplan
        rg_last = iplan.rg_end - 1
        last_lane = (lay.lane[rg_last] - lay.warp_lanes[lay.rg_warp]).tolist()
        rg_max_key = plan.issued_keys[runs[rg_last]].tolist()
        slots = [LaneSlot(*row) for row in zip(
            plan.issued_orig[runs].tolist(), plan.issued_kinds[runs].tolist(),
            plan.issued_keys[runs].tolist(), plan.issued_values[runs].tolist(), runs.tolist(),
        )]
        # each lane's request per iteration (-1: idle in a ragged RG)
        at = np.full((lay.warp_lanes[-1], int(lay.iters.max())), -1)
        at[lay.lane, lay.it] = np.arange(runs.size)
        for w in range(lay.n_warps):
            rgs = slice(iplan.warp_offsets[w], iplan.warp_offsets[w + 1])
            n_iters = int(lay.iters[w])
            shared = make_warp_shared(n_iters)
            lo, hi = int(lay.warp_lanes[w]), int(lay.warp_lanes[w + 1])
            launch.add_warp([
                make_iteration_lane_program(
                    self.tree, shared, lane - lo, hi - lo,
                    [slots[p] if p >= 0 else None for p in at[lane, :n_iters].tolist()],
                    last_lane[rgs], rg_max_key[rgs], cfg.enable_rf_decision, on_result,
                    update_ctx,
                )
                for lane in range(lo, hi)
            ])
