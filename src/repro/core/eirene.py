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

Because exactly one request per key is issued and every result follows the
timestamp-order dependence, the outcome is linearizable (§6) — the test
suite checks every batch against the sequential reference.
"""

from __future__ import annotations

import numpy as np

from .._types import NULL_VALUE, OpKind
from ..btree import batch_find_leaf, batch_leaf_lookup
from ..btree.tree import BPlusTree
from ..config import DeviceConfig, EireneConfig, FULL_EIRENE
from ..errors import ConfigError
from ..simt import CostModel, Mark
from ..stm import DeviceStm, StmRegion
from ..baselines.base import System, simt_response_times
from ..baselines.model import (
    COALESCE_SORTED,
    OVERLAP,
    EventTotals,
    InstCost,
    phase_seconds,
    writer_collision_groups,
)
from ..workloads.requests import BatchResults, RequestBatch, flatten_scans
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
from .locality import build_iteration_plan, vector_locality_steps
from .pipeline import FinalizePass, Pass, PassPipeline, PipelineContext
from .range_combining import apply_range_patches, plan_range_patches

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
        ctx.art["q_runs"] = q_runs
        ctx.art["u_runs"] = u_runs


# --------------------------------------------------------------------- #
# vector-engine passes
# --------------------------------------------------------------------- #
class VectorLocalityPass(Pass):
    """§5 warp reorganization: per-class iteration plans and the resulting
    traversal step counts (horizontal walks shortcut vertical descents).

    Query-class steps are computed before update-class steps — the RF
    maintenance of :func:`vector_locality_steps` mutates tree state in that
    order, matching the kernel launch order.
    """

    name = "locality"

    def __init__(self, enable_rf: bool = True) -> None:
        self.enable_rf = enable_rf

    def run(self, ctx: PipelineContext) -> None:
        plan: CombinePlan = ctx.art["plan"]
        cfg = ctx.system.config
        for cls, runs_key in (("q", "q_runs"), ("u", "u_runs")):
            runs = ctx.art[runs_key]
            keys = plan.issued_keys[runs]
            if keys.size:
                iplan = build_iteration_plan(
                    int(keys.size), ctx.device.warp_size,
                    cfg.rgs_per_iteration_warp, ctx.device.num_sms,
                )
                ls = vector_locality_steps(ctx.tree, iplan, keys, enable_rf=self.enable_rf)
                leaves, steps = ls.leaves, ls.steps
            else:
                leaves = np.zeros(0, dtype=np.int64)
                steps = np.zeros(0, dtype=np.int64)
            ctx.art[f"{cls}_leaves"] = leaves
            ctx.art[f"{cls}_steps"] = steps


class VectorPlainTraversalPass(Pass):
    """Locality-off traversal: every issued request descends root→leaf."""

    name = "traversal"

    def run(self, ctx: PipelineContext) -> None:
        plan: CombinePlan = ctx.art["plan"]
        height = ctx.tree.height
        for cls, runs_key in (("q", "q_runs"), ("u", "u_runs")):
            runs = ctx.art[runs_key]
            keys = plan.issued_keys[runs]
            if keys.size:
                leaves, _ = batch_find_leaf(ctx.tree, keys)
                steps = np.full(keys.size, height, dtype=np.int64)
            else:
                leaves = np.zeros(0, dtype=np.int64)
                steps = np.zeros(0, dtype=np.int64)
            ctx.art[f"{cls}_leaves"] = leaves
            ctx.art[f"{cls}_steps"] = steps


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
            q_old, _ = batch_leaf_lookup(ctx.tree, ctx.art["q_leaves"], q_keys)
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


class VectorUpdateKernelPass(Pass):
    """UPDATE_KERNEL: optimistic leaf-region STM; its own kernel roofline."""

    name = "update_kernel"

    def run(self, ctx: PipelineContext) -> None:
        plan: CombinePlan = ctx.art["plan"]
        im = ctx.imodel
        u_runs = ctx.art["u_runs"]
        u_keys = plan.issued_keys[u_runs]
        retries = np.zeros(ctx.n, dtype=np.float64)
        u_totals = EventTotals()
        ctx.art["u_steps_avg"] = float(ctx.tree.height)
        if u_keys.size:
            u_steps = ctx.art["u_steps"]
            u_totals.add(
                im.node_visit_plain, count=float(u_steps.sum()), coalesce=COALESCE_SORTED
            )
            u_totals.add(im.leaf_update_stm, count=int(u_keys.size), coalesce=COALESCE_SORTED)
            # structure conflicts: concurrent writers to the same leaf clash
            # only in the (short) leaf-region transaction
            _, u_rank = writer_collision_groups(ctx.art["u_leaves"])
            u_retry = OVERLAP * u_rank
            retry_cost = im.leaf_update_stm + im.abort_rollback
            u_totals.add(retry_cost, count=float(u_retry.sum()), coalesce=COALESCE_SORTED)
            u_totals.conflicts += float(u_retry.sum())
            retries[plan.issued_orig[u_runs]] = u_retry
            ctx.art["u_steps_avg"] = float(u_steps.mean())

        splits_before = len(ctx.tree.split_events)
        u_old = ctx.system._apply_issued_updates(plan, u_runs, ctx.art["u_leaves"])
        splits = len(ctx.tree.split_events) - splits_before
        u_totals.add(im.split_smo, count=splits, coalesce=COALESCE_SORTED)
        ctx.phase.update_kernel = phase_seconds(u_totals, ctx.device)
        ctx.totals.merge(u_totals)
        ctx.art["old_vals"][u_runs] = u_old
        ctx.art["retries"] = retries
        ctx.art["splits"] = splits


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
        height = tree.height
        q_runs, u_runs = ctx.art["q_runs"], ctx.art["u_runs"]
        q_keys = plan.issued_keys[q_runs]
        u_keys = plan.issued_keys[u_runs]
        retries = np.zeros(ctx.n, dtype=np.float64)
        ctx.art["q_steps_avg"] = float(height)
        ctx.art["u_steps_avg"] = float(height)

        u_leaves = ctx.art["u_leaves"]
        writers_on_leaf = (
            np.bincount(u_leaves, minlength=tree.max_nodes)
            if u_leaves.size
            else np.zeros(tree.max_nodes, dtype=np.int64)
        )

        if u_keys.size:
            u_steps = ctx.art["u_steps"]
            totals.add(
                im.node_visit_plain, count=float(u_steps.sum()), coalesce=COALESCE_SORTED
            )
            totals.add(im.leaf_update_stm, count=int(u_keys.size), coalesce=COALESCE_SORTED)
            _, u_rank = writer_collision_groups(u_leaves)
            u_retry = OVERLAP * u_rank
            retry_cost = im.leaf_update_stm + im.abort_rollback
            totals.add(retry_cost, count=float(u_retry.sum()), coalesce=COALESCE_SORTED)
            totals.conflicts += float(u_retry.sum())
            retries[plan.issued_orig[u_runs]] = u_retry
            ctx.art["u_steps_avg"] = float(u_steps.mean())

        if q_keys.size:
            q_steps = ctx.art["q_steps"]
            q_leaves = ctx.art["q_leaves"]
            # plain per-lane scans (no NTG) + protected leaf-region read
            totals.add(
                im.node_visit_plain, count=float(q_steps.sum()), coalesce=COALESCE_SORTED
            )
            q_leaf_read = im.leaf_lookup_stm + im.tx_begin_commit_query
            totals.add(q_leaf_read, count=int(q_keys.size), coalesce=COALESCE_SORTED)
            q_retry = OVERLAP * UNIFIED_READER_EXPOSURE * writers_on_leaf[q_leaves]
            totals.add(q_leaf_read, count=float(q_retry.sum()), coalesce=COALESCE_SORTED)
            totals.conflicts += float(q_retry.sum())
            retries[plan.issued_orig[q_runs]] += q_retry
            # old values are read before the host applies the batch's updates
            q_old, _ = batch_leaf_lookup(tree, q_leaves, q_keys)
            ctx.art["old_vals"][q_runs] = q_old
            ctx.art["q_steps_avg"] = float(q_steps.mean())

        splits_before = len(tree.split_events)
        u_old = ctx.system._apply_issued_updates(plan, u_runs, u_leaves)
        splits = len(tree.split_events) - splits_before
        totals.add(im.split_smo, count=splits, coalesce=COALESCE_SORTED)
        ctx.art["old_vals"][u_runs] = u_old
        ctx.art["retries"] = retries
        ctx.art["splits"] = splits
        # one launch: a single roofline over the merged work (incl. ranges)
        ctx.phase.query_kernel = phase_seconds(totals, ctx.device)


class VectorResultCalPass(Pass):
    """RESULT_CAL: propagate dependence-chain results, patch ranges, model
    response times (retry-heavy requests respond late)."""

    name = "result_cal"

    def run(self, ctx: PipelineContext) -> None:
        batch = ctx.batch
        plan: CombinePlan = ctx.art["plan"]
        im = ctx.imodel
        n = ctx.n
        propagate_results(plan, ctx.art["old_vals"], ctx.results)
        apply_range_patches(batch, plan_range_patches(batch, plan), ctx.results)
        ctx.phase.result_cal = ctx.art["t_rescal"]

        seconds = ctx.phase.total
        # response times: every request's result is ready at the end of the
        # pipeline; conflict retries add per-request jitter on top
        resp = np.full(n, seconds / max(n, 1))
        retries = ctx.art.get("retries")
        if retries is not None and retries.any():
            jitter = retries * (im.leaf_update_stm.mem + im.abort_rollback.mem) \
                * ctx.device.cycles_per_mem_transaction / ctx.device.clock_hz / n
            resp = resp + jitter
        ctx.response_time_s = resp

        q_steps, u_steps = ctx.art["q_steps"], ctx.art["u_steps"]
        issued_steps = np.concatenate([q_steps, u_steps]) if (
            q_steps.size or u_steps.size
        ) else np.zeros(0)
        ctx.traversal_steps = (
            float(issued_steps.mean()) if issued_steps.size else float(ctx.tree.height)
        )
        ctx.extras.update(
            plan=plan,
            n_combined=plan.n_combined,
            splits=ctx.art.get("splits", 0),
            query_steps=ctx.art["q_steps_avg"],
            update_steps=ctx.art["u_steps_avg"],
        )


# --------------------------------------------------------------------- #
# SIMT-engine passes
# --------------------------------------------------------------------- #
def _merge_counters_into(totals: EventTotals, counters) -> None:
    totals.mem += counters.mem_inst
    totals.ctrl += counters.control_inst
    totals.alu += counters.alu_inst
    totals.atomic += counters.atomic_inst
    totals.transactions += counters.transactions


def _add_range_programs(ctx: PipelineContext, launch):
    """Add one raw-scan program (its own warp) per range request; returns
    the callable that installs the scans into ``ctx.results`` after the
    launch has run."""
    batch = ctx.batch
    range_idx = np.flatnonzero(batch.kinds == OpKind.RANGE)
    scans: list = [None] * range_idx.size
    for slot, i in enumerate(range_idx):
        lo, hi = int(batch.keys[i]), int(batch.range_ends[i])
        launch.add_programs([ctx.system._range_program(int(i), lo, hi, scans, slot)])

    def install() -> None:
        ctx.results.set_range_results(range_idx, *flatten_scans(scans))

    return install


class SimtQueryKernelPass(Pass):
    """QUERY_KERNEL launch: issued queries (iteration warps under locality)
    plus the batch's range programs, all in one unsynchronized launch."""

    name = "query_kernel"

    def __init__(self, locality: bool = True) -> None:
        self.locality = locality

    def run(self, ctx: PipelineContext) -> None:
        system = ctx.system
        plan: CombinePlan = ctx.art["plan"]
        old_vals = ctx.art["old_vals"]
        steps_record = ctx.art.setdefault("steps_record", [])
        q_runs = ctx.art["q_runs"]
        q_keys = plan.issued_keys[q_runs]

        launch = ctx.devctx.launch(ctx.n, rng=ctx.launch_rng())

        def on_result(slot: LaneSlot, val: int, steps: int, _horiz: bool) -> None:
            old_vals[slot.tag] = val
            steps_record.append(steps)

        if q_keys.size:
            if self.locality:
                system._add_iteration_warps(launch, plan, q_runs, on_result, update_ctx=None)
            else:
                launch.add_programs(
                    [
                        system._plain_query_program(plan, int(r), old_vals, steps_record)
                        for r in q_runs
                    ]
                )
        install_ranges = _add_range_programs(ctx, launch)
        counters = launch.run() if launch.n_warps else None
        install_ranges()
        if counters is not None:
            _merge_counters_into(ctx.totals, counters)
            ctx.phase.query_kernel = ctx.device.cycles_to_seconds(counters.cycles)
            ctx.art.setdefault("counters_list", []).append(counters)


class SimtUpdateKernelPass(Pass):
    """UPDATE_KERNEL launch: issued update-class requests under optimistic
    leaf-region STM (Algorithm 1); real conflicts from the STM stats."""

    name = "update_kernel"

    def __init__(self, locality: bool = True) -> None:
        self.locality = locality

    def run(self, ctx: PipelineContext) -> None:
        system = ctx.system
        cfg = system.config
        plan: CombinePlan = ctx.art["plan"]
        old_vals = ctx.art["old_vals"]
        steps_record = ctx.art.setdefault("steps_record", [])
        u_runs = ctx.art["u_runs"]
        u_retries = np.zeros(ctx.n, dtype=np.int64)
        stm_before = system.stm.stats.snapshot()

        launch = ctx.devctx.launch(ctx.n, rng=ctx.launch_rng())

        def on_result(slot: LaneSlot, val: int, steps: int, _horiz: bool) -> None:
            old_vals[slot.tag] = val
            steps_record.append(steps)

        if u_runs.size:
            if self.locality:
                system._add_iteration_warps(
                    launch,
                    plan,
                    u_runs,
                    on_result,
                    update_ctx=(system.stm, system.smo_lock_addr, cfg.stm_retry_threshold),
                )
            else:
                launch.add_programs(
                    [
                        system._plain_update_program(plan, int(r), old_vals, u_retries, steps_record)
                        for r in u_runs
                    ]
                )
        counters = launch.run() if launch.n_warps else None
        stm_delta = system.stm.stats.delta_since(stm_before)
        if counters is not None:
            _merge_counters_into(ctx.totals, counters)
            ctx.phase.update_kernel = ctx.device.cycles_to_seconds(counters.cycles)
            ctx.art.setdefault("counters_list", []).append(counters)
        ctx.totals.conflicts += float(stm_delta.conflicts)
        ctx.extras["stm"] = stm_delta
        ctx.extras["retries"] = int(u_retries.sum())


class SimtRangeScanPass(Pass):
    """Unified-kernel mode only: range programs launch *before* the unified
    kernel so they scan pre-update state (RESULT_CAL patches assume it)."""

    name = "range_scan"

    def run(self, ctx: PipelineContext) -> None:
        if not np.any(ctx.batch.kinds == OpKind.RANGE):
            return
        launch = ctx.devctx.launch(ctx.n, rng=ctx.launch_rng())
        install_ranges = _add_range_programs(ctx, launch)
        counters = launch.run()
        install_ranges()
        _merge_counters_into(ctx.totals, counters)
        ctx.phase.query_kernel += ctx.device.cycles_to_seconds(counters.cycles)
        ctx.art.setdefault("counters_list", []).append(counters)


class SimtUnifiedKernelPass(Pass):
    """``enable_kernel_partition=False`` ablation: every issued request in
    one launch. Update-class requests run Algorithm 1 unchanged; queries run
    :func:`~repro.core.kernels.d_protected_query` — they can race concurrent
    leaf splits, so their leaf read needs the STM leaf-region transaction."""

    name = "unified_kernel"

    def __init__(self, locality: bool = True) -> None:
        self.locality = locality

    def run(self, ctx: PipelineContext) -> None:
        system = ctx.system
        cfg = system.config
        plan: CombinePlan = ctx.art["plan"]
        old_vals = ctx.art["old_vals"]
        steps_record = ctx.art.setdefault("steps_record", [])
        all_runs = np.arange(plan.n_runs)
        u_retries = np.zeros(ctx.n, dtype=np.int64)
        stm_before = system.stm.stats.snapshot()

        launch = ctx.devctx.launch(ctx.n, rng=ctx.launch_rng())

        def on_result(slot: LaneSlot, val: int, steps: int, _horiz: bool) -> None:
            old_vals[slot.tag] = val
            steps_record.append(steps)

        if all_runs.size:
            if self.locality:
                system._add_iteration_warps(
                    launch,
                    plan,
                    all_runs,
                    on_result,
                    update_ctx=(system.stm, system.smo_lock_addr, cfg.stm_retry_threshold),
                )
            else:
                programs = []
                for r in all_runs:
                    if int(plan.run_has_update[r]):
                        programs.append(
                            system._plain_update_program(
                                plan, int(r), old_vals, u_retries, steps_record
                            )
                        )
                    else:
                        programs.append(
                            system._protected_query_program(plan, int(r), old_vals, steps_record)
                        )
                launch.add_programs(programs)
        counters = launch.run() if launch.n_warps else None
        stm_delta = system.stm.stats.delta_since(stm_before)
        if counters is not None:
            _merge_counters_into(ctx.totals, counters)
            ctx.phase.query_kernel += ctx.device.cycles_to_seconds(counters.cycles)
            ctx.art.setdefault("counters_list", []).append(counters)
        ctx.totals.conflicts += float(stm_delta.conflicts)
        ctx.extras["stm"] = stm_delta
        ctx.extras["retries"] = int(u_retries.sum())


class SimtResultCalPass(Pass):
    """RESULT_CAL + response times from the merged launch counters."""

    name = "result_cal"

    def run(self, ctx: PipelineContext) -> None:
        batch = ctx.batch
        plan: CombinePlan = ctx.art["plan"]
        n = ctx.n
        propagate_results(plan, ctx.art["old_vals"], ctx.results)
        apply_range_patches(batch, plan_range_patches(batch, plan), ctx.results)
        ctx.phase.result_cal = ctx.art["t_rescal"]

        merged = None
        for counters in ctx.art.get("counters_list", []):
            merged = counters if merged is None else merged.merge(counters)
        seconds = ctx.phase.total
        if merged is not None:
            ctx.response_time_s = simt_response_times(merged, seconds, n)
        else:
            ctx.response_time_s = np.full(n, seconds / max(n, 1))
        ctx.counters = merged

        steps_arr = np.asarray(ctx.art.get("steps_record", []), dtype=np.int64)
        ctx.traversal_steps = (
            float(steps_arr.mean()) if steps_arr.size else float(ctx.tree.height)
        )
        ctx.extras.update(plan=plan, n_combined=plan.n_combined)


class EireneTree(System):
    """Combining-based concurrent GPU B+tree."""

    name = "Eirene"

    def __init__(
        self,
        tree: BPlusTree,
        stm_region: StmRegion,
        smo_lock_addr: int,
        device: DeviceConfig | None = None,
        config: EireneConfig = FULL_EIRENE,
        cost: CostModel | None = None,
        devctx=None,
    ) -> None:
        super().__init__(tree, device, devctx)
        if not config.enable_combining:
            raise ConfigError(
                "EireneTree always combines; for the no-combining baseline "
                "use StmGBTree (the paper's Fig. 11 ablation does the same)"
            )
        self.config = config
        self.stm = DeviceStm(tree.arena, stm_region)
        self.smo_lock_addr = smo_lock_addr
        self.cost = cost or self.devctx.cost

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

    def _host_phase_times(self, plan: CombinePlan) -> tuple[float, float, float]:
        """Sort / combine / result-cal device time from primitive work."""
        c = self.cost
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
        counts, keys, values = flatten_scans(
            [self.tree.range_scan(int(batch.keys[i]), int(batch.range_ends[i])) for i in range_idx]
        )
        results.set_range_results(range_idx, counts, keys, values)
        span_total = int((counts // max(self.imodel.fanout // 2, 1) + 1).sum())
        return int(range_idx.size), span_total

    def _apply_issued_updates(
        self, plan: CombinePlan, u_runs: np.ndarray, u_leaves: np.ndarray
    ) -> np.ndarray:
        """Apply issued update-class requests (unique, key-sorted) host-side
        as one batch on the leaves the traversal found; returns their old
        values."""
        return self.tree.apply_updates(
            plan.issued_kinds[u_runs],
            plan.issued_keys[u_runs],
            plan.issued_values[u_runs],
            u_leaves,
        )

    # ------------------------------------------------------------------ #
    # SIMT program builders
    # ------------------------------------------------------------------ #
    def _plain_query_program(self, plan: CombinePlan, run: int, old_vals, steps_record):
        tree = self.tree
        key = int(plan.issued_keys[run])
        req_id = int(plan.issued_orig[run])

        def program():
            val, steps = yield from d_query(tree, key)
            old_vals[run] = val
            steps_record.append(steps)
            yield Mark(req_id)

        return program()

    def _protected_query_program(self, plan: CombinePlan, run: int, old_vals, steps_record):
        """Unified-kernel query: STM-protected leaf read (can race writers)."""
        tree = self.tree
        key = int(plan.issued_keys[run])
        req_id = int(plan.issued_orig[run])

        def program():
            val, steps, _retries, _horiz, _leaf = yield from d_protected_query(
                tree, self.stm, key
            )
            old_vals[run] = val
            steps_record.append(steps)
            yield Mark(req_id)

        return program()

    def _range_program(self, req_id: int, lo: int, hi: int, scans: list, slot: int):
        tree = self.tree

        def program():
            ks, vs, _steps = yield from d_range_raw(tree, lo, hi)
            scans[slot] = (ks, vs)
            yield Mark(req_id)

        return program()

    def _plain_update_program(self, plan: CombinePlan, run: int, old_vals, u_retries, steps_record):
        tree = self.tree
        cfg = self.config
        kind = int(plan.issued_kinds[run])
        key = int(plan.issued_keys[run])
        value = int(plan.issued_values[run])
        req_id = int(plan.issued_orig[run])

        def program():
            res = yield from d_update(
                tree, self.stm, self.smo_lock_addr, cfg.stm_retry_threshold,
                req_id, kind, key, value,
            )
            old_vals[run] = res.old
            u_retries[req_id] = res.retries
            steps_record.append(res.steps)
            yield Mark(req_id)

        return program()

    def _add_iteration_warps(self, launch, plan: CombinePlan, runs: np.ndarray,
                             on_result, update_ctx) -> None:
        """Pack the issued requests of ``runs`` (key-sorted) into iteration
        warps of ``rgs_per_iteration_warp`` request groups each."""
        cfg = self.config
        ws = self.device.warp_size
        iplan = build_iteration_plan(
            int(runs.size), ws, cfg.rgs_per_iteration_warp, self.device.num_sms
        )
        for w in range(iplan.n_warps):
            rgs = iplan.rgs_of_warp(w)
            n_iters = len(rgs)
            shared = make_warp_shared(n_iters)
            lane_count = max(int(iplan.rg_end[r] - iplan.rg_start[r]) for r in rgs)
            last_lane = [int(iplan.rg_end[r] - iplan.rg_start[r]) - 1 for r in rgs]
            rg_max_key = [int(plan.issued_keys[runs[int(iplan.rg_end[r]) - 1]]) for r in rgs]
            programs = []
            for lane in range(lane_count):
                slots: list[LaneSlot | None] = []
                for r in rgs:
                    pos = int(iplan.rg_start[r]) + lane
                    if pos < int(iplan.rg_end[r]):
                        run = int(runs[pos])
                        slots.append(
                            LaneSlot(
                                req_id=int(plan.issued_orig[run]),
                                kind=int(plan.issued_kinds[run]),
                                key=int(plan.issued_keys[run]),
                                value=int(plan.issued_values[run]),
                                tag=run,
                            )
                        )
                    else:
                        slots.append(None)
                programs.append(
                    make_iteration_lane_program(
                        self.tree, shared, lane, lane_count, slots, last_lane,
                        rg_max_key, cfg.enable_rf_decision, on_result, update_ctx,
                    )
                )
            launch.add_warp(programs)
