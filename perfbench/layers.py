"""Per-layer metrics: which callables the traced run wraps, and how the
recorded spans and batch outcomes turn into per-layer numbers.

Span names are ``<layer>.<call>``; the pipeline's passes are ``pass.<name>``,
the benchmark's own timing of ``process_batch`` is ``process_batch`` and the
system's ``process_batch`` is ``pipeline``. Time figures are per timed batch.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from .spans import Span, SpanRecorder, self_times

#: the pipeline passes reported one by one
PASSES = (
    "combine", "partition", "locality", "query_kernel",
    "update_kernel", "range_scan", "result_cal",
)

#: every per-layer metric with its unit, in report order
UNITS: dict[str, str] = {
    **{f"pass.{p}.self_ms": "ms" for p in PASSES},
    **{f"pass.{p}.modeled_share": "fraction" for p in PASSES},
    "unattributed_ms": "ms",
    "simt.launch_ms": "ms",
    "simt.launches": "count",
    "simt.lane_inst_per_host_s": "1/s",
    "simt.issued_slots_per_req": "count",
    "simt.divergent_slot_frac": "fraction",
    "simt.transactions_per_req": "count",
    "stm.conflicts_per_update": "count",
    "stm.aborts_per_commit": "fraction",
    "combining.self_ms": "ms",
    "combining.radix_ms": "ms",
    "combining.combined_frac": "fraction",
    "locality.self_ms": "ms",
    "locality.steps_per_req": "count",
    "btree.host_ops": "count",
    "btree.host_op_ms": "ms",
    "btree.splits": "count",
    "range_combining.self_ms": "ms",
    "range_combining.keys_per_range": "count",
    "sharding.route_ms": "ms",
    "sharding.merge_ms": "ms",
    "sharding.worker_wait_ms": "ms",
    "sharding.worker_busy_frac": "fraction",
    "sharding.load_imbalance": "ratio",
    "lincheck.check_ms": "ms",
    "tracing.throughput_ratio": "ratio",
}


def _launch_attrs(_args, counters) -> dict:
    return {
        "inst": counters.total_inst,
        "slots": counters.issued_slots,
        "divergent": counters.divergent_slots,
        "transactions": counters.transactions,
    }


def _plan_attrs(_args, plan) -> dict:
    return {"point": plan.n_point, "combined": plan.n_combined}


def _route_attrs(_args, routed) -> dict:
    return {"sizes": [r.n for r in routed]}


def _subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def install(rec: SpanRecorder) -> None:
    """Wrap the public callables of every layer (undo with ``rec.restore()``).

    Module-level functions are wrapped wherever a ``repro`` module imported
    them by name, except ``radix_argsort`` and ``merge_shard_outcomes``,
    which are wrapped only where ``repro.core.combining`` and
    ``repro.sharding.parallel`` resolve them.
    """
    import repro.core.eirene  # noqa: F401  (defines the Eirene passes)
    import repro.lincheck  # noqa: F401
    import repro.sharding.parallel  # noqa: F401
    from repro.baselines.base import System
    from repro.btree.tree import BPlusTree
    from repro.core.pipeline import Pass
    from repro.lincheck.sequential import SequentialReference
    from repro.sharding.router import ShardRouter
    from repro.simt.launcher import KernelLaunch

    rec.patch_pipeline_root(System)
    for cls in _subclasses(Pass):
        if "run" in cls.__dict__:
            rec.patch_method(cls, "run", f"pass.{cls.name}")
    rec.patch_method(KernelLaunch, "run", "simt.launch", attrs=_launch_attrs)
    rec.patch_function(
        "repro.core.combining", "combine_point_requests", "combining.combine", attrs=_plan_attrs
    )
    rec.patch_function("repro.core.combining", "propagate_results", "combining.propagate")
    rec.patch_function(
        "repro.core.combining", "radix_argsort", "combining.radix", everywhere=False
    )
    rec.patch_function("repro.core.locality", "vector_locality_steps", "locality.steps")
    rec.patch_function("repro.core.locality", "build_iteration_plan", "locality.plan")
    for method in ("upsert", "delete", "search", "range_scan"):
        rec.patch_method(BPlusTree, method, f"btree.{method}")
    rec.patch_function("repro.core.range_combining", "plan_range_patches", "range_combining.plan")
    rec.patch_function(
        "repro.core.range_combining", "apply_range_patches", "range_combining.apply"
    )
    rec.patch_method(ShardRouter, "route", "sharding.route", attrs=_route_attrs)
    rec.patch_shard_merge("repro.sharding.parallel")
    rec.patch_method(SequentialReference, "execute", "lincheck.execute")
    rec.patch_function("repro.lincheck.checker", "check_linearizable", "lincheck.check")


@dataclass
class TracedBatch:
    """What the traced run keeps of one timed batch's outcome."""

    n: int
    n_update_class: int
    n_range: int
    range_keys: int
    traversal_steps: float
    #: modeled seconds per pass name (from ``BatchOutcome.trace``)
    modeled: dict[str, float]
    #: Σ host wall seconds of the shard pipelines (sharded fleets only)
    shard_busy_s: float

    @classmethod
    def of(cls, batch, outcome) -> "TracedBatch":
        from repro._types import OpKind

        is_range = batch.kinds == OpKind.RANGE
        update_class = ~is_range & (batch.kinds != OpKind.QUERY)
        counts = np.diff(outcome.results.range_offsets)
        modeled: dict[str, float] = defaultdict(float)
        for r in outcome.trace.records:
            modeled[r.name] += r.modeled_s
        shard_traces = outcome.extras.get("shard_traces", {})
        return cls(
            n=batch.n,
            n_update_class=int(update_class.sum()),
            n_range=int(is_range.sum()),
            range_keys=int(counts[is_range].sum()),
            traversal_steps=float(outcome.traversal_steps),
            modeled=dict(modeled),
            shard_busy_s=sum(t.wall_total_s for t in shard_traces.values()),
        )


def _bucket(span: Span, sharded: bool) -> str:
    """Where a span's self time goes in the per-batch breakdown."""
    if span.name == "process_batch":
        return "sharding.worker_wait" if sharded else "unattributed"
    if span.name == "pipeline":
        return "unattributed"
    if span.name.startswith("pass.") or span.name.startswith("sharding."):
        return span.name
    return span.name.split(".")[0]


def batch_breakdown(spans: list[Span], sharded: bool) -> list[dict[str, float]]:
    """Per timed batch, the benchmark process's ``process_batch`` wall time
    split into self times: passes, the layers they call and the
    ``unattributed`` remainder (for a sharded fleet: route, merge and the
    wait on the workers). Each row also holds ``wall`` and the ``batch`` id;
    the other entries sum to ``wall``.
    """
    selfs = self_times(spans)
    root_of: list[int] = []
    rows: dict[int, dict[str, float]] = {}
    for i, s in enumerate(spans):
        root = i if s.parent is None else root_of[s.parent]
        root_of.append(root)
        if s.shard is not None or spans[root].name != "process_batch":
            continue
        if root == i:
            rows[i] = {"batch": s.batch, "wall": s.duration}
        row = rows[root]
        key = _bucket(s, sharded)
        row[key] = row.get(key, 0.0) + selfs[i]
    return list(rows.values())


def layer_metrics(
    spans: list[Span],
    rows: list[dict[str, float]],
    batches: list[TracedBatch],
    leaf_extras: list[dict],
    n_workers: int,
) -> dict[str, float]:
    """Every metric of :data:`UNITS` except ``tracing.throughput_ratio``;
    ``rows`` is the :func:`batch_breakdown` of ``spans``."""
    nb = max(len(batches), 1)
    n_req = sum(b.n for b in batches)
    selfs = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    dur_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    attrs: dict[str, Counter] = defaultdict(Counter)
    imbalance: list[float] = []
    for s, st in zip(spans, selfs):
        if s.batch < 0:
            continue
        self_s[s.name] += st
        dur_s[s.name] += s.duration
        calls[s.name] += 1
        if s.attrs and s.name == "sharding.route":
            sizes = np.asarray(s.attrs["sizes"], dtype=np.float64)
            imbalance.append(float(sizes.max() / sizes.mean()) if sizes.mean() else 1.0)
        elif s.attrs:
            attrs[s.name].update(s.attrs)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: dict[str, float] = {}
    modeled_total = sum(sum(b.modeled.values()) for b in batches)
    for p in PASSES:
        out[f"pass.{p}.self_ms"] = self_s[f"pass.{p}"] * 1e3 / nb
        out[f"pass.{p}.modeled_share"] = ratio(
            sum(b.modeled.get(p, 0.0) for b in batches), modeled_total
        )
    out["unattributed_ms"] = sum(r.get("unattributed", 0.0) for r in rows) * 1e3 / nb

    launch = attrs["simt.launch"]
    out["simt.launch_ms"] = dur_s["simt.launch"] * 1e3 / nb
    out["simt.launches"] = calls["simt.launch"] / nb
    out["simt.lane_inst_per_host_s"] = ratio(launch["inst"], dur_s["simt.launch"])
    out["simt.issued_slots_per_req"] = ratio(launch["slots"], n_req)
    out["simt.divergent_slot_frac"] = ratio(launch["divergent"], launch["slots"])
    out["simt.transactions_per_req"] = ratio(launch["transactions"], n_req)

    stm = [e["stm"] for e in leaf_extras if "stm" in e]
    out["stm.conflicts_per_update"] = ratio(
        sum(d.conflicts for d in stm), sum(b.n_update_class for b in batches)
    )
    out["stm.aborts_per_commit"] = ratio(
        sum(d.aborts for d in stm), sum(d.commits for d in stm)
    )

    plan = attrs["combining.combine"]
    out["combining.self_ms"] = (
        self_s["combining.combine"] + self_s["combining.propagate"]
    ) * 1e3 / nb
    out["combining.radix_ms"] = dur_s["combining.radix"] * 1e3 / nb
    out["combining.combined_frac"] = ratio(plan["combined"], plan["point"])

    out["locality.self_ms"] = (self_s["locality.steps"] + self_s["locality.plan"]) * 1e3 / nb
    out["locality.steps_per_req"] = float(np.mean([b.traversal_steps for b in batches]))

    btree = [n for n in calls if n.startswith("btree.")]
    out["btree.host_ops"] = sum(calls[n] for n in btree) / nb
    out["btree.host_op_ms"] = sum(self_s[n] for n in btree) * 1e3 / nb
    out["btree.splits"] = sum(e.get("splits", 0) for e in leaf_extras) / nb

    out["range_combining.self_ms"] = (
        self_s["range_combining.plan"] + self_s["range_combining.apply"]
    ) * 1e3 / nb
    out["range_combining.keys_per_range"] = ratio(
        sum(b.range_keys for b in batches), sum(b.n_range for b in batches)
    )

    wait_s = sum(r.get("sharding.worker_wait", 0.0) for r in rows)
    out["sharding.route_ms"] = dur_s["sharding.route"] * 1e3 / nb
    out["sharding.merge_ms"] = dur_s["sharding.merge"] * 1e3 / nb
    out["sharding.worker_wait_ms"] = wait_s * 1e3 / nb
    out["sharding.worker_busy_frac"] = ratio(
        sum(b.shard_busy_s for b in batches), n_workers * wait_s
    )
    out["sharding.load_imbalance"] = float(np.mean(imbalance)) if imbalance else 0.0

    out["lincheck.check_ms"] = (
        dur_s["lincheck.execute"] + dur_s["lincheck.check"]
    ) * 1e3 / nb
    return out
