"""Composable pass pipeline: every system's batch processing is a pass list.

Algorithm 1's phases (COMBINING → PARTITION → QUERY_KERNEL → UPDATE_KERNEL
→ RESULT_CAL) and the baselines' batch loops are expressed as concrete
:class:`Pass` objects threaded over one :class:`PipelineContext`. A system
is just a different pass list, and every ablation of
:class:`~repro.config.EireneConfig` is a different *pass selection*
(:func:`eirene_pass_plan`) — never a boolean branch inside system code.

Contract:

* a :class:`Pass` reads and writes the shared :class:`PipelineContext`:
  instruction totals (``ctx.totals``), the modeled per-phase device time
  (``ctx.phase``), results, response times, and free-form artifacts
  (``ctx.art``) that downstream passes consume;
* a pass that models device time must account it into ``ctx.phase`` —
  the pipeline attributes the ``ctx.phase.total`` *delta* of each pass to
  that pass's trace record, so per-pass modeled seconds always sum to the
  batch's reported ``seconds``;
* the final pass (:class:`FinalizePass`) assembles the
  :class:`~repro.baselines.base.BatchOutcome`; the pipeline then attaches
  the :class:`~repro.metrics.trace.PipelineTrace` to it.

This is the module DESIGN.md's experiment index refers to as
"``core.pipeline`` feature flags": Fig. 11/12 ablation variants are built
by selecting passes from an :class:`~repro.config.EireneConfig`.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from ..errors import ConfigError, SimulationError
from ..metrics.trace import PassRecord, PipelineTrace
from ..simt import PhaseTime
from ..workloads.requests import BatchResults, RequestBatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (base imports us lazily)
    from ..baselines.base import BatchOutcome, System
    from ..baselines.model import EventTotals
    from ..simt import KernelCounters


def _new_totals():
    from ..baselines.model import EventTotals

    return EventTotals()


@dataclass
class PipelineContext:
    """Everything a batch accumulates while flowing through the passes."""

    system: "System"
    batch: RequestBatch
    engine: str
    #: accumulated instruction/transaction/conflict totals (vector charges
    #: or SIMT counter sums) — becomes the outcome's instruction fields
    totals: "EventTotals" = field(default_factory=_new_totals)
    #: modeled device seconds per pipeline phase
    phase: PhaseTime = field(default_factory=PhaseTime)
    results: BatchResults | None = None
    response_time_s: np.ndarray | None = None
    traversal_steps: float | None = None
    counters: "KernelCounters | None" = None
    extras: dict = field(default_factory=dict)
    #: free-form artifacts handed between passes (plan, runs, leaves, ...)
    art: dict[str, Any] = field(default_factory=dict)
    trace: PipelineTrace | None = None
    outcome: "BatchOutcome | None" = None

    def __post_init__(self) -> None:
        if self.results is None:
            self.results = BatchResults.empty(self.batch.n)

    # -- conveniences ------------------------------------------------------ #
    @property
    def n(self) -> int:
        return self.batch.n

    @property
    def tree(self):
        return self.system.tree

    @property
    def device(self):
        return self.system.device

    @property
    def devctx(self):
        return self.system.devctx

    @property
    def imodel(self):
        return self.system.imodel

    def roofline_phase(self, bucket: str = "query_kernel") -> None:
        """Set ``phase.<bucket>`` to the roofline seconds of ``ctx.totals``.

        Single-kernel vector systems call this after each charging pass:
        the bucket tracks the *cumulative* roofline, so each pass's trace
        delta is its marginal device time and the deltas sum exactly to the
        final batch seconds.
        """
        from ..baselines.model import phase_seconds

        setattr(self.phase, bucket, 0.0)
        rest = self.phase.total
        setattr(self.phase, bucket, max(phase_seconds(self.totals, self.device) - rest, 0.0))

    def launch(self):
        """A SIMT grid on the system's device, scheduled by the batch's one
        warp-scheduling rng (shared by every launch and consumed in launch
        order, like consecutive launches of one stream)."""
        if "sched_rng" not in self.art:
            self.art["sched_rng"] = self.system._launch_rng(self.batch)
        return self.devctx.launch(self.n, rng=self.art["sched_rng"])

    def run_launch(self, launch, bucket: str) -> None:
        """Run ``launch`` unless it is empty and account it: its instruction
        and transaction counters into ``totals``, its device seconds onto
        ``phase.<bucket>``, its counters merged into ``counters`` in launch
        order."""
        if not launch.n_warps:
            return
        c = launch.run()
        t = self.totals
        t.mem += c.mem_inst
        t.ctrl += c.control_inst
        t.alu += c.alu_inst
        t.atomic += c.atomic_inst
        t.transactions += c.transactions
        seconds = getattr(self.phase, bucket) + self.device.cycles_to_seconds(c.cycles)
        setattr(self.phase, bucket, seconds)
        self.counters = c if self.counters is None else self.counters.merge(c)

    def simt_response(self) -> None:
        """Per-request response times from the launches' service steps.

        The average is ``batch time / batch size`` (the paper's definition);
        each request deviates from it in proportion to its measured service
        time (lockstep slots between its lane's Marks), so retry-heavy
        requests respond late and conflict-free batches respond uniformly.
        With no launch run, every request gets the average.
        """
        mean_s = self.phase.total / max(self.n, 1)
        if self.counters is None:
            self.response_time_s = np.full(self.n, mean_s)
            return
        service = self.counters.service_steps.astype(np.float64)
        valid = np.isfinite(service)
        mean = float(service[valid].mean()) if valid.any() else 1.0
        self.response_time_s = mean_s * np.where(
            valid & (mean > 0), service / max(mean, 1e-12), 1.0
        )


class Pass(abc.ABC):
    """One stage of a system's batch-processing pipeline.

    Subclasses set ``name`` (the trace/plan identity — stable across
    engines) and implement :meth:`run`. Per-pass timing and counter deltas
    are recorded by the pipeline, not the pass.
    """

    name: str = "pass"

    @abc.abstractmethod
    def run(self, ctx: PipelineContext) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


class PassPipeline:
    """An ordered pass list executed over one PipelineContext with tracing."""

    def __init__(self, passes: list[Pass], name: str = "") -> None:
        if not passes:
            raise ConfigError("a pipeline needs at least one pass")
        self.passes = list(passes)
        self.name = name

    @property
    def pass_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.passes)

    def run(self, ctx: PipelineContext) -> PipelineContext:
        trace = PipelineTrace(system=ctx.system.name, engine=ctx.engine)
        for p in self.passes:
            before_phase = ctx.phase.total
            t = ctx.totals
            before = (t.mem, t.ctrl, t.alu, t.atomic, t.transactions, t.conflicts)
            wall0 = time.perf_counter()
            p.run(ctx)
            wall = time.perf_counter() - wall0
            t = ctx.totals
            trace.records.append(
                PassRecord(
                    name=p.name,
                    wall_s=wall,
                    modeled_s=ctx.phase.total - before_phase,
                    mem_inst=t.mem - before[0],
                    control_inst=t.ctrl - before[1],
                    alu_inst=t.alu - before[2],
                    atomic_inst=t.atomic - before[3],
                    transactions=t.transactions - before[4],
                    conflicts=t.conflicts - before[5],
                )
            )
        ctx.trace = trace
        if ctx.outcome is not None:
            ctx.outcome.trace = trace
        return ctx


# --------------------------------------------------------------------- #
# pass plans: EireneConfig feature flags -> pass selection
# --------------------------------------------------------------------- #
def eirene_pass_plan(config, engine: str) -> tuple[str, ...]:
    """Pass names Eirene's pipeline assembles for ``config`` on ``engine``.

    This is the single source of truth for the Fig. 11/12 ablation
    variants: ``enable_locality`` swaps the traversal pass,
    ``enable_kernel_partition`` swaps the split query/update kernels for
    one unified (fully protected) kernel. Combining is structural for
    Eirene (the no-combining bar is the STM baseline, as in the paper), so
    ``combine`` is always present.
    """
    names = ["combine", "partition"]
    if engine == "vector":
        names.append("locality" if config.enable_locality else "traversal")
        if config.enable_kernel_partition:
            names += ["query_kernel", "range_scan", "update_kernel"]
        else:
            names += ["range_scan", "unified_kernel"]
    elif engine == "simt":
        # the SIMT query kernel carries the range programs in its own
        # launch (same warp packing as Algorithm 1), so there is no
        # separate range pass unless the kernels are unified
        if config.enable_kernel_partition:
            names += ["query_kernel", "update_kernel"]
        else:
            names += ["range_scan", "unified_kernel"]
    else:
        raise ConfigError(f"unknown engine {engine!r}; use 'vector' or 'simt'")
    names += ["result_cal", "finalize"]
    return tuple(names)


# --------------------------------------------------------------------- #
# shared passes (used by every system's pipeline)
# --------------------------------------------------------------------- #
class HostApplyPass(Pass):
    """Vector-engine state evolution: execute the batch against the tree in
    timestamp order and charge the split SMOs it performed.

    ``split_cost_factor`` scales the SMO instruction bundle to the
    system's split mechanism (plain rewrite, latched, ownership storm).
    """

    name = "apply"

    def __init__(self, split_cost_factor: float = 1.0, bucket: str = "query_kernel") -> None:
        self.split_cost_factor = split_cost_factor
        self.bucket = bucket

    def run(self, ctx: PipelineContext) -> None:
        tree = ctx.tree
        before = len(tree.split_events)
        ctx.results = ctx.system._apply_in_timestamp_order(ctx.batch)
        splits = len(tree.split_events) - before
        ctx.totals.add(ctx.imodel.split_smo * self.split_cost_factor, count=splits)
        ctx.roofline_phase(self.bucket)


class WeightedResponsePass(Pass):
    """Vector-engine response times: uniform ``seconds / n`` baseline,
    skewed by the per-request ``work`` artifact when a model pass left one
    (retry-heavy requests respond late)."""

    name = "response_model"

    def run(self, ctx: PipelineContext) -> None:
        n = max(ctx.n, 1)
        seconds = ctx.phase.total
        work = ctx.art.get("work")
        if work is None or ctx.n == 0:
            ctx.response_time_s = np.full(ctx.n, seconds / n)
        else:
            ctx.response_time_s = (seconds / n) * (work / max(work.mean(), 1e-12))


class SimtResponsePass(Pass):
    """SIMT-engine response times from measured per-lane service steps."""

    name = "response_model"

    def run(self, ctx: PipelineContext) -> None:
        ctx.simt_response()


class FinalizePass(Pass):
    """Assemble the BatchOutcome from the accumulated context."""

    name = "finalize"

    def run(self, ctx: PipelineContext) -> None:
        from ..baselines.base import BatchOutcome

        if ctx.response_time_s is None:
            ctx.response_time_s = np.full(ctx.n, ctx.phase.total / max(ctx.n, 1))
        steps = ctx.traversal_steps
        t = ctx.totals
        ctx.outcome = BatchOutcome(
            system=ctx.system.name,
            results=ctx.results,
            n_requests=ctx.n,
            seconds=ctx.phase.total,
            phase=ctx.phase,
            response_time_s=ctx.response_time_s,
            mem_inst=t.mem,
            control_inst=t.ctrl,
            alu_inst=t.alu,
            atomic_inst=t.atomic,
            transactions=t.transactions,
            conflicts=t.conflicts,
            traversal_steps=float(ctx.tree.height) if steps is None else steps,
            counters=ctx.counters,
            extras=ctx.extras,
        )


def run_pipeline(system: "System", batch: RequestBatch, engine: str) -> "BatchOutcome":
    """Build the system's pipeline for ``engine`` and push one batch through."""
    pipeline = system.build_pipeline(engine)
    ctx = PipelineContext(system=system, batch=batch, engine=engine)
    pipeline.run(ctx)
    if ctx.outcome is None:
        raise SimulationError(
            f"pipeline {pipeline.pass_names} for {system.name!r} produced no outcome "
            "(is a FinalizePass missing?)"
        )
    return ctx.outcome
