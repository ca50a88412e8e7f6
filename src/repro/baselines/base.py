"""System interface: every tree under test processes batches through this.

A *system* owns a :class:`~repro.btree.BPlusTree` plus its concurrency
machinery and turns request batches into :class:`BatchOutcome`s through one
of two engines:

* ``engine="simt"`` — thread programs on the lockstep simulator; measured
  instructions, real interleaving, real conflicts. Scales to ~10⁴ requests.
* ``engine="vector"`` — numpy batch execution of the same algorithms with
  the expected-value event model of :mod:`repro.baselines.model`. Scales to
  ~10⁶ requests; used for throughput sweeps.

Both engines mutate the same underlying tree, so multi-batch epochs evolve
state identically regardless of engine choice.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from ..device import DeviceContext
from ..errors import ConfigError
from ..lincheck import SequentialReference
from ..metrics import (
    InstructionProfile,
    ResponseTimeStats,
    ThroughputResult,
    response_time_stats,
)
from ..metrics.trace import PipelineTrace, merge_traces
from ..simt import KernelCounters, PhaseTime
from ..btree.tree import BPlusTree
from ..workloads.requests import BatchResults, RequestBatch, flatten_scans
from .model import InstModel


@dataclass
class BatchOutcome:
    """Everything measured while processing one batch."""

    system: str
    results: BatchResults
    n_requests: int
    seconds: float
    phase: PhaseTime
    #: per-request response time (seconds); the paper's QoS metric source
    response_time_s: np.ndarray
    mem_inst: float = 0.0
    control_inst: float = 0.0
    alu_inst: float = 0.0
    atomic_inst: float = 0.0
    transactions: float = 0.0
    conflicts: float = 0.0
    #: average tree-traversal steps per issued request (Fig. 10)
    traversal_steps: float = 0.0
    #: raw SIMT counters when engine="simt"
    counters: KernelCounters | None = None
    #: per-pass breakdown of the pipeline run that produced this outcome;
    #: its modeled pass seconds sum to ``seconds``
    trace: PipelineTrace | None = None
    extras: dict = field(default_factory=dict)

    @property
    def throughput(self) -> ThroughputResult:
        return ThroughputResult(requests=self.n_requests, seconds=self.seconds)

    @property
    def mem_inst_per_request(self) -> float:
        return self.mem_inst / self.n_requests if self.n_requests else 0.0

    @property
    def control_inst_per_request(self) -> float:
        return self.control_inst / self.n_requests if self.n_requests else 0.0

    @property
    def conflicts_per_request(self) -> float:
        return self.conflicts / self.n_requests if self.n_requests else 0.0

    def response_stats(self) -> ResponseTimeStats:
        return response_time_stats(self.response_time_s)

    def profile(self) -> InstructionProfile:
        return InstructionProfile(
            system=self.system,
            n_requests=self.n_requests,
            mem_inst=self.mem_inst_per_request,
            control_inst=self.control_inst_per_request,
            alu_inst=self.alu_inst / max(self.n_requests, 1),
            atomic_inst=self.atomic_inst / max(self.n_requests, 1),
            conflicts=self.conflicts_per_request,
            traversal_steps=self.traversal_steps,
        )


def merge_outcomes(outcomes: list[BatchOutcome]) -> BatchOutcome:
    """Aggregate several batches of one system into one outcome.

    Results are dropped (they belong to their batches); metrics accumulate.
    """
    if not outcomes:
        raise ValueError("no outcomes to merge")
    first = outcomes[0]
    total_req = sum(o.n_requests for o in outcomes)
    out = BatchOutcome(
        system=first.system,
        results=BatchResults.empty(0),
        n_requests=total_req,
        seconds=sum(o.seconds for o in outcomes),
        phase=PhaseTime(
            sort=sum(o.phase.sort for o in outcomes),
            combine=sum(o.phase.combine for o in outcomes),
            query_kernel=sum(o.phase.query_kernel for o in outcomes),
            update_kernel=sum(o.phase.update_kernel for o in outcomes),
            result_cal=sum(o.phase.result_cal for o in outcomes),
            other=sum(o.phase.other for o in outcomes),
        ),
        response_time_s=np.concatenate([o.response_time_s for o in outcomes]),
        mem_inst=sum(o.mem_inst for o in outcomes),
        control_inst=sum(o.control_inst for o in outcomes),
        alu_inst=sum(o.alu_inst for o in outcomes),
        atomic_inst=sum(o.atomic_inst for o in outcomes),
        transactions=sum(o.transactions for o in outcomes),
        conflicts=sum(o.conflicts for o in outcomes),
        traversal_steps=float(
            np.average(
                [o.traversal_steps for o in outcomes],
                weights=[o.n_requests for o in outcomes],
            )
        ),
        trace=merge_traces([o.trace for o in outcomes]),
    )
    return out


class System(abc.ABC):
    """A concurrent GPU B+tree under test.

    Batch processing runs through the pass pipeline
    (:mod:`repro.core.pipeline`): a system is characterized entirely by the
    pass list its :meth:`build_pipeline` assembles per engine.
    """

    name: str = "abstract"

    def __init__(self, tree: BPlusTree, devctx: DeviceContext) -> None:
        if devctx.arena is not tree.arena:
            raise ConfigError("devctx must own the arena the tree lives in")
        self.devctx = devctx
        self.tree = tree
        self.device = devctx.device
        self.imodel = InstModel(tree.layout.fanout)

    def process_batch(self, batch: RequestBatch, engine: str = "vector") -> BatchOutcome:
        """Process one buffered batch through the pass pipeline; mutates the
        tree. The returned outcome carries a per-pass ``trace``."""
        if engine not in ("vector", "simt"):
            raise ConfigError(f"unknown engine {engine!r}; use 'vector' or 'simt'")
        # local import: core.pipeline is a downstream module (the concrete
        # system passes live next to the systems), imported lazily here to
        # keep base importable on its own
        from ..core.pipeline import run_pipeline

        return run_pipeline(self, batch, engine)

    @abc.abstractmethod
    def build_pipeline(self, engine: str):
        """Assemble this system's pass list for ``engine``.

        Returns a :class:`repro.core.pipeline.PassPipeline`.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # shared helpers
    # ------------------------------------------------------------------ #
    def _launch_rng(self, batch: RequestBatch) -> np.random.Generator:
        """Warp-scheduling rng, seeded from the batch contents: runs are
        reproducible, but scheduling varies across batches like a real warp
        scheduler varies across launches."""
        head = batch.keys[: min(batch.n, 32)]
        seed = int(np.bitwise_xor.reduce(head) % (2**63 - 1)) + batch.n
        return np.random.default_rng(seed)

    def _apply_in_timestamp_order(self, batch: RequestBatch) -> BatchResults:
        """Functionally execute the batch against the tree in arrival order.

        This is the vector engine's state-evolution path: mutations land in
        the tree (splits included, so structural statistics stay honest) and
        the returned results follow arrival order. The *scheduling-induced*
        result deviations of the baselines only materialize in the SIMT
        engine, which genuinely interleaves requests.
        """
        from .._types import OpKind

        results = BatchResults.empty(batch.n)
        scans: list[tuple[np.ndarray, np.ndarray]] = []
        tree = self.tree
        for i in range(batch.n):
            kind = batch.kinds[i]
            key = int(batch.keys[i])
            if kind == OpKind.QUERY:
                results.values[i] = tree.search(key)
            elif kind in (OpKind.UPDATE, OpKind.INSERT):
                results.values[i] = tree.upsert(key, int(batch.values[i]))
            elif kind == OpKind.DELETE:
                results.values[i] = tree.delete(key)
            elif kind == OpKind.RANGE:
                scans.append(tree.range_scan(key, int(batch.range_ends[i])))
        results.set_range_results(
            np.flatnonzero(batch.kinds == OpKind.RANGE), *flatten_scans(scans)
        )
        return results

    def reference_for_tree(self) -> SequentialReference:
        """Sequential reference seeded with the tree's current contents."""
        keys, values = self.tree.items()
        return SequentialReference(keys, values)
