"""A sharded serving layer over N single-device systems.

:class:`ShardedSystem` owns one fully independent system per shard — each
with its own :class:`~repro.device.DeviceContext` (arena, cost model, RNG
seed), tree, and synchronization machinery — plus the
:class:`~repro.sharding.router.ShardRouter` that splits every incoming
batch at the plan's fence keys. Processing a batch routes it, pushes each
non-empty sub-batch through that shard's ordinary pass pipeline, one shard
after another, and merges the per-shard outcomes with
:func:`~repro.sharding.merge.merge_shard_outcomes`.

The merged ``seconds`` is the straggler shard's time: shards model
*separate GPUs running concurrently*, which is what the scaling benchmark
measures (modeled throughput vs shard count). To run the shards in
parallel on the host, use :class:`~repro.sharding.ParallelShardedSystem`.
"""

from __future__ import annotations

import numpy as np

from ..baselines.base import BatchOutcome, System
from ..errors import ConfigError
from ..lincheck import SequentialReference
from ..workloads.requests import RequestBatch
from .merge import merge_shard_outcomes
from .router import ShardPlan, ShardRouter


class ShardedSystem:
    """N key-range shards of one system kind, batched behind one router."""

    def __init__(self, shards: list[System], plan: ShardPlan) -> None:
        if len(shards) != plan.n_shards:
            raise ConfigError(
                f"{len(shards)} shard systems for a {plan.n_shards}-shard plan"
            )
        self.shards = list(shards)
        self.plan = plan
        self.router = ShardRouter(plan)
        self.name = f"{shards[0].name}x{plan.n_shards}"

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        system: str,
        keys: np.ndarray,
        values: np.ndarray,
        n_shards: int,
        seed: int = 0,
        **make_kwargs,
    ) -> "ShardedSystem":
        """Partition a load set at quantile fences and build one system per
        shard (``make_kwargs`` go to :func:`repro.factory.make_system`;
        shard ``s`` gets device seed ``seed + s``)."""
        from ..factory import make_system

        plan = ShardPlan.from_pool(keys, n_shards)
        shards = [
            make_system(system, ks, vs, seed=seed + s, **make_kwargs)
            for s, (ks, vs) in enumerate(plan.partition_pool(keys, values))
        ]
        return cls(shards, plan)

    @property
    def n_shards(self) -> int:
        return self.plan.n_shards

    # ------------------------------------------------------------------ #
    # batch processing
    # ------------------------------------------------------------------ #
    def process_batch(self, batch: RequestBatch, engine: str = "vector") -> BatchOutcome:
        """Route, run every non-empty shard's pipeline, merge."""
        routed = self.router.route(batch)
        outcomes = [
            self.shards[r.shard].process_batch(r.batch, engine=engine) if r.n else None
            for r in routed
        ]
        return merge_shard_outcomes(batch, routed, outcomes, self.name)

    # ------------------------------------------------------------------ #
    # whole-fleet inspection (tests / lincheck)
    # ------------------------------------------------------------------ #
    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """All (key, value) pairs across shards, in global key order."""
        ks, vs = zip(*(s.tree.items() for s in self.shards))
        return np.concatenate(ks), np.concatenate(vs)

    def validate(self) -> None:
        """Every shard tree is valid and respects its fence bounds."""
        for sys_ in self.shards:
            sys_.tree.validate()
        self.plan.check_fences([sys_.tree.items()[0] for sys_ in self.shards])

    def reference(self) -> SequentialReference:
        """Sequential reference seeded with the fleet's current contents."""
        keys, values = self.items()
        return SequentialReference(keys, values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardedSystem({self.name}, shards={self.n_shards})"
