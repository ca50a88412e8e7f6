"""Workload definitions and their seeded set-up.

Every workload runs the full Eirene system (``fanout=32``, ``num_sms=8``,
``fill_factor=0.7``) as a closed loop with one client: batch *i+1* is
submitted only after ``process_batch`` returned batch *i*. The seed is the
only source of randomness; the system receives nothing but the generated
batches. Why each workload exists, and which layer it stresses or bypasses,
is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import DeviceConfig, TreeConfig
from repro.factory import make_system
from repro.sharding import ParallelShardedSystem
from repro.workloads import YCSB_A, YCSB_B, YCSB_E, YcsbMix, YcsbWorkload, build_key_pool

SYSTEM = "eirene"
TREE_CONFIG = TreeConfig(fanout=32)
DEVICE = DeviceConfig(num_sms=8)
FILL_FACTOR = 0.7


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: request mix, sizes, engine and fleet shape."""

    name: str
    mix: YcsbMix
    distribution: str
    engine: str
    tree_log2: int
    batch_log2: int
    #: batches processed before timing (lazy set-up, first-call imports)
    warmup_batches: int
    #: timed batches every run processes at least; the modeled metrics are
    #: computed over exactly this prefix, so they repeat for a given seed
    min_batches: int
    #: ``batch_wall_tail_ms`` percentile; ``min_batches`` leaves >= 10
    #: batches beyond it
    tail_pct: float
    #: 0 = one in-process system; otherwise a ParallelShardedSystem fleet
    n_shards: int = 0
    n_workers: int = 0

    @property
    def batch_size(self) -> int:
        return 1 << self.batch_log2


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ycsb-a-simt",
            mix=YCSB_A,
            distribution="uniform",
            engine="simt",
            tree_log2=14,
            batch_log2=10,
            warmup_batches=1,
            min_batches=40,
            tail_pct=75.0,
        ),
        Workload(
            name="ycsb-b-zipf-vector",
            mix=YCSB_B,
            distribution="zipfian",
            engine="vector",
            tree_log2=16,
            batch_log2=14,
            warmup_batches=2,
            min_batches=200,
            tail_pct=95.0,
        ),
        Workload(
            name="ycsb-e-zipf-sharded",
            mix=YCSB_E,
            distribution="zipfian",
            engine="simt",
            tree_log2=14,
            batch_log2=10,
            warmup_batches=1,
            min_batches=40,
            tail_pct=75.0,
            n_shards=4,
            n_workers=2,
        ),
    )
}


@dataclass
class Setup:
    """A built system plus the seeded generator of its batch stream."""

    workload: Workload
    keys: np.ndarray
    values: np.ndarray
    system: object
    generator: YcsbWorkload
    batch_rng: np.random.Generator

    def next_batch(self):
        return self.generator.generate(self.workload.batch_size, self.batch_rng)

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """Final (key, value) contents, for the single system or the fleet."""
        if isinstance(self.system, ParallelShardedSystem):
            return self.system.items()
        return self.system.tree.items()

    def validate(self) -> None:
        if isinstance(self.system, ParallelShardedSystem):
            self.system.validate()
        else:
            self.system.tree.validate()

    def close(self) -> None:
        if isinstance(self.system, ParallelShardedSystem):
            self.system.close()


def build(workload: Workload, seed: int, n_workers: int | None = None) -> Setup:
    """Key pool, tree build and system construction for ``seed``.

    For a sharded workload this forks the shard workers, which build their
    shard trees themselves. ``n_workers`` overrides the workload's worker
    count (``0`` = the in-process serial fallback).
    """
    rng = np.random.default_rng(seed)
    keys, values = build_key_pool(1 << workload.tree_log2, rng)
    kwargs = dict(tree_config=TREE_CONFIG, device=DEVICE, fill_factor=FILL_FACTOR)
    if workload.n_shards:
        workers = workload.n_workers if n_workers is None else n_workers
        system = ParallelShardedSystem(
            SYSTEM, keys, values, workload.n_shards, n_workers=workers, seed=seed, **kwargs
        )
    else:
        system = make_system(SYSTEM, keys, values, seed=seed, **kwargs)
    generator = YcsbWorkload(pool=keys, mix=workload.mix, distribution=workload.distribution)
    # a stream of its own, so the batch sequence does not depend on how many
    # draws the pool took
    batch_rng = np.random.default_rng([seed, 1])
    return Setup(workload, keys, values, system, generator, batch_rng)
