"""Shard-scaling benchmark: modeled throughput vs shard count.

Runs the YCSB uniform workload (the paper's §8.1 default mix) against a
:class:`~repro.sharding.ShardedSystem` at increasing shard counts and
reports modeled throughput, speedup over the single-shard baseline, and the
per-shard load/QoS breakdown that
:func:`~repro.sharding.merge.merge_shard_outcomes` attaches to every merged
outcome. The merged batch time is the straggler shard's time, so the
speedup column directly measures how evenly the fence-key plan balances the
workload (uniform keys ⇒ near-linear scaling; skew would show up as a
straggler).

Exposed on the CLI as ``python -m repro.harness shards``.
"""

from __future__ import annotations

import numpy as np

from ..baselines.base import merge_outcomes
from ..sharding import ShardedSystem
from ..workloads import YcsbWorkload, build_key_pool
from .experiment import ExperimentConfig
from .figures import default_config
from .report import FigureResult


def shard_scaling(
    cfg: ExperimentConfig | None = None,
    shard_counts: tuple[int, ...] = (1, 2, 4, 8),
    system: str = "eirene",
) -> FigureResult:
    """Throughput/speedup table over ``shard_counts``, plus per-shard QoS."""
    cfg = cfg or default_config()
    fig = FigureResult(
        figure="Shard scaling",
        title=(
            f"modeled throughput vs shard count ({system}, YCSB "
            f"{cfg.distribution}, {cfg.n_batches}x2^{int(np.log2(cfg.batch_size))} reqs)"
        ),
        columns=["shards", "Mreq/s", "speedup", "straggler", "worst shard var %"],
    )
    base_tput: float | None = None
    for n_shards in shard_counts:
        rng = np.random.default_rng(cfg.seed)
        keys, values = build_key_pool(cfg.tree_size, rng)
        fleet = ShardedSystem.build(
            system,
            keys,
            values,
            n_shards=n_shards,
            tree_config=cfg.tree_config,
            device=cfg.device,
            fill_factor=cfg.fill_factor,
        )
        wl = YcsbWorkload(pool=keys, mix=cfg.mix, distribution=cfg.distribution)
        outcomes = [
            fleet.process_batch(wl.generate(cfg.batch_size, rng), engine=cfg.engine)
            for _ in range(cfg.n_batches)
        ]
        fleet.validate()
        merged = merge_outcomes(outcomes)
        tput = merged.n_requests / merged.seconds if merged.seconds > 0 else 0.0
        if base_tput is None:
            base_tput = tput
        last = outcomes[-1]
        worst_var = max(q.stats.variance_fraction for q in last.extras["shards"])
        fig.add_row(
            f"{n_shards} shard{'s' if n_shards > 1 else ''}",
            n_shards,
            round(tput / 1e6, 3),
            round(tput / base_tput, 3),
            last.extras["straggler_shard"],
            round(worst_var * 100, 2),
        )
        fig.notes.extend(
            f"  [{n_shards}sh] {q.describe()}" for q in last.extras["shards"]
        )
        if last.trace is not None:
            fig.notes.append(
                f"  [{n_shards}sh] merged trace: "
                + ", ".join(
                    f"{r.name}={r.modeled_s:.2e}s" for r in last.trace.records
                )
            )
    fig.paper_notes = [
        "not a paper figure: ROADMAP serving-layer extension — shards model "
        "independent devices, so merged time is the straggler's and uniform "
        "keys should scale near-linearly",
    ]
    return fig
