"""Interpreter speed benchmark: how fast the simulator *runs*, not what it
computes.

Every mode here produces bit-identical counters, results and modeled times
(that is the :class:`~repro.config.ExecutionConfig` contract: its one
``vectorize_slots`` switch); the only thing measured is host wall-clock.
Three modes:

``sequential``
    the reference interpreter (``vectorize_slots=False``) — the seed
    repo's slot loop, kept verbatim as the semantic baseline;
``vectorized``
    the optimized :meth:`~repro.simt.Warp.step` fast path (batched counter
    flushes, parked barrier waits; Eirene's unprotected query-kernel
    launches lowered);
``vect+shards``
    the fast path with the batch split across a
    :class:`~repro.sharding.ParallelShardedSystem` fleet (worker
    processes). Note this runs a *sharded* fleet — per-shard trees are
    smaller and counters differ from the unsharded rows by design; its
    wall-time answers "what does the full level-1 + level-2 stack give
    me", not "same system, faster".

The timing protocol is steady-state and deliberately conservative: tree
build and workload generation are excluded (only ``process_batch`` is
timed), every (system, mix, mode) cell rebuilds its system from scratch so
repeats see identical state, and the best of ``repeats`` runs is kept —
single-core noise only ever inflates a run, so min is the honest estimator.
The three modes alternate within each repeat, so a slow spell of the host
cannot land on every run of one mode.
"""

from __future__ import annotations

import time

import numpy as np

from ..config import ExecutionConfig, set_execution_config
from ..factory import make_system
from ..sharding import ParallelShardedSystem
from ..workloads import YCSB_A, YCSB_B, YCSB_C, YCSB_E, YcsbWorkload, build_key_pool
from .experiment import SYSTEMS, ExperimentConfig
from .report import FigureResult

#: YCSB-E's range requests reach the launcher's one-lane paths (Eirene
#: launches each range scan as its own one-lane warp, and a launch of only
#: those runs lowered); A/B/C launch wide warps
MIXES = {"YCSB-A": YCSB_A, "YCSB-B": YCSB_B, "YCSB-C": YCSB_C, "YCSB-E": YCSB_E}

#: the reference interpreter, exactly as the escape hatch selects it
SEQUENTIAL = ExecutionConfig(vectorize_slots=False)
#: the optimized fast path (the process default)
VECTORIZED = ExecutionConfig()


def _timed(make_fn, batches) -> float:
    """Wall seconds of one ``process_batch`` loop on a freshly built system."""
    sys_ = make_fn()
    t0 = time.perf_counter()
    for batch in batches:
        sys_.process_batch(batch, engine="simt")
    elapsed = time.perf_counter() - t0
    close = getattr(sys_, "close", None)
    if close is not None:
        close()
    return elapsed


def interp_speed(
    cfg: ExperimentConfig | None = None,
    systems: tuple[str, ...] = SYSTEMS,
    mixes: tuple[str, ...] = tuple(MIXES),
    repeats: int = 2,
    n_shards: int = 4,
    shard_workers: int = 2,
) -> FigureResult:
    """Wall-time of the SIMT interpreter per system × mix × execution mode."""
    cfg = cfg or ExperimentConfig(
        engine="simt", tree_size=2**12, batch_size=2**10, n_batches=2
    )
    fig = FigureResult(
        figure="BENCH interp",
        title="SIMT interpreter wall-time: sequential vs vectorized vs +shards",
        columns=[
            "sequential s",
            "vectorized s",
            "vect+shards s",
            "ops/s (vect)",
            "speedup",
            "speedup(+shards)",
        ],
    )
    n_ops = cfg.batch_size * cfg.n_batches
    previous = set_execution_config(None)
    try:
        for mix_name in mixes:
            mix = MIXES[mix_name]
            rng = np.random.default_rng(cfg.seed)
            keys, values = build_key_pool(cfg.tree_size, rng)
            wl = YcsbWorkload(pool=keys, mix=mix, distribution=cfg.distribution)
            batches = [wl.generate(cfg.batch_size, rng) for _ in range(cfg.n_batches)]
            make_kwargs = dict(
                tree_config=cfg.tree_config,
                device=cfg.device,
                fill_factor=cfg.fill_factor,
            )

            def make_plain():
                return make_system(system, keys, values, seed=cfg.seed, **make_kwargs)

            def make_fleet():
                return ParallelShardedSystem(
                    system, keys, values, n_shards,
                    n_workers=shard_workers, seed=cfg.seed, **make_kwargs,
                )

            for system in systems:
                # modes alternate within each repeat, so a slow spell of the
                # host inflates one run of every mode rather than all runs
                # of one mode
                seq_s = vec_s = par_s = float("inf")
                for _ in range(repeats):
                    set_execution_config(SEQUENTIAL)
                    seq_s = min(seq_s, _timed(make_plain, batches))
                    set_execution_config(VECTORIZED)
                    vec_s = min(vec_s, _timed(make_plain, batches))
                    par_s = min(par_s, _timed(make_fleet, batches))
                fig.add_row(
                    f"{system} {mix_name}",
                    seq_s,
                    vec_s,
                    par_s,
                    n_ops / vec_s if vec_s else float("inf"),
                    seq_s / vec_s if vec_s else float("inf"),
                    seq_s / par_s if par_s else float("inf"),
                )
    finally:
        set_execution_config(previous)
    fig.notes.append(
        f"process_batch wall-time only (build + workload gen excluded); "
        f"best of {repeats}; tree=2^{cfg.tree_size.bit_length() - 1}, "
        f"batch=2^{cfg.batch_size.bit_length() - 1} x{cfg.n_batches}, engine=simt"
    )
    fig.notes.append(
        f"vect+shards = fast path + ParallelShardedSystem({n_shards} shards, "
        f"{shard_workers} workers); counters differ from unsharded rows by "
        "design (smaller per-shard trees) — wall-time column only"
    )
    fig.notes.append(
        "all modes produce bit-identical counters/results per system "
        "(ExecutionConfig contract); REPRO_SLOW_PATH=1 forces the sequential "
        "path process-wide"
    )
    return fig
