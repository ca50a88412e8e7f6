"""Command-line figure runner.

Usage::

    python -m repro.harness list
    python -m repro.harness fig07
    python -m repro.harness fig07 --tree-size 15 --batch-size 13 --sms 8
    python -m repro.harness all            # every figure (slow)
    python -m repro.harness calibrate      # SIMT vs vector cross-check
    python -m repro.harness sanitize       # race-detector gate (small cfg)
    python -m repro.harness perf           # interpreter speedup table
"""

from __future__ import annotations

import argparse
import sys

from ..simt.calibration import calibrate
from . import ablations, figures, perf, scaling
from .experiment import ExperimentConfig
from .sanitize import sanitize_report

RUNNERS = {
    "fig01": figures.fig01_profiling,
    "fig02": figures.fig02_normalized_time,
    "fig07": figures.fig07_throughput,
    "fig08": figures.fig08_response_time,
    "fig09": figures.fig09_instruction_profile,
    "fig10": figures.fig10_traversal_steps,
    "fig11": figures.fig11_design_choices,
    "fig12": figures.fig12_optimization_contributions,
    "fig13": figures.fig13_range_query,
    "linearizability": figures.linearizability_demo,
    "ablation-threshold": lambda cfg: ablations.ablate_retry_threshold(),
    "ablation-depth": lambda cfg: ablations.ablate_iteration_depth(),
    "ablation-rf": lambda cfg: ablations.ablate_rf_decision(),
    "ablation-partition": lambda cfg: ablations.ablate_kernel_partition(),
    "ablation-skew": lambda cfg: ablations.ablate_skew(),
    "shards": scaling.shard_scaling,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Reproduce figures of the Eirene paper (PPoPP'23).",
    )
    parser.add_argument(
        "target", choices=[*RUNNERS, "all", "list", "calibrate", "sanitize", "perf"],
        help="figure id, 'all', 'list', 'calibrate', 'sanitize', or 'perf'",
    )
    parser.add_argument("--tree-size", type=int, default=14, metavar="LOG2")
    parser.add_argument("--batch-size", type=int, default=13, metavar="LOG2")
    parser.add_argument("--batches", type=int, default=2)
    parser.add_argument("--fanout", type=int, default=32)
    parser.add_argument("--sms", type=int, default=8)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--shard-counts", default="1,2,4,8", metavar="N,N,...",
        help="shard counts for the 'shards' target (default: 1,2,4,8)",
    )
    parser.add_argument(
        "--shard-system", default="eirene",
        help="system to shard for the 'shards' target (default: eirene)",
    )
    parser.add_argument(
        "--perf-repeats", type=int, default=2,
        help="timing repeats per cell for the 'perf' target (best-of)",
    )
    parser.add_argument(
        "--shard-workers", type=int, default=2,
        help="worker processes for the 'perf' target's sharded mode",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.target == "list":
        for name in RUNNERS:
            print(name)
        return 0
    if args.target == "calibrate":
        print(calibrate().render())
        return 0
    if args.target == "perf":
        # interpreter wall-clock speedups (sequential vs vectorized vs
        # vectorized + parallel shards); every mode computes identical
        # counters, so this never touches goldens
        cfg = ExperimentConfig(
            engine="simt",
            tree_size=2**args.tree_size,
            batch_size=2**args.batch_size,
            n_batches=args.batches,
            fanout=args.fanout,
            num_sms=args.sms,
            seed=args.seed,
        )
        fig = perf.interp_speed(
            cfg, repeats=args.perf_repeats, shard_workers=args.shard_workers
        )
        print(fig.render())
        return 0
    if args.target == "sanitize":
        # race-detector gate: uses its own small SIMT config (every op is
        # interpreted *and* observed; the figure-scale flags don't apply);
        # raises and exits non-zero when an expectation fails
        print(sanitize_report().render())
        return 0
    cfg = ExperimentConfig(
        tree_size=2**args.tree_size,
        batch_size=2**args.batch_size,
        n_batches=args.batches,
        fanout=args.fanout,
        num_sms=args.sms,
        seed=args.seed,
    )
    targets = list(RUNNERS) if args.target == "all" else [args.target]
    for name in targets:
        if name == "shards":
            counts = tuple(int(c) for c in args.shard_counts.split(","))
            fig = scaling.shard_scaling(
                cfg, shard_counts=counts, system=args.shard_system
            )
        else:
            fig = RUNNERS[name](cfg)
        print(fig.render())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
