"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload ycsb-a-simt --seed 1 --seconds 10 --trace 0

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics and
writes the spans and per-batch breakdown to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    for path in (ROOT, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        from perfbench.driver import run_workload
        from perfbench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the system under test: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for note in result.notes:
        print(note)
    for name, (value, unit) in result.metrics.items():
        print(f"{name:<34} {value!r} {unit}")
    if args.trace:
        out = os.path.join(ROOT, ".perfbench_out", f"{args.workload}-seed{args.seed}")
        result.recorder.dump(out + ".spans.json")
        with open(out + ".breakdown.json", "w") as f:
            json.dump(result.breakdown, f)
        print(f"spans and per-batch breakdown written to {os.path.relpath(out, ROOT)}.*")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
