"""Self-checks of the benchmark on tiny versions of its workloads.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import driver, layers, run  # noqa: E402
from perfbench.spans import SpanRecorder  # noqa: E402
from perfbench.workloads import WORKLOADS, build  # noqa: E402

MODELED = (
    "modeled_throughput_mrps",
    "modeled_resp_p50_ns",
    "modeled_resp_p99_ns",
    "qos_variance_pct",
)


def tiny(name: str):
    return replace(
        WORKLOADS[name], tree_log2=10, batch_log2=7, warmup_batches=1, min_batches=8, tail_pct=50.0
    )


def modeled(result: driver.RunResult) -> dict[str, float]:
    out = {k: result.metrics[k][0] for k in MODELED}
    out["failed_frac"] = result.failed / result.attempted
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_repeats_modeled_metrics_exactly(name):
    first = driver.run_workload(tiny(name), seed=3, seconds=0.0, trace=False)
    second = driver.run_workload(tiny(name), seed=3, seconds=0.0, trace=False)
    assert modeled(first) == modeled(second)
    assert first.failed == 0
    other = driver.run_workload(tiny(name), seed=4, seconds=0.0, trace=False)
    assert modeled(other) != modeled(first)


def test_sharded_modeled_metrics_do_not_depend_on_worker_count():
    wl = tiny("ycsb-e-zipf-sharded")
    parallel = driver.run_workload(wl, seed=5, seconds=0.0, trace=False, n_workers=2)
    serial = driver.run_workload(wl, seed=5, seconds=0.0, trace=False, n_workers=0)
    assert modeled(parallel) == modeled(serial)


def test_wrappers_leave_the_simulation_unchanged():
    wl = tiny("ycsb-a-simt")

    def outcomes(rec):
        if rec is not None:
            layers.install(rec)
        try:
            setup = build(wl, 2)
            outs = [setup.system.process_batch(setup.next_batch(), engine=wl.engine)
                    for _ in range(3)]
        finally:
            if rec is not None:
                rec.restore()
        return [(o.seconds, o.response_time_s.tolist(), o.results.values.tolist())
                for o in outs]

    rec = SpanRecorder()
    assert outcomes(None) == outcomes(rec)
    assert any(s.name == "simt.launch" for s in rec.spans)


def test_tracing_restores_every_wrapped_callable():
    import repro.core.combining
    import repro.core.eirene
    import repro.sharding.parallel
    from repro.baselines.base import System
    from repro.btree.tree import BPlusTree
    from repro.simt.launcher import KernelLaunch

    def snapshot():
        return (
            System.__dict__["process_batch"],
            KernelLaunch.__dict__["run"],
            BPlusTree.__dict__["upsert"],
            repro.core.eirene.CombinePass.__dict__["run"],
            repro.core.eirene.combine_point_requests,
            repro.core.combining.radix_argsort,
            repro.sharding.parallel.merge_shard_outcomes,
        )

    before = snapshot()
    rec = SpanRecorder()
    layers.install(rec)
    assert all(a is not b for a, b in zip(before, snapshot()))
    rec.restore()
    assert all(a is b for a, b in zip(before, snapshot()))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_trace_breakdown_sums_to_batch_wall_time(name):
    result = driver.run_workload(tiny(name), seed=1, seconds=0.0, trace=True)
    assert result.failed == 0
    assert len(result.breakdown) == tiny(name).min_batches // 4
    for row in result.breakdown:
        parts = sum(v for k, v in row.items() if k not in ("batch", "wall"))
        assert parts == pytest.approx(row["wall"], rel=1e-9, abs=1e-12)
    m = {k: v for k, (v, _) in result.metrics.items()}
    if WORKLOADS[name].engine == "vector":
        assert m["simt.launches"] == 0
        assert m["btree.host_ops"] > 0
    else:
        assert m["simt.launches"] > 0
    if WORKLOADS[name].n_shards:
        assert m["sharding.worker_wait_ms"] > 0
        assert m["pass.query_kernel.self_ms"] > 0
    else:
        assert m["sharding.route_ms"] == 0


def test_correctness_gate_counts_every_wrong_result(monkeypatch):
    from repro.baselines.base import System

    original = System.process_batch

    def wrong_first_result(self, batch, engine="vector"):
        outcome = original(self, batch, engine=engine)
        outcome.results.values[0] += 1
        return outcome

    monkeypatch.setattr(System, "process_batch", wrong_first_result)
    wl = tiny("ycsb-a-simt")
    result = driver.run_workload(wl, seed=1, seconds=0.0, trace=False)
    assert result.failed >= wl.warmup_batches + wl.min_batches


def _bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_benchmark_metric_is_printed_with_its_unit(trace, monkeypatch, capsys):
    spec = _bench_spec()
    listed = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    assert units == (layers.UNITS if trace else driver.UNITS)

    monkeypatch.setitem(WORKLOADS, "ycsb-a-simt", tiny("ycsb-a-simt"))
    code = run.main(["--workload", "ycsb-a-simt", "--seed", "1",
                     "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.split()[:1] == [name] and line.endswith(" " + unit)
                   for line in lines[:-1])


def test_workloads_in_benchmark_json_exist():
    assert [w["name"] for w in _bench_spec()["workloads"]] == list(WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ycsb-a-simt",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
