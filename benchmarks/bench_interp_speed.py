"""Interpreter speed — host wall-time of the SIMT slot loop, not a figure.

Times ``process_batch`` for YCSB-A/B/C/E across all four systems under three
execution modes (reference sequential interpreter, vectorized fast path,
fast path + :class:`~repro.sharding.ParallelShardedSystem` workers) and
writes ``benchmarks/results/BENCH_interp.json``. Every mode computes
bit-identical counters — this file measures only how fast the simulator
itself runs, so its numbers are machine-dependent and the golden-drift
gate never looks at them. Eirene's query-kernel launches run lowered (one
numpy trace per launch, no generator): its iteration warps on every row
with point queries, its one-lane range warps on YCSB-E. So do its
split-free update kernels: those that overwrite present keys (YCSB-A and
YCSB-B) and those whose fresh inserts fill no leaf past its fanout
(YCSB-E). An Eirene update kernel that splits a leaf and the baselines'
kernels are interpreted.

Assertions are the CI ``perf-smoke`` floor: the vectorized path must not be
slower than the sequential one by more than noise (>= 0.8x on every row),
must reach >= 5x on the headline Eirene YCSB-A row (lowered it measured
about 13.7x; with its update kernel interpreted it ran 1.4-1.8x), >= 4x on
Eirene YCSB-C (all queries: the whole batch is one lowered launch;
interpreted it ran about 1.2x) and >= 8x on Eirene YCSB-E (its range and
insert launches lowered it measured about 14x; with the inserts
interpreted it ran about 5.6x) — a silent fallback from the lowered path
to the interpreter would drop those three rows to about 1.8x, 1.2x and
5.6x.
"""

from repro.harness import ExperimentConfig, interp_speed

SYSTEM_ROWS = ("nocc", "stm", "lock", "eirene")


def test_interp_speed(benchmark, results_dir):
    cfg = ExperimentConfig(
        engine="simt", tree_size=2**12, batch_size=2**10, n_batches=2
    )
    fig = benchmark.pedantic(
        lambda: interp_speed(cfg, repeats=5), rounds=1, iterations=1
    )
    fig.figure = "BENCH_interp"
    text = fig.render()
    print("\n" + text)
    # written under the documented name (emit() would lowercase it)
    (results_dir / "BENCH_interp.txt").write_text(text + "\n")
    (results_dir / "BENCH_interp.json").write_text(fig.to_json(indent=2) + "\n")

    for system in SYSTEM_ROWS:
        for mix in ("YCSB-A", "YCSB-B", "YCSB-C", "YCSB-E"):
            speedup = fig.value(f"{system} {mix}", "speedup")
            # fast rows at this scale finish in ~0.1 s; allow scheduler noise
            # but never a real regression
            assert speedup >= 0.8, (
                f"{system} {mix}: vectorized path slower than sequential "
                f"({speedup:.2f}x)"
            )
    headline = fig.value("eirene YCSB-A", "speedup")
    assert headline >= 5.0, (
        f"eirene YCSB-A vectorized speedup {headline:.2f}x below the 5x floor: "
        "is the split-free update kernel still lowered?"
    )
    queries = fig.value("eirene YCSB-C", "speedup")
    assert queries >= 4.0, (
        f"eirene YCSB-C vectorized speedup {queries:.2f}x below the 4x floor: "
        "is the point-query kernel still lowered?"
    )
    lowered = fig.value("eirene YCSB-E", "speedup")
    assert lowered >= 8.0, (
        f"eirene YCSB-E vectorized speedup {lowered:.2f}x below the 8x floor: "
        "are the range-scan and insert launches still lowered?"
    )
