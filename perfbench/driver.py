"""One benchmark run of one workload.

A run sets the system up (several times, for a steady ``setup_s``), then
drives it as a closed loop with one client: the next batch is generated and
submitted only after ``process_batch`` returned the previous one. Only the
``process_batch`` calls are timed; batch generation and the correctness
gate (every batch against :class:`~repro.lincheck.SequentialReference`,
then final state and ``validate()``) run between them.

Host times are reported at a reference host speed, measured by
:func:`host_probe` around every timed call (see its docstring).

The loop runs until the timed calls add up to ``seconds`` and at least
``Workload.min_batches`` batches ran. The modeled metrics cover exactly the
first ``min_batches`` timed batches, so for a given seed they repeat
exactly, however fast the host is.

With ``trace=True`` the run is split in two halves on fresh systems: an
untraced one and one with the layer wrappers of :mod:`perfbench.layers`
installed. It reports the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro import lincheck
from repro.errors import ReproError
from repro.metrics import response_time_stats

from . import layers
from .spans import SpanRecorder, kept_extras
from .workloads import Setup, Workload, build

#: every end-to-end metric with its unit, in report order
UNITS: dict[str, str] = {
    "sim_throughput_rps": "req/s",
    "batch_wall_p50_ms": "ms",
    "batch_wall_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "modeled_throughput_mrps": "Mreq/s",
    "modeled_resp_p50_ns": "ns",
    "modeled_resp_p99_ns": "ns",
    "qos_variance_pct": "%",
}

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: QoS samples per run: the modeled prefix is cut into this many windows of
#: consecutive batches. The paper's figure takes the extremes over several
#: runs; one extreme-based figure over all batches moves a lot between seeds
QOS_WINDOWS = 20
#: keys of :func:`host_probe`
_PROBE_KEYS = range(25_000)
#: :func:`host_probe` duration that defines the reference host speed: about
#: what the probe takes between batches on the 2-vCPU x86-64 machine the
#: bounds were set on
REF_PROBE_S = 3.5e-3
#: a run that has not finished its minimum batch count by then gives up
TIME_LIMIT_S = 150.0


class BenchmarkError(RuntimeError):
    """The run could not produce a result."""


class Checker:
    """Correctness gate: the sequential reference replays every batch."""

    def __init__(self, keys: np.ndarray, values: np.ndarray) -> None:
        self.reference = lincheck.SequentialReference(keys, values)
        self.attempted = 0
        self.failed = 0

    def batch(self, batch, outcome) -> None:
        expected = self.reference.execute(batch)
        report = lincheck.check_linearizable(batch, outcome.results, expected)
        self.attempted += batch.n
        self.failed += report.n_mismatches

    def final(self, setup: Setup) -> None:
        """Final contents must equal the reference's; every tree must be valid."""
        if lincheck.compare_state(setup.items(), self.reference.items()) is not None:
            self.failed += 1
        try:
            setup.validate()
        except ReproError:
            self.failed += 1


@dataclass
class Modeled:
    """Simulated-time totals over the fixed prefix of timed batches."""

    requests: int = 0
    seconds: float = 0.0
    response_s: list[np.ndarray] = field(default_factory=list)

    def add(self, outcome) -> None:
        self.requests += outcome.n_requests
        self.seconds += outcome.seconds
        self.response_s.append(outcome.response_time_s)

    def metrics(self) -> dict[str, float]:
        resp = np.concatenate(self.response_s)
        w = max(len(self.response_s) // QOS_WINDOWS, 1)
        qos = [
            response_time_stats(np.concatenate(self.response_s[i:i + w])).variance_fraction
            for i in range(0, len(self.response_s) - w + 1, w)
        ]
        return {
            "modeled_throughput_mrps": self.requests / self.seconds / 1e6,
            "modeled_resp_p50_ns": float(np.quantile(resp, 0.5)) * 1e9,
            "modeled_resp_p99_ns": float(np.quantile(resp, 0.99)) * 1e9,
            "qos_variance_pct": statistics.median(qos) * 100,
        }


def host_probe() -> float:
    """Seconds a fixed pure-Python dict workload takes right now.

    This machine's speed changes by up to ~1.6x from one second to the next
    with the load of other tenants, and the simulator slows with it. A probe
    run right before and right after each timed call measures the speed the
    call ran at; host times are reported scaled to ``REF_PROBE_S``.
    """
    t0 = time.perf_counter()
    table = {}
    for k in _PROBE_KEYS:
        table[k] = k
    total = 0
    for k in _PROBE_KEYS:
        total += table[k]
    return time.perf_counter() - t0


def _timed(fn, *args, **kwargs):
    """``(fn(...), wall seconds, wall seconds at the reference host speed)``."""
    before = host_probe()
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    wall = time.perf_counter() - t0
    after = host_probe()
    return result, wall, wall * 2 * REF_PROBE_S / (before + after)


@dataclass
class Phase:
    """What one set-up plus timed loop measured."""

    #: set-up times at the reference host speed
    setup_s: list[float]
    #: ``process_batch`` wall times as measured, and at the reference speed
    walls: list[float]
    ref_walls: list[float]
    requests: int
    modeled: Modeled
    checker: Checker
    n_workers: int
    traced: list[layers.TracedBatch]

    @property
    def throughput(self) -> float:
        """Requests ÷ Σ ``process_batch`` time at the reference host speed."""
        return self.requests / sum(self.ref_walls)


def _set_up(wl: Workload, seed: int, n_workers: int | None):
    setup = build(wl, seed, n_workers)
    warm = [setup.next_batch() for _ in range(wl.warmup_batches)]
    return setup, warm, [setup.system.process_batch(b, engine=wl.engine) for b in warm]


def _phase(wl: Workload, seed: int, seconds: float, min_batches: int, setup_repeats: int,
           deadline: float, n_workers: int | None, rec: SpanRecorder | None = None) -> Phase:
    setup_s: list[float] = []
    setup = None
    for _ in range(setup_repeats):
        if setup is not None:
            setup.close()
        (setup, warm, warm_out), _, ref_s = _timed(_set_up, wl, seed, n_workers)
        setup_s.append(ref_s)
    try:
        checker = Checker(setup.keys, setup.values)
        for batch, outcome in zip(warm, warm_out):
            checker.batch(batch, outcome)
        if rec is not None:
            rec.reset()
        system = setup.system
        walls: list[float] = []
        ref_walls: list[float] = []
        requests = 0
        modeled = Modeled()
        traced: list[layers.TracedBatch] = []
        while len(walls) < min_batches or sum(walls) < seconds:
            if time.perf_counter() > deadline:
                raise BenchmarkError(
                    f"{wl.name}: only {len(walls)} of {min_batches} batches "
                    f"within {TIME_LIMIT_S:.0f} s"
                )
            batch = setup.next_batch()
            if rec is None:
                outcome, wall, ref_wall = _timed(system.process_batch, batch, engine=wl.engine)
            else:
                rec.batch = len(walls)
                outcome, wall, ref_wall = _timed(
                    rec.call, "process_batch", system.process_batch, batch, engine=wl.engine
                )
                traced.append(layers.TracedBatch.of(batch, outcome))
                if not wl.n_shards:
                    rec.leaf_extras.append(kept_extras(outcome.extras))
            walls.append(wall)
            ref_walls.append(ref_wall)
            requests += batch.n
            if len(walls) <= min_batches:
                modeled.add(outcome)
            checker.batch(batch, outcome)
        checker.final(setup)
        return Phase(
            setup_s, walls, ref_walls, requests, modeled, checker,
            getattr(system, "n_workers", 0), traced,
        )
    finally:
        setup.close()


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (shard worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@dataclass
class RunResult:
    attempted: int
    failed: int
    #: metric name -> (value, unit)
    metrics: dict[str, tuple[float, str]]
    #: human-readable context printed before the result line
    notes: list[str]
    #: traced run only: the recorded spans and the per-batch breakdown
    recorder: SpanRecorder | None = None
    breakdown: list[dict[str, float]] = field(default_factory=list)


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 n_workers: int | None = None) -> RunResult:
    """Run ``wl`` once. Untraced: the end-to-end metrics. Traced: the
    per-layer metrics. ``n_workers`` overrides a fleet's worker count."""
    deadline = time.perf_counter() + TIME_LIMIT_S
    if not trace:
        ph = _phase(wl, seed, seconds, wl.min_batches, SETUP_REPEATS, deadline, n_workers)
        values = {
            "sim_throughput_rps": ph.throughput,
            "batch_wall_p50_ms": statistics.median(ph.ref_walls) * 1e3,
            "batch_wall_tail_ms": float(np.percentile(ph.ref_walls, wl.tail_pct)) * 1e3,
            "setup_s": statistics.median(ph.setup_s),
            "peak_rss_mb": _peak_rss_mb(),
            **ph.modeled.metrics(),
        }
        failed = ph.checker.failed
        notes = [
            f"{wl.name} seed={seed}: {len(ph.walls)} timed batches of {wl.batch_size}, "
            f"tail = p{wl.tail_pct:g}, setup_s = median of {len(ph.setup_s)}, "
            f"modeled over the first {wl.min_batches} batches",
            f"host times at the reference speed; as measured: "
            f"{ph.requests / sum(ph.walls)!r} req/s, "
            f"p50 {statistics.median(ph.walls) * 1e3!r} ms, host speed "
            f"{statistics.median(r / w for r, w in zip(ph.ref_walls, ph.walls))!r} x reference",
            f"failed_frac {failed / ph.checker.attempted!r} fraction",
        ]
        return RunResult(
            ph.checker.attempted, failed,
            {k: (values[k], UNITS[k]) for k in UNITS}, notes,
        )

    # the traced run reports no modeled metrics: a quarter of the prefix does
    min_batches = max(wl.min_batches // 4, 1)
    plain = _phase(wl, seed, seconds / 2, min_batches, 1, deadline, n_workers)
    rec = SpanRecorder()
    layers.install(rec)
    try:
        traced = _phase(wl, seed, seconds / 2, min_batches, 1, deadline, n_workers, rec=rec)
    finally:
        rec.restore()
    rows = layers.batch_breakdown(rec.spans, bool(wl.n_shards))
    values = layers.layer_metrics(
        rec.spans, rows, traced.traced, rec.leaf_extras, traced.n_workers
    )
    values["tracing.throughput_ratio"] = traced.throughput / plain.throughput
    attempted = plain.checker.attempted + traced.checker.attempted
    failed = plain.checker.failed + traced.checker.failed
    notes = [
        f"{wl.name} seed={seed}: traced {len(traced.walls)} batches, "
        f"untraced {len(plain.walls)} batches",
        f"failed_frac {failed / attempted!r} fraction",
    ]
    return RunResult(
        attempted, failed,
        {k: (values[k], layers.UNITS[k]) for k in layers.UNITS}, notes,
        recorder=rec, breakdown=rows,
    )
