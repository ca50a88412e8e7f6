"""Equivalence tests for the vectorized warp interpreter and its satellites.

The :class:`~repro.config.ExecutionConfig` contract says its one switch is
observationally neutral: counters, lane results, arena contents and QoS
arrays are bit-for-bit identical on the reference path
(``vectorize_slots=False``) and the fast path. These tests enforce that on

* seeded random warp programs (loads/stores/atomics/ALU/branches/marks,
  divergent lengths, early retirees),
* iteration-warp style ``WaitGE`` barriers with uneven arrival (the only
  construct the fast path *parks* on),
* grids mixing one-lane warps with 8-lane warps under a seeded
  warp-order rng,
* whole-system batches for every system kind (host mutation mid-kernel
  included), plus Eirene range scans (one one-lane warp per range request),
* lowered store-free launches (synthetic grids of one-lane, multi-lane and
  barrier warps, and Eirene's query kernels, replayed from numpy op
  streams) against the reference path, rng stream, bounds checks and the
  RF-hazard fallback included,

plus the probe fallback rule (an attached probe must see every op, i.e.
the reference path runs), the ``REPRO_SLOW_PATH=1`` escape hatch, the
:class:`~repro.sharding.ParallelShardedSystem` worker-count invariance, the
arena's lazy label accounting, and the address bounds check every
interpreter path applies to loads, stores and atomics.

Random programs respect the ``WaitGE`` contract: the condition sequence is
only ever advanced by same-warp lanes, and each waiting program keeps its
own ``while`` re-check around the yield. The one exception is the grid's
one-lane waiter, advanced by another warp: a lone lane's barrier group is
re-checked at every slot start, so every path must resume it in exactly
the reference rounds.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro._types import NULL_VALUE
from repro.config import DeviceConfig, ExecutionConfig, execution_config, set_execution_config
from repro.errors import SimulationError
from repro.memory import MemoryArena
from repro.sharding import ParallelShardedSystem, ShardedSystem
from repro.simt import (
    Alu,
    AtomicAdd,
    AtomicCAS,
    AtomicExch,
    Branch,
    KernelLaunch,
    Load,
    Mark,
    Noop,
    Store,
    WaitGE,
)
from repro.simt.warp import run_subroutine

SEQUENTIAL = ExecutionConfig(vectorize_slots=False)


@pytest.fixture(autouse=True)
def _restore_execution():
    previous = execution_config()
    yield
    set_execution_config(previous)


def deep_eq(a, b) -> bool:
    """Field-wise equality that tolerates numpy members; skips host
    wall-clock stamps (``wall_s``), the only legitimately run-varying field."""
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(
            f.name == "wall_s" or deep_eq(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
        )
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b, equal_nan=(a.dtype.kind == "f"))
    if isinstance(a, dict):
        return set(a) == set(b) and all(deep_eq(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(deep_eq(x, y) for x, y in zip(a, b))
    return bool(a == b)


# --------------------------------------------------------------------- #
# random warp programs
# --------------------------------------------------------------------- #
DATA_WORDS = 192
HOT_WORDS = 4  # tiny shared region so atomics actually conflict


def random_program(rng: np.random.Generator, lane: int, n_lanes: int):
    """One seeded lane program over a mixed op stream.

    Lane length varies (divergence + early retirement); values derived
    from loads feed later stores so every load result is observable.
    """
    n_ops = int(rng.integers(4, 40))
    kinds = rng.integers(0, 8, size=n_ops)
    addrs = rng.integers(0, DATA_WORDS, size=n_ops)

    def prog():
        acc = lane
        for k, a in zip(kinds.tolist(), addrs.tolist()):
            if k == 0 or k == 1:
                acc ^= (yield Load(a))
            elif k == 2:
                yield Store(a, (acc + lane) % 1000)
            elif k == 3:
                yield Alu(1 + (a % 3))
            elif k == 4:
                yield Branch()
            elif k == 5:
                acc += yield AtomicAdd(DATA_WORDS + (a % HOT_WORDS), 1)
            elif k == 6:
                acc ^= (yield AtomicCAS(DATA_WORDS + (a % HOT_WORDS), acc % 7, lane))
            else:
                yield Noop()
        yield Mark(lane)
        return acc

    return prog()


def run_warp(programs_fn, execution: ExecutionConfig, n_lanes: int = 8, probe=None):
    """Run one warp of fresh programs; return (counters, results, memory)."""
    set_execution_config(execution)
    arena = MemoryArena(DATA_WORDS + HOT_WORDS + 16)
    arena.data[:DATA_WORDS] = np.arange(DATA_WORDS)
    launch = KernelLaunch(DeviceConfig(num_sms=2), arena, n_lanes, probe=probe)
    launch.add_warp(programs_fn(n_lanes))
    counters = launch.run()
    return counters, launch.lane_results(), arena.data.copy()


def assert_equivalent(programs_fn, fast: ExecutionConfig, n_lanes: int = 8):
    ref = run_warp(programs_fn, SEQUENTIAL, n_lanes)
    opt = run_warp(programs_fn, fast, n_lanes)
    assert deep_eq(ref[0], opt[0]), "KernelCounters diverged"
    assert ref[1] == opt[1], "lane results diverged"
    assert np.array_equal(ref[2], opt[2]), "arena contents diverged"


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_programs_equivalent(seed):
    def make(n_lanes):
        rng = np.random.default_rng((777, seed))
        return [random_program(rng, i, n_lanes) for i in range(n_lanes)]

    assert_equivalent(make, ExecutionConfig())


# --------------------------------------------------------------------- #
# WaitGE barriers (the parked-lane machinery)
# --------------------------------------------------------------------- #
def barrier_programs(n_lanes: int, n_iters: int = 4):
    """Iteration-warp idiom: uneven per-iteration work, then a barrier.

    Work skew makes different lanes arrive last in different iterations;
    a lane doing zero work goes barrier-to-barrier in a single resumption,
    and every lane passes its final barrier right before retiring — the
    two historical fast-path wake-ordering bugs.
    """
    arrived = [0] * n_iters

    def prog(lane):
        acc = 0
        for it in range(n_iters):
            for _ in range((lane + it) % 3):
                yield Alu(1)
                acc += yield Load((lane * n_iters + it) % DATA_WORDS)
            arrived[it] += 1
            while arrived[it] < n_lanes:
                yield WaitGE(arrived, it, n_lanes)
        yield Mark(lane)
        return acc

    return [prog(i) for i in range(n_lanes)]


def test_barrier_programs_equivalent():
    assert_equivalent(barrier_programs, ExecutionConfig())


# --------------------------------------------------------------------- #
# grids of one-lane and 8-lane warps
# --------------------------------------------------------------------- #
def grid_programs(seed: int):
    """Seeded lane programs per warp for :func:`run_grid`, plus the number
    of request ids they mark.

    One-lane warps carry random programs plus three special ones: a ticker
    advancing a shared counter, a waiter spinning on it with ``Noop`` and
    ``WaitGE`` (advanced from outside its warp, so only a reference-exact
    resume schedule keeps its later ops in the same rounds), and a program
    that returns on its first resume.
    """
    rng = np.random.default_rng((555, seed))
    ticks = [0]

    def ticker(rid):
        for _ in range(6):
            yield Alu(1)
            ticks[0] += 1
        yield Mark(rid)
        return ticks[0]

    def waiter(rid):
        yield Noop()
        while ticks[0] < 4:
            yield WaitGE(ticks, 0, 4)
        v = yield Load(rid % DATA_WORDS)
        yield Mark(rid)
        return v

    def instant(rid):
        return -rid
        yield  # pragma: no cover - makes this a generator

    widths = [1, 8] * 4 + [1] * 6
    rng.shuffle(widths)
    warps = []
    rid = 0
    for width in widths:
        programs = []
        for _ in range(width):
            programs.append(random_program(rng, rid, width))
            rid += 1
        warps.append(programs)
    for special in (ticker, waiter, instant):
        warps.insert(int(rng.integers(0, len(warps) + 1)), [special(rid)])
        rid += 1
    return warps, rid


def run_grid(seed: int, execution: ExecutionConfig, probe=None):
    """Run one seeded grid; return (counters, results, memory, warps)."""
    set_execution_config(execution)
    warps, n_requests = grid_programs(seed)
    arena = MemoryArena(DATA_WORDS + HOT_WORDS + 16)
    arena.data[:DATA_WORDS] = np.arange(DATA_WORDS)
    launch = KernelLaunch(
        DeviceConfig(num_sms=2), arena, n_requests,
        rng=np.random.default_rng((666, seed)), probe=probe,
    )
    built = [launch.add_warp(programs) for programs in warps]
    counters = launch.run()
    return counters, launch.lane_results(), arena.data.copy(), built


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_one_lane_grid_equivalent(seed):
    ref = run_grid(seed, SEQUENTIAL)
    opt = run_grid(seed, ExecutionConfig())
    assert sum(len(w.lanes) == 1 for w in opt[3]) >= 9
    assert deep_eq(ref[0], opt[0]), "KernelCounters diverged"
    assert ref[0].cycles == opt[0].cycles > 0
    assert ref[1] == opt[1], "lane results diverged"
    assert np.array_equal(ref[2], opt[2]), "arena contents diverged"


# --------------------------------------------------------------------- #
# address bounds: every path rejects atomics outside the arena
# --------------------------------------------------------------------- #
ATOMICS = {
    "cas": lambda addr: AtomicCAS(addr, 0, 1),
    "add": lambda addr: AtomicAdd(addr, 1),
    "exch": lambda addr: AtomicExch(addr, 1),
}


@pytest.mark.parametrize("kind", sorted(ATOMICS))
@pytest.mark.parametrize("where", ["low", "high"])
@pytest.mark.parametrize(
    "execution, n_lanes",
    [(SEQUENTIAL, 1), (SEQUENTIAL, 8), (ExecutionConfig(), 1), (ExecutionConfig(), 8)],
    ids=["reference-1", "reference-8", "fast-1", "fast-8"],
)
def test_atomic_address_out_of_bounds(kind, where, execution, n_lanes):
    arena = MemoryArena(64)
    addr = -1 if where == "low" else arena.data.size

    def prog():
        yield Alu(1)
        yield ATOMICS[kind](addr)

    set_execution_config(execution)
    launch = KernelLaunch(DeviceConfig(num_sms=2), arena, n_lanes)
    launch.add_warp([prog() for _ in range(n_lanes)])
    with pytest.raises(SimulationError, match=f"atomic address {addr} out of bounds"):
        launch.run()
    assert not arena.data.any(), "an out-of-bounds atomic wrote memory"


@pytest.mark.parametrize("kind", sorted(ATOMICS))
def test_run_subroutine_atomic_out_of_bounds(kind):
    arena = MemoryArena(64)
    for addr in (-1, arena.data.size):

        def prog():
            yield ATOMICS[kind](addr)

        with pytest.raises(SimulationError, match="out of bounds"):
            run_subroutine(prog(), arena)
    assert not arena.data.any()


# --------------------------------------------------------------------- #
# probe fallback + escape hatch
# --------------------------------------------------------------------- #
class CountingProbe:
    """Minimal probe: counts ops; its presence must force the reference path."""

    def __init__(self) -> None:
        self.ops = 0
        self.warps: set[int] = set()

    def begin_launch(self) -> None:
        pass

    def end_launch(self, counters) -> None:
        pass

    def begin_slot(self, warp_id) -> None:
        pass

    def observe(self, warp_id, lane, op, value, gen) -> None:
        self.ops += 1
        self.warps.add(warp_id)


def test_probe_forces_reference_path():
    def make(n_lanes):
        rng = np.random.default_rng((999, 0))
        return [random_program(rng, i, n_lanes) for i in range(n_lanes)]

    ref = run_warp(make, SEQUENTIAL)
    probe = CountingProbe()
    # fast flags on, but the attached probe must win
    opt = run_warp(make, ExecutionConfig(), probe=probe)
    assert probe.ops > 0, "probe saw no ops: fast path ran despite the probe"
    assert deep_eq(ref[0], opt[0])
    assert ref[1] == opt[1]

    # one-lane warps must run under the probe too
    ref = run_grid(0, SEQUENTIAL)
    probe = CountingProbe()
    opt = run_grid(0, ExecutionConfig(), probe=probe)
    one_lane = {
        w.warp_id for w in opt[3]
        if len(w.lanes) == 1 and w.lanes[0].gen.__name__ != "instant"  # yields no op
    }
    assert one_lane and one_lane <= probe.warps, "probe missed one-lane warps"
    assert deep_eq(ref[0], opt[0])
    assert ref[1] == opt[1]


def test_repro_slow_path_env_wins(monkeypatch):
    monkeypatch.setenv("REPRO_SLOW_PATH", "1")
    set_execution_config(None)  # re-read the environment
    assert not execution_config().vectorize_slots
    # programmatic overrides cannot re-enable the fast path
    set_execution_config(ExecutionConfig(vectorize_slots=True))
    assert not execution_config().vectorize_slots
    monkeypatch.delenv("REPRO_SLOW_PATH")
    set_execution_config(None)
    assert execution_config().vectorize_slots


# --------------------------------------------------------------------- #
# whole-system equivalence (host mutation mid-kernel included)
# --------------------------------------------------------------------- #
def _run_system_batches(system: str, execution: ExecutionConfig, mix=None):
    from repro import YcsbWorkload, build_key_pool, make_system
    from repro.workloads import YCSB_A

    previous = set_execution_config(execution)
    try:
        rng = np.random.default_rng(42)
        keys, values = build_key_pool(2**10, rng)
        sys_ = make_system(system, keys, values, seed=5)
        wl = YcsbWorkload(pool=keys, mix=mix if mix is not None else YCSB_A)
        outs = [
            sys_.process_batch(wl.generate(2**9, rng), engine="simt")
            for _ in range(2)
        ]
        items = sys_.tree.items()
    finally:
        set_execution_config(previous)
    return outs, items


@pytest.mark.parametrize("system", ["nocc", "stm", "lock", "eirene"])
def test_system_batches_equivalent(system):
    ref_outs, ref_items = _run_system_batches(system, SEQUENTIAL)
    fast_outs, fast_items = _run_system_batches(system, ExecutionConfig())
    assert deep_eq(ref_outs, fast_outs)
    assert np.array_equal(ref_items[0], fast_items[0])
    assert np.array_equal(ref_items[1], fast_items[1])


def test_eirene_range_batches_equivalent():
    """YCSB-E: Eirene launches every range request as a one-lane warp in a
    range-only query kernel, which these batches run lowered, beside an
    insert-only update kernel."""
    from repro.workloads import YCSB_E

    ref_outs, ref_items = _run_system_batches("eirene", SEQUENTIAL, YCSB_E)
    fast_outs, fast_items = _run_system_batches("eirene", ExecutionConfig(), YCSB_E)
    assert deep_eq(ref_outs, fast_outs)
    assert np.array_equal(ref_items[0], fast_items[0])
    assert np.array_equal(ref_items[1], fast_items[1])


# --------------------------------------------------------------------- #
# lowered store-free launches (Eirene's range scans)
# --------------------------------------------------------------------- #
@pytest.fixture
def launch_spy(monkeypatch):
    """Records every launch's scheduling rng and counters, and counts the
    launches that ran lowered (``updates``: those that store)."""
    import repro.simt.launcher as launcher

    from repro.simt.lowered import OP_STORE

    seen = {"rngs": [], "counters": [], "lowered": 0, "updates": 0}
    run, run_lowered = launcher.KernelLaunch.run, launcher.run_lowered

    def spy_run(self):
        seen["rngs"].append(self.rng)
        seen["counters"].append(run(self))
        return seen["counters"][-1]

    def spy_lowered(trace, *args):
        seen["lowered"] += 1
        seen["updates"] += bool(np.any(trace.kinds == OP_STORE))
        return run_lowered(trace, *args)

    monkeypatch.setattr(launcher.KernelLaunch, "run", spy_run)
    monkeypatch.setattr(launcher, "run_lowered", spy_lowered)
    return seen


def _run_range_batches(execution, seen, system="eirene", fanout=32, distribution="zipfian",
                       batches=None, probe=None, mix=None, device=None, **system_kwargs):
    """Seeded YCSB-E (or ``mix``) batches, or ``batches``, on the SIMT
    engine, run by ``system`` (a name, or a callable building the system
    from the key pool). Returns the outcomes, the final arena words, each launch's
    counters, the rng states after each batch, and how many launches ran
    lowered."""
    from repro import YcsbWorkload, build_key_pool, make_system
    from repro.config import TreeConfig
    from repro.workloads import YCSB_E

    previous = set_execution_config(execution)
    seen.update(rngs=[], counters=[], lowered=0, updates=0)
    try:
        rng = np.random.default_rng(fanout)
        keys, values = build_key_pool(2**10, rng)
        if callable(system):
            sys_ = system(keys, values)
        else:
            sys_ = make_system(system, keys, values, TreeConfig(fanout=fanout), device=device,
                               seed=3, **system_kwargs)
        if probe is not None:
            sys_.devctx.attach_probe(probe)
        seen["system"] = sys_
        wl = YcsbWorkload(pool=keys, mix=mix or YCSB_E, distribution=distribution)
        if batches is None:
            batches = [wl.generate(2**9, rng) for _ in range(2)]
        outs, states = [], []
        for batch in batches:
            outs.append(sys_.process_batch(batch, engine="simt"))
            states.append(seen["rngs"][-1].bit_generator.state)
    finally:
        set_execution_config(previous)
    return outs, sys_.tree.arena.data.copy(), seen["counters"], states, seen["lowered"]


def assert_lowered_matches_reference(seen, expect_lowered=True, **kwargs):
    ref = _run_range_batches(SEQUENTIAL, seen, **kwargs)
    assert ref[4] == 0
    low = _run_range_batches(ExecutionConfig(), seen, **kwargs)
    if expect_lowered:
        assert low[4] >= 1, "no launch ran lowered"
    assert deep_eq(ref[0], low[0]), "outcomes diverged"
    assert np.array_equal(ref[1], low[1]), "arena words diverged"
    assert deep_eq(ref[2], low[2]), "per-launch counters diverged"
    assert ref[3] == low[3], "scheduling-rng stream diverged"
    return low


#: a device whose cycle costs are not integers, so the per-SM accumulation
#: order shows in the last bits
ODD_COSTS = DeviceConfig(num_sms=3, cycles_per_inst=0.1, cycles_per_mem_transaction=0.7)


def run_lowerable_grid(seed: int, execution: ExecutionConfig, warps: list, trace_fn,
                       n_requests: int, device: DeviceConfig = ODD_COSTS):
    """Launch ``warps`` (lists of lane programs) as one grid: lowered from
    ``trace_fn()`` when the launch allows it, else as programs."""
    set_execution_config(execution)
    arena = MemoryArena(DATA_WORDS)
    launch = KernelLaunch(device, arena, n_requests, rng=np.random.default_rng((333, seed)))
    lowered = launch.lowers
    if lowered:
        launch.add_lowered(trace_fn())
    else:
        for programs in warps:
            launch.add_warp(programs)
    counters = launch.run()
    assert launch.n_warps == len(warps)
    return counters, "lowered" if lowered else None, launch.rng.bit_generator.state


def run_store_free_grid(seed: int, execution: ExecutionConfig, n_warps: int):
    """A grid of seeded one-lane Load/Branch/Mark programs."""
    from repro.simt.lowered import OP_BRANCH, OP_LOAD, OP_MARK, OpTrace

    rng = np.random.default_rng((444, seed))
    # warp 0 runs only its Mark: on its SM it may be the first op charged
    streams = [
        rng.choice([OP_LOAD, OP_BRANCH], size=int(rng.integers(0, 30)) if i else 0)
        for i in range(n_warps)
    ]

    def prog(stream, rid):
        for code in stream.tolist():
            yield Load(rid % DATA_WORDS) if code == OP_LOAD else Branch()
        yield Mark(rid)

    def trace():
        kinds = [np.append(st, OP_MARK).astype(np.int8) for st in streams]
        addrs = [np.where(k == OP_LOAD, rid % DATA_WORDS, 0) for rid, k in enumerate(kinds)]
        offsets = np.cumsum([0] + [k.size for k in kinds])
        return OpTrace(offsets, np.concatenate(kinds), np.concatenate(addrs),
                       np.arange(n_warps), np.arange(n_warps + 1), np.zeros(n_warps, dtype=int))

    warps = [[prog(st, i)] for i, st in enumerate(streams)]
    return run_lowerable_grid(seed, execution, warps, trace, n_warps)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n_warps", [1, 2, 40])
def test_lowered_store_free_grid_equivalent(seed, n_warps):
    ref = run_store_free_grid(seed, SEQUENTIAL, n_warps)
    low = run_store_free_grid(seed, ExecutionConfig(), n_warps)
    assert (ref[1], low[1]) == (None, "lowered")
    assert deep_eq(ref[0], low[0]), "KernelCounters diverged"
    assert ref[0].cycles == low[0].cycles > 0
    assert ref[2] == low[2], "scheduling-rng stream diverged"


def run_barrier_grid(seed: int, execution: ExecutionConfig, n_warps: int):
    """A grid of seeded warps, 1 to 8 lanes wide. A barrier-free warp's
    lanes run one request each; an iteration warp's lanes run one request
    per iteration, separated by ``WaitGE`` barriers, and its last lanes may
    skip trailing iterations (a ragged request group) — or all of them.
    A request is a random Load/Branch stream, its loads landing in a few
    segments so slots coalesce, then its Mark."""
    from repro.simt.lowered import OP_BRANCH, OP_LOAD, OP_MARK, OpTrace

    rng = np.random.default_rng((888, seed))
    shapes = []  # per warp: (iterations, per lane: its requests)
    rid = 0
    for _ in range(n_warps):
        width = int(rng.integers(1, 9))
        iters = int(rng.integers(0, 4))
        ragged = int(rng.integers(1, width + 1))
        lanes = []
        for lane in range(width):
            n_req = max(iters, 1)
            if iters and lane >= ragged:
                n_req = int(rng.integers(0, iters))
            reqs = []
            for _ in range(n_req):
                kinds = rng.choice([OP_LOAD, OP_BRANCH], size=int(rng.integers(0, 12)))
                addrs = np.where(kinds == OP_LOAD, rng.integers(0, 64, size=kinds.size), 0)
                reqs.append((kinds, addrs, rid))
                rid += 1
            lanes.append(reqs)
        shapes.append((iters, lanes))

    def ops(req):
        kinds, addrs, req_id = req
        for code, addr in zip(kinds.tolist(), addrs.tolist()):
            yield Load(addr) if code == OP_LOAD else Branch()
        yield Mark(req_id)

    def free_lane(reqs):
        for req in reqs:
            yield from ops(req)

    def iteration_lane(reqs, arrived, n_lanes):
        for it in range(len(arrived)):
            if it < len(reqs):
                yield from ops(reqs[it])
            arrived[it] += 1
            while arrived[it] < n_lanes:
                yield WaitGE(arrived, it, n_lanes)

    warps = []
    for iters, lanes in shapes:
        if iters:
            arrived = [0] * iters
            warps.append([iteration_lane(reqs, arrived, len(lanes)) for reqs in lanes])
        else:
            warps.append([free_lane(reqs) for reqs in lanes])

    def trace():
        kinds, addrs, mark_ids, lane_ops, widths, iters = [], [], [], [], [], []
        for n_iters, lanes in shapes:
            widths.append(len(lanes))
            iters.append(n_iters)
            for reqs in lanes:
                n = 0
                for req_kinds, req_addrs, req_id in reqs:
                    kinds.append(np.append(req_kinds, OP_MARK).astype(np.int8))
                    addrs.append(np.append(req_addrs, 0))
                    mark_ids.append(req_id)
                    n += req_kinds.size + 1
                lane_ops.append(n)
        return OpTrace(
            np.cumsum([0] + lane_ops), np.concatenate(kinds), np.concatenate(addrs),
            np.array(mark_ids), np.cumsum([0] + widths), np.array(iters),
        )

    return run_lowerable_grid(seed, execution, warps, trace, rid,
                              device=dataclasses.replace(ODD_COSTS, warp_size=8))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n_warps", [1, 3, 24])
def test_lowered_barrier_grid_equivalent(seed, n_warps):
    """The barrier rule, ragged iterations, the round each warp returns in
    and per-slot coalescing, on multi-lane warps with and without
    barriers."""
    ref = run_barrier_grid(seed, SEQUENTIAL, n_warps)
    low = run_barrier_grid(seed, ExecutionConfig(), n_warps)
    assert (ref[1], low[1]) == (None, "lowered")
    assert deep_eq(ref[0], low[0]), "KernelCounters diverged"
    assert ref[0].cycles == low[0].cycles > 0
    assert ref[2] == low[2], "scheduling-rng stream diverged"


@pytest.mark.parametrize("case", ["one-warp", "one-round", "ragged", "ragged-wide", "no-rng"])
def test_round_order_draws_what_the_launcher_draws(case):
    """:class:`RoundOrder` drawn eagerly (as ``run_lowered`` draws it) and
    lazily, each warp's return round named as it becomes known (as the
    update kernel's guard resolution draws it), against
    ``KernelLaunch.run``'s ``rng.permutation`` per round: the same warps
    run in the same order in every round, and the rng ends in one state."""
    from repro.simt.lowered import RoundOrder

    returns = np.array({
        "one-warp": [7],
        "one-round": [4] * 9,
        "ragged": np.random.default_rng(5).integers(0, 12, size=40).tolist(),
        "ragged-wide": np.random.default_rng(5).integers(0, 30, size=150).tolist(),
        "no-rng": [3, 0, 5, 5, 1, 2],
    }[case])

    def rng():
        return None if case == "no-rng" else np.random.default_rng(99)

    # the reference: warp w is one lane running returns[w] branches, noting
    # its id in each slot it runs
    log = []

    def prog(w, n):
        for _ in range(n):
            log.append(w)
            yield Branch()

    set_execution_config(SEQUENTIAL)
    launch = KernelLaunch(ODD_COSTS, MemoryArena(DATA_WORDS), 0, rng=rng())
    for w, n in enumerate(returns.tolist()):
        launch.add_warp([prog(w, n)])
    launch.run()
    running = [int(np.count_nonzero(returns > r)) for r in range(int(returns.max()) + 1)]
    ends = np.cumsum(running).tolist()
    by_round = [log[e - n : e] for n, e in zip(running, ends)]

    eager_rng = rng()
    run, eager_running = RoundOrder(eager_rng, returns.size, returns).runs()
    assert eager_running.tolist() == running
    assert run.tolist() == log

    lazy_rng = rng()
    lazy = RoundOrder(lazy_rng, returns.size)
    # each return round becomes known in a round at or before it
    known = np.random.default_rng(6).integers(0, returns + 1)
    for r in range(len(running)):
        for w in np.flatnonzero(known == r).tolist():
            lazy.close(w, int(returns[w]))
        at = lazy.positions(r)
        assert [w for w in sorted(at, key=at.get) if returns[w] > r] == by_round[r]
    if case != "no-rng":
        state = launch.rng.bit_generator.state
        assert eager_rng.bit_generator.state == state
        assert lazy_rng.bit_generator.state == state


@pytest.mark.parametrize("fanout", [8, 16, 32])
@pytest.mark.parametrize("distribution", ["zipfian", "uniform"])
def test_lowered_range_launches_equivalent(launch_spy, fanout, distribution):
    low = assert_lowered_matches_reference(launch_spy, fanout=fanout, distribution=distribution)
    # the query kernel of each batch holds only ranges; the update kernels
    # insert, and lower where no leaf overfills
    assert low[4] - launch_spy["updates"] == 2
    assert all(out.results.range_keys.size for out in low[0])


def test_mixed_query_kernel_runs_lowered(launch_spy):
    """A query kernel holding point queries (iteration warps) beside ranges
    runs lowered whole, and equals the reference interpreter."""
    from repro.workloads import YcsbMix

    mix = YcsbMix(query=0.45, update=0.0, insert=0.05, range_=0.5)
    ref = _run_range_batches(SEQUENTIAL, launch_spy, mix=mix)
    fast = _run_range_batches(ExecutionConfig(), launch_spy, mix=mix)
    assert fast[4] - launch_spy["updates"] == 2, "a mixed query kernel was interpreted"
    for out in fast[0]:  # the batches really hold hits and scanned ranges
        assert np.any(out.results.values != NULL_VALUE)
        assert out.results.range_keys.size
    assert deep_eq(ref[0], fast[0]), "outcomes diverged"
    assert np.array_equal(ref[1], fast[1]), "arena words diverged"
    assert deep_eq(ref[2], fast[2]), "per-launch counters diverged"
    assert ref[3] == fast[3], "scheduling-rng stream diverged"


#: point queries beside updates, inserts and ranges: the query kernel holds
#: iteration (or ``d_query``) warps and range warps, and the update kernel
#: reshapes the tree between batches
QUERY_MIX_KW = dict(query=0.6, update=0.2, insert=0.05, range_=0.15)
#: two SMs: a batch's ~10 RGs share iteration warps of up to
#: ``rgs_per_iteration_warp`` RGs (on many SMs each warp would run one)
TWO_SMS = DeviceConfig(num_sms=2)

QUERY_MATRIX = [
    (fanout, distribution, rgs, rf, True)
    for fanout in (4, 8, 32)
    for distribution in ("uniform", "zipfian")
    for rgs in (1, 2, 4)
    for rf in (True, False)
] + [  # locality off: 32-lane d_query warps (no RGs, no RF)
    (fanout, distribution, 4, True, False)
    for fanout in (4, 8, 32)
    for distribution in ("uniform", "zipfian")
]


@pytest.mark.parametrize("fanout, distribution, rgs, rf, locality", QUERY_MATRIX)
def test_lowered_query_kernel_equivalent(launch_spy, fanout, distribution, rgs, rf, locality):
    from repro.config import EireneConfig
    from repro.workloads import YcsbMix

    config = EireneConfig(
        rgs_per_iteration_warp=rgs, enable_rf_decision=rf, enable_locality=locality
    )
    low = assert_lowered_matches_reference(
        launch_spy, fanout=fanout, distribution=distribution, device=TWO_SMS,
        mix=YcsbMix(**QUERY_MIX_KW), config=config,
    )
    assert low[4] - launch_spy["updates"] == 2, "a query kernel was interpreted"


def test_lowered_query_kernel_makes_the_rf_updates(launch_spy, monkeypatch):
    """Long horizontal walks rewrite RFs mid-kernel (here with the RF
    decision off, so the walks get long): the lowered launch makes the same
    ``update_rf`` calls, so the arena's RF words match."""
    from repro.btree import BPlusTree
    from repro.config import EireneConfig
    from repro.workloads import YCSB_C

    kwargs = dict(fanout=4, distribution="uniform", mix=YCSB_C, device=TWO_SMS,
                  config=EireneConfig(enable_rf_decision=False))
    calls = []
    update_rf = BPlusTree.update_rf

    def spy(tree, leaf, steps):
        calls.append((int(leaf), int(steps)))
        return update_rf(tree, leaf, steps)

    monkeypatch.setattr(BPlusTree, "update_rf", spy)
    ref = _run_range_batches(SEQUENTIAL, launch_spy, **kwargs)
    ref_calls, calls[:] = sorted(calls), []
    low = _run_range_batches(ExecutionConfig(), launch_spy, **kwargs)
    assert low[4] == 2
    assert ref_calls and sorted(calls) == ref_calls
    assert deep_eq(ref[0], low[0]) and np.array_equal(ref[1], low[1])
    assert deep_eq(ref[2], low[2]) and ref[3] == low[3]


def _query_batch(keys) -> "RequestBatch":
    from repro._types import OpKind
    from repro.workloads.requests import RequestBatch

    n = len(keys)
    return RequestBatch(kinds=np.full(n, OpKind.QUERY), keys=np.asarray(keys),
                        values=np.zeros(n), range_ends=np.zeros(n))


def _small_system(fanout: int, device=None, **kwargs):
    """The system :func:`_run_range_batches` builds, to pick batch keys from."""
    from repro import build_key_pool, make_system
    from repro.config import TreeConfig

    keys, values = build_key_pool(2**10, np.random.default_rng(fanout))
    return make_system("eirene", keys, values, TreeConfig(fanout=fanout), device=device,
                       seed=3, **kwargs)


def test_lowered_ragged_rg_and_one_request_launches(launch_spy):
    """One SM: a 45-query launch is one iteration warp whose second RG
    leaves lanes 13..31 without a request; then a launch of one query, with
    locality on and off."""
    from repro.config import EireneConfig

    device = DeviceConfig(num_sms=1)
    present, _ = _small_system(8, device).tree.items()
    ragged = _query_batch(present[10:100:2][:45])
    single = _query_batch(present[7:8])
    for locality in (True, False):
        config = EireneConfig(enable_locality=locality)
        low = assert_lowered_matches_reference(
            launch_spy, fanout=8, device=device, config=config, batches=[ragged, single]
        )
        assert low[4] == 2
        assert np.all(low[0][0].results.values[:45] != NULL_VALUE)


def test_cross_warp_rf_hazard_falls_back(launch_spy, monkeypatch):
    """Four 4-lane RGs in two warps of two RGs: RG0 (warp 0) and RG2 (warp 1)
    both end in leaf X, and RG3 walks from X to the leaf ``height + 1`` hops
    on, rewriting X's RF — which RG1's decision read through RG0. Which warp
    runs first decides what that load sees, so the launch is interpreted,
    and still equals the reference."""
    from repro.config import EireneConfig

    device = DeviceConfig(num_sms=1, warp_size=4)
    config = EireneConfig(rgs_per_iteration_warp=2)
    tree = _small_system(8, device, config=config).tree
    chain = tree.leaf_ids()
    x = int(chain[5])
    fence = tree.views.host(x).fence
    assert tree.views.host(int(chain[6])).fence > fence + 8
    rf = tree.views.host(x).rf
    assert rf == tree.views.host(int(chain[5 + tree.height + 1])).keys[0]
    keys = [fence + i for i in range(-3, 9)]  # RG0 ends in X; RG1, RG2 inside it
    keys += [rf - 3, rf - 2, rf - 1, rf]  # RG3: a horizontal walk past height
    batch = _query_batch(keys)

    calls = []
    update_rf = type(tree).update_rf
    monkeypatch.setattr(type(tree), "update_rf",
                        lambda t, leaf, steps: calls.append(int(leaf)) or update_rf(t, leaf, steps))
    low = assert_lowered_matches_reference(
        launch_spy, fanout=8, device=device, config=config, batches=[batch], expect_lowered=False
    )
    assert low[4] == 0, "the hazard launch ran lowered"
    assert x in calls
    # without the RF decision the loaded RF is never read: no hazard
    config = EireneConfig(rgs_per_iteration_warp=2, enable_rf_decision=False)
    low = assert_lowered_matches_reference(
        launch_spy, fanout=8, device=device, config=config, batches=[batch]
    )
    assert low[4] == 1


@pytest.mark.parametrize("how", ["probe", "slow-path-env"])
def test_probes_keep_the_interpreter_for_query_kernels(launch_spy, monkeypatch, how):
    from repro.workloads import YcsbMix

    kwargs = dict(mix=YcsbMix(**QUERY_MIX_KW), device=TWO_SMS)
    lowered = _run_range_batches(ExecutionConfig(), launch_spy, **kwargs)
    assert lowered[4] - launch_spy["updates"] == 2
    if how == "slow-path-env":
        monkeypatch.setenv("REPRO_SLOW_PATH", "1")
        set_execution_config(None)
    probe = LaunchCountingProbe()
    probed = _run_range_batches(execution_config(), launch_spy, probe=probe, **kwargs)
    assert probed[4] == 0, "a probed launch ran lowered"
    assert len(probe.launches) == 4 and all(ops > 0 for ops, _ in probe.launches)
    assert deep_eq(lowered[0], probed[0])
    assert np.array_equal(lowered[1], probed[1])
    assert deep_eq(lowered[2], probed[2])
    assert lowered[3] == probed[3]


def test_lowered_single_range_launch_equivalent(launch_spy):
    """One warp: no permutation is drawn."""
    from repro._types import OpKind
    from repro.workloads.requests import RequestBatch

    batch = RequestBatch(
        kinds=np.array([OpKind.RANGE]), keys=np.array([0]), values=np.array([0]),
        range_ends=np.array([10**9]),
    )
    assert_lowered_matches_reference(launch_spy, batches=[batch])


def test_lowered_unified_kernel_range_pass_equivalent(launch_spy):
    """``eirene-no-partition`` scans ranges in their own launch
    (``SimtRangeScanPass``) before the unified kernel."""
    low = assert_lowered_matches_reference(launch_spy, system="eirene-no-partition")
    assert "range_scan" in low[0][0].trace.pass_names


@pytest.mark.parametrize("where", ["next_leaf", "child"])
@pytest.mark.parametrize("side", ["low", "high"])
@pytest.mark.parametrize("execution", [SEQUENTIAL, ExecutionConfig()], ids=["reference", "lowered"])
def test_lowered_range_scan_bounds_check(where, side, execution):
    """A node pointer outside the arena faults with the interpreter's
    SimulationError on both paths — never an IndexError or a silent wrap."""
    from repro import build_key_pool, make_system
    from repro._types import OpKind
    from repro.workloads.requests import RequestBatch

    set_execution_config(execution)
    rng = np.random.default_rng(4)
    keys, values = build_key_pool(2**10, rng)
    sys_ = make_system("eirene", keys, values, seed=3)
    tree = sys_.tree
    bad = -3 if side == "low" else tree.arena.data.size // tree.layout.stride + 7
    lo = int(tree.items()[0][0])  # routed through the root's first child
    if where == "next_leaf":
        tree.views.host(tree.leaf_ids()[0]).next_leaf = bad
    else:
        tree.views.host(tree.root).children[0] = bad
    batch = RequestBatch(
        kinds=np.full(3, OpKind.RANGE), keys=np.full(3, lo), values=np.zeros(3),
        range_ends=np.full(3, 10**12),
    )
    with pytest.raises(SimulationError, match="load address -?[0-9]+ out of bounds") as err:
        sys_.process_batch(batch, engine="simt")
    lowered = any(entry.name == "batch_range_scan" for entry in err.traceback)
    assert lowered == execution.vectorize_slots


class LaunchCountingProbe(CountingProbe):
    """Counts ops per launch, beside each launch's issued slots."""

    def __init__(self) -> None:
        super().__init__()
        self.launches: list[tuple[int, int]] = []

    def begin_launch(self) -> None:
        self.start = self.ops

    def end_launch(self, counters) -> None:
        self.launches.append((self.ops - self.start, counters.issued_slots))


@pytest.mark.parametrize("how", ["probe", "slow-path-env"])
def test_probes_keep_the_interpreter_for_range_launches(launch_spy, monkeypatch, how):
    lowered = _run_range_batches(ExecutionConfig(), launch_spy)
    assert lowered[4] - launch_spy["updates"] == 2
    if how == "slow-path-env":
        monkeypatch.setenv("REPRO_SLOW_PATH", "1")
        set_execution_config(None)
    probe = LaunchCountingProbe()
    probed = _run_range_batches(execution_config(), launch_spy, probe=probe)
    assert probed[4] == 0, "a probed launch ran lowered"
    # each batch's first launch is the range-only query kernel: one op per slot
    range_launches = probe.launches[::2]
    assert len(range_launches) == 2
    assert all(ops == slots > 0 for ops, slots in range_launches)
    assert deep_eq(lowered[0], probed[0])
    assert np.array_equal(lowered[1], probed[1])
    assert lowered[3] == probed[3]


# --------------------------------------------------------------------- #
# lowered split-free update kernels
# --------------------------------------------------------------------- #
def assert_updates_match_reference(seen, expect_lowered=True, **kwargs):
    """:func:`assert_lowered_matches_reference`, plus the STM statistics and
    transaction ids, and whether an update launch ran lowered (``None``:
    either way)."""
    ref = _run_range_batches(SEQUENTIAL, seen, **kwargs)
    ref_stm = seen["system"].stm
    low = _run_range_batches(ExecutionConfig(), seen, **kwargs)
    low_stm = seen["system"].stm
    if expect_lowered:
        assert seen["updates"] >= 1, "no update launch ran lowered"
    elif expect_lowered is not None:
        assert seen["updates"] == 0, "an update launch ran lowered"
    assert deep_eq(ref[0], low[0]), "outcomes diverged"
    assert np.array_equal(ref[1], low[1]), "arena words diverged"
    assert deep_eq(ref[2], low[2]), "per-launch counters diverged"
    assert ref[3] == low[3], "scheduling-rng stream diverged"
    assert ref_stm.stats == low_stm.stats and ref_stm._next_tid == low_stm._next_tid
    return low


#: fanout x distribution x rgs_per_iteration_warp x RF with locality on, and
#: fanout x distribution without, each over the three retry thresholds in
#: turn (0: every descent is STM-protected)
UPDATE_MATRIX = [
    (fanout, distribution, rgs, rf, True, (0, 1, 3)[i % 3])
    for i, (fanout, distribution, rgs, rf) in enumerate(
        (f, d, g, r) for f in (4, 8, 32) for d in ("uniform", "zipfian")
        for g in (1, 2, 4) for r in (True, False)
    )
] + [
    (fanout, distribution, 4, True, False, threshold)
    for fanout in (4, 8, 32)
    for distribution in ("uniform", "zipfian")
    for threshold in (0, 1, 3)
]


@pytest.mark.parametrize("fanout, distribution, rgs, rf, locality, threshold", UPDATE_MATRIX)
def test_lowered_update_kernel_equivalent(launch_spy, fanout, distribution, rgs, rf,
                                          locality, threshold):
    """YCSB-A on two SMs: each update kernel is split-free, so it lowers.
    With one RG per warp or without locality, every warp starts in round 0
    and neighbouring warps write their boundary leaf together: those lanes
    are played in the launch's own round order."""
    from repro.config import EireneConfig
    from repro.workloads import YCSB_A

    config = EireneConfig(rgs_per_iteration_warp=rgs, enable_rf_decision=rf,
                          enable_locality=locality, stm_retry_threshold=threshold)
    assert_updates_match_reference(
        launch_spy, fanout=fanout,
        distribution=distribution, device=TWO_SMS, mix=YCSB_A, config=config,
    )


def _update_batch(kinds, keys, values=None) -> "RequestBatch":
    from repro.workloads.requests import RequestBatch

    n = len(keys)
    values = np.arange(1, n + 1) * 7 if values is None else values
    return RequestBatch(kinds=np.asarray(kinds), keys=np.asarray(keys),
                        values=np.asarray(values), range_ends=np.zeros(n))


def test_lowered_update_storm_reaches_the_stm_descent(launch_spy):
    """Every key of a few fanout-32 leaves updated in one RG: lanes of one
    leaf collide at its count word again and again, some retry three times
    and descend STM-protected; overwriting INSERTs ride along."""
    from repro._types import OpKind
    from repro.config import EireneConfig

    device = DeviceConfig(num_sms=1)
    present, _ = _small_system(32, device).tree.items()
    keys = present[100:132]
    kinds = np.where(np.arange(32) % 5 == 0, OpKind.INSERT, OpKind.UPDATE)
    low = assert_updates_match_reference(
        launch_spy, fanout=32, device=device, batches=[_update_batch(kinds, keys)],
        config=EireneConfig(stm_retry_threshold=3),
    )
    stm = low[0][0].extras["stm"]
    # each STM descent begins and commits a transaction of its own
    assert stm.commits > 32 and stm.begins == stm.commits + stm.aborts
    assert stm.conflicts_rw and stm.conflicts_ww


def _unaligned_eirene(keys, values):
    """Eirene on a fanout-8 tree whose node blocks start 3 words past a
    segment boundary. Every layout the library builds is segment-aligned,
    which puts each leaf's count word at a multiple of 8: in the 8-slot
    table of a two-word ``tx.writes`` it then always comes first. Here the
    value word comes first in about half the transactions."""
    from repro.btree import BPlusTree
    from repro.btree.layout import NodeLayout
    from repro.config import TreeConfig
    from repro.core.eirene import EireneTree
    from repro.device import DeviceContext
    from repro.stm import StmRegion

    config = TreeConfig(fanout=8)
    layout = NodeLayout(fanout=8, base=3)
    max_nodes = BPlusTree.plan_max_nodes(keys.size, config, 0.7)
    node_words = layout.arena_words(max_nodes)
    arena = MemoryArena(3 + 3 * node_words + 64)
    arena.alloc(3 + node_words)
    tree = BPlusTree(arena, layout, config, max_nodes)
    order = np.argsort(keys)
    tree._bulk_load(keys[order], values[order], 6, 6)
    devctx = DeviceContext(arena=arena, device=DeviceConfig(num_sms=1), seed=3)
    return EireneTree(tree, StmRegion(arena, layout.base, node_words), arena.alloc(1), devctx)


def _drive(gen, data, before):
    """Run a device program against ``data``; ``before(op)`` runs ahead of
    each op. Returns the ops as (lowered kind code, address) pairs."""
    from repro.simt.lowered import OP_ATOMIC, OP_BRANCH, OP_LOAD, OP_STORE

    ops, send = [], None
    while True:
        try:
            op = gen.send(send)
        except StopIteration:
            return ops
        before(op)
        send = None
        if isinstance(op, Load):
            send = int(data[op.addr])
            ops.append((OP_LOAD, op.addr))
        elif isinstance(op, Store):
            data[op.addr] = op.value
            ops.append((OP_STORE, op.addr))
        elif isinstance(op, AtomicCAS):
            send = int(data[op.addr])
            if send == op.expected:
                data[op.addr] = op.desired
            ops.append((OP_ATOMIC, op.addr))
        elif isinstance(op, AtomicAdd):
            send = int(data[op.addr])
            data[op.addr] = send + op.delta
            ops.append((OP_ATOMIC, op.addr))
        else:
            ops.append((OP_BRANCH, 0))


@pytest.mark.parametrize("guard", ["commit", "read-write", "write-write", "validation",
                                   "stm-descent"])
def test_update_templates_match_the_program(guard):
    """``d_update`` op by op, addresses included, against the templates:
    its first attempt fails at one guard on the count word (another owner
    at the owner load or at the compare-and-swap, or a version bump before
    the commit), then it commits — with ``tx.writes`` iterating either
    word first. The offsets the guard resolution schedules by name the
    ops they should. With retry threshold 0 (``stm-descent``) the first
    traversal is ``d_find_leaf_stm`` and its commit, the templates' STM
    descent piece."""
    from repro import build_key_pool
    from repro._types import OpKind
    from repro.core.kernels import d_update
    from repro.core.update_trace import UpdateTemplates
    from repro.simt.lowered import OP_ATOMIC, OP_LOAD, OP_STORE
    from repro.stm import FREE

    sys_ = _unaligned_eirene(*build_key_pool(2**10, np.random.default_rng(8)))
    tree, stm = sys_.tree, sys_.stm
    region = stm.region
    keys = tree.items()[0][::61]
    tpl = UpdateTemplates(tree, region, keys)
    assert tpl.valid.all() and tpl.c_first.any() and not tpl.c_first.all()
    tpl.add_records()
    threshold = 10
    if guard == "stm-descent":
        threshold = 0
        tpl.add_stm_descents(np.arange(keys.size))

    def piece(start, n, base=0):
        kinds, addrs = tpl.gather(np.array([start]), np.array([n]), np.array([base]))
        return list(zip(kinds.tolist(), addrs.tolist()))

    for i, key in enumerate(keys.tolist()):
        c = int(tpl.count_addr[i])
        own, ver = region.owner_addr(c), region.version_addr(c)
        data = tree.arena.data.copy()
        state = {"armed": True, "undo": None}

        def before(op):
            if state["undo"] is not None:
                data[own] = state["undo"]
                state["undo"] = None
            if not state["armed"]:
                return
            if guard == "read-write" and isinstance(op, Load) and op.addr == own:
                state["armed"], state["undo"] = False, FREE
                data[own] = 777
            elif guard == "write-write" and isinstance(op, AtomicCAS) and op.addr == own:
                state["armed"], state["undo"] = False, FREE
                data[own] = 777
            elif guard == "validation" and isinstance(op, AtomicCAS) and op.addr == own:
                state["armed"] = False
                data[ver] += 1

        ops = _drive(d_update(tree, stm, sys_.smo_lock_addr, threshold, 0, OpKind.UPDATE, key,
                              5), data, before)
        rec, pre, v0, p = (int(x[i]) for x in (tpl.record_start, tpl.pre, tpl.v0, tpl.p))
        desc = piece(int(tpl.desc_start[i]), int(tpl.desc_len[i]))
        if guard == "stm-descent":
            desc = piece(int(tpl.sdesc_start[i]), int(tpl.sdesc_len[i]))
        base = int(tpl.record_base[i])
        committed = piece(rec, p + 5, base)  # Load version, the transaction, the publish
        failed = {
            "commit": [],
            "stm-descent": [],
            "read-write": piece(rec, pre + 3, base),
            "write-write": piece(rec, pre + 8, base),
            "validation": piece(rec, v0 + 5, base) + piece(rec + p + 5, 4, base),
        }[guard]
        expected = desc + failed + (desc if failed else []) + committed
        assert ops == expected, f"key {key}: ops differ from the templates"
        # the guard resolution's offsets (the transaction starts after
        # Load version)
        at = dict(enumerate(committed, start=-1))
        assert at[pre] == (OP_LOAD, own) and at[pre + 2] == (OP_LOAD, ver)
        assert at[pre + 5] == (OP_ATOMIC, own) and at[v0 + 2] == (OP_LOAD, ver)
        assert at[int(tpl.bump[i])] == (OP_ATOMIC, ver)
        assert at[int(tpl.release[i])] == (OP_STORE, own)
        if guard == "validation":
            assert dict(enumerate(failed, start=-1))[int(tpl.abort_release[i])] == (OP_STORE, own)


def test_lowered_update_kernel_with_value_first_writes(launch_spy):
    """A batch in which some transactions publish and release their value
    word before the count word, and some after."""
    from repro import build_key_pool
    from repro._types import OpKind
    from repro.core.update_trace import UpdateTemplates

    sys_ = _unaligned_eirene(*build_key_pool(2**10, np.random.default_rng(8)))
    present, _ = sys_.tree.items()
    keys = present[::7][:64]
    order = UpdateTemplates(sys_.tree, sys_.stm.region, keys).c_first
    assert order.any() and not order.all()
    assert_updates_match_reference(
        launch_spy, system=_unaligned_eirene, fanout=8,
        batches=[_update_batch(np.full(keys.size, OpKind.UPDATE), keys)],
    )


def test_retries_lengthen_the_rg_last_walk(launch_spy, monkeypatch):
    """One warp of two 4-lane RGs. RG1 walks from RG0's last leaf X, its
    last lane ``height`` leaves on — no longer than a descent — but shares
    that leaf with lane 2, which takes the count word first (RG0's lane 1
    arrives last at the barrier, so lanes 2 and 3 start RG1 in one slot):
    the retry's descent pushes the last lane's steps past the height, so
    ``update_rf(X)`` fires, on both paths."""
    from repro._types import OpKind
    from repro.btree import BPlusTree
    from repro.config import EireneConfig

    device = DeviceConfig(num_sms=1, warp_size=4)
    config = EireneConfig(rgs_per_iteration_warp=2)
    tree = _small_system(8, device, config=config).tree
    present, _ = tree.items()
    chain = tree.leaf_ids()
    h = tree.height

    def leaf_keys(leaf, slots):
        row = tree.views.host(int(chain[leaf]))
        return row.keys[:row.count][slots].tolist()

    x = 10
    keys = (leaf_keys(x - 3, [0]) + leaf_keys(x - 2, [4]) + leaf_keys(x - 1, [0])
            + leaf_keys(x, [0]) + leaf_keys(x + 1, [0, 1]) + leaf_keys(x + h - 1, [0, 1]))
    assert len(keys) == 8 and keys == sorted(keys)
    calls = []
    update_rf = BPlusTree.update_rf
    monkeypatch.setattr(BPlusTree, "update_rf",
                        lambda t, leaf, steps: calls.append((int(leaf), int(steps)))
                        or update_rf(t, leaf, steps))
    batch = _update_batch(np.full(8, OpKind.UPDATE), keys)
    ref = _run_range_batches(SEQUENTIAL, launch_spy, fanout=8, device=device, config=config,
                             batches=[batch])
    ref_calls, calls[:] = list(calls), []
    assert ref_calls == [(int(chain[x]), h + h)]
    low = assert_updates_match_reference(launch_spy, fanout=8, device=device, config=config,
                                         batches=[batch])
    assert calls == ref_calls * 2  # the reference run again, then the lowered one
    assert deep_eq(ref[0], low[0])


def test_update_retries_reported_on_every_path(launch_spy):
    """``extras["retries"]`` counts the update kernel's transaction
    retries — one per abort — lowered, interpreted in iteration warps, and
    interpreted one lane per request; a conflicting batch has some."""
    from repro.config import EireneConfig
    from repro.workloads import YCSB_A

    kwargs = dict(fanout=32, mix=YCSB_A, device=TWO_SMS)
    for execution, locality in [(ExecutionConfig(), True), (SEQUENTIAL, True),
                                (SEQUENTIAL, False)]:
        outs = _run_range_batches(execution, launch_spy,
                                  config=EireneConfig(enable_locality=locality), **kwargs)[0]
        assert launch_spy["updates"] == (2 if execution is not SEQUENTIAL else 0)
        for out in outs:
            assert out.extras["retries"] == out.extras["stm"].aborts
        assert sum(out.extras["retries"] for out in outs) > 0


@pytest.mark.parametrize("where", ["first-iteration", "past-a-barrier"])
def test_warps_meeting_at_a_leaf_lower(launch_spy, where):
    """Two warps write one leaf in overlapping rounds, so the order the
    scheduling rng draws each round decides which lane gets the count word.
    ``first-iteration``: one RG per warp, both from round 0, RG0's last
    lanes and RG1's first in one leaf. ``past-a-barrier``: two warps of two
    RGs; RG1 (warp 0, after its barrier) ends in the first key of the leaf
    where RG2 (warp 1) starts with a long pile-up of conflicts."""
    from repro._types import OpKind
    from repro.config import EireneConfig

    config = EireneConfig(rgs_per_iteration_warp=1 if where == "first-iteration" else 2)
    device = DeviceConfig(num_sms=2)
    tree = _small_system(8, device, config=config).tree
    present, _ = tree.items()

    def leaf(i):
        return tree.find_leaf(present[i])[0]

    if where == "first-iteration":
        at = next(o for o in range(40, 48) if leaf(o + 31) == leaf(o + 32))
        keys = present[at:at + 64]
    else:
        at = next(o for o in range(700, 716) if leaf(o - 1) != leaf(o) == leaf(o + 4))
        keys = np.concatenate([present[0:320:10], present[330:640:10], present[at:at + 33],
                               present[at + 40::8][:32]])
    low = assert_updates_match_reference(
        launch_spy, fanout=8, device=device, config=config,
        batches=[_update_batch(np.full(keys.size, OpKind.UPDATE), keys)],
    )
    assert low[0][0].extras["stm"].aborts


def _rf_hazard_keys(tree, y: int):
    """The present keys, the index among them of chain leaf ``y``'s first
    key, and that of ``y``'s RF: the first key of the leaf ``height + 1``
    hops on, so an RG ending there walks far enough from ``y`` to rewrite
    ``y``'s RF. ``y`` holds at least five keys."""
    present, _ = tree.items()
    chain = tree.leaf_ids()
    row = tree.views.host(int(chain[y]))
    assert row.count >= 5
    rf = int(row.rf)
    assert rf == tree.views.host(int(chain[y + tree.height + 1])).keys[0]
    first = int(np.searchsorted(present, row.keys[0]))
    end = int(np.searchsorted(present, rf))
    return present, first, end


def test_warp_final_rf_load_is_no_update_hazard(launch_spy):
    """Four 4-lane RGs in two warps of two RGs. RG1 (warp 0) ends in leaf Y,
    where RG2 (warp 1) lies; RG3 walks from Y to the leaf ``height + 1``
    hops on and rewrites Y's RF. RG1's last lane loads Y's RF too, but RG1
    is its warp's last RG, so no decision reads that load: the launch
    lowers, and equals the reference bit for bit."""
    from repro._types import OpKind
    from repro.config import EireneConfig

    device = DeviceConfig(num_sms=1, warp_size=4)
    config = EireneConfig(rgs_per_iteration_warp=2)
    tree = _small_system(8, device, config=config).tree
    present, first, end = _rf_hazard_keys(tree, 20)
    keys = np.concatenate([present[first - 40:first - 33], present[first:first + 5],
                           present[end - 3:end + 1]])
    batch = _update_batch(np.full(keys.size, OpKind.UPDATE), keys)
    assert_updates_match_reference(launch_spy, fanout=8, device=device, config=config,
                                   batches=[batch])


def test_cross_warp_rf_hazard_keeps_the_update_interpreter(launch_spy):
    """Four 2-lane RGs in two warps of two RGs: RG0 (warp 0) and RG2 (warp
    1) both end in leaf Y, and neither is its warp's last RG, so RG1 and
    RG3 decide by their loads of Y's RF. RG3 walks from Y to the leaf
    ``height + 1`` hops on and rewrites that RF: the interleaving decides
    what RG0's load sees, so with the RF decision on the launch is
    interpreted, and still equals the reference."""
    from repro._types import OpKind
    from repro.config import EireneConfig

    device = DeviceConfig(num_sms=1, warp_size=2)
    config = EireneConfig(rgs_per_iteration_warp=2)
    tree = _small_system(8, device, config=config).tree
    present, first, end = _rf_hazard_keys(tree, 20)
    # RG0: a key before Y and Y's first; RG1, RG2: Y's next four; RG3: the walk
    keys = np.concatenate([present[first - 1:first + 5], present[end - 1:end + 1]])
    batch = _update_batch(np.full(keys.size, OpKind.UPDATE), keys)
    assert_updates_match_reference(launch_spy, expect_lowered=False, fanout=8, device=device,
                                   config=config, batches=[batch])
    # without the RF decision the loaded RF is never read: no hazard
    config = EireneConfig(rgs_per_iteration_warp=2, enable_rf_decision=False)
    assert_updates_match_reference(launch_spy, fanout=8, device=device, config=config,
                                   batches=[batch])


@pytest.mark.parametrize("case", ["delete", "absent", "injector", "probe", "slow-path-env"])
def test_update_kernel_fallbacks_match(launch_spy, monkeypatch, case):
    """Launches that must keep the interpreter: a delete, absent keys that
    overfill a leaf by one (it splits), the abort injector, a probe,
    ``REPRO_SLOW_PATH=1``."""
    from repro._types import OpKind

    device = DeviceConfig(num_sms=1)
    tree = _small_system(8, device).tree
    present, _ = tree.items()
    keys = present[40:104]
    kinds = np.full(keys.size, OpKind.UPDATE)
    kwargs = dict(fanout=8, device=device)
    if case == "delete":
        kinds[5] = OpKind.DELETE
    elif case == "absent":
        leaf = tree.find_leaf(int(keys[5]))[0]
        fresh = _absent_keys(tree, leaf, 8 - tree.views.host(leaf).count + 1)
        keys = np.concatenate([keys, fresh])
        kinds = np.concatenate([kinds, np.full(fresh.size, OpKind.INSERT)])
    elif case == "injector":
        from repro.core.eirene import EireneTree

        build = EireneTree.__init__

        def with_injector(self, *args, **kw):
            build(self, *args, **kw)
            self.stm.abort_injector = lambda: False

        monkeypatch.setattr(EireneTree, "__init__", with_injector)
    batch = _update_batch(kinds, keys)
    if case in ("probe", "slow-path-env"):
        lowered = _run_range_batches(ExecutionConfig(), launch_spy, batches=[batch], **kwargs)
        assert launch_spy["updates"] == 1
        if case == "slow-path-env":
            monkeypatch.setenv("REPRO_SLOW_PATH", "1")
            set_execution_config(None)
        probe = LaunchCountingProbe()
        probed = _run_range_batches(execution_config(), launch_spy, probe=probe,
                                    batches=[batch], **kwargs)
        assert probed[4] == 0 and probe.launches, "a probed launch ran lowered"
        assert deep_eq(lowered[0], probed[0]) and np.array_equal(lowered[1], probed[1])
        assert deep_eq(lowered[2], probed[2]) and lowered[3] == probed[3]
        return
    low = assert_updates_match_reference(launch_spy, expect_lowered=False, batches=[batch],
                                         **kwargs)
    # the SIMT engine reports the update launch's splits
    assert low[0][0].extras["splits"] == (1 if case == "absent" else 0)


def _absent_keys(tree, leaf: int, n: int) -> np.ndarray:
    """``n`` keys absent from ``leaf`` that route to it: the successors of
    its first keys."""
    row = tree.views.host(leaf)
    keys = row.keys[:row.count]
    fresh = keys[:-1][np.diff(keys) > 1][:n] + 1
    assert fresh.size == n
    return fresh


@pytest.fixture
def insert_spy(monkeypatch):
    """Counts the absent keys that lowered update launches insert."""
    from repro.core.eirene import EireneTree

    seen = {"inserts": 0}
    lower = EireneTree._lower_updates

    def spy(self, *args):
        lowered = lower(self, *args)
        if lowered is not None:
            seen["inserts"] += int(np.count_nonzero(lowered.values == NULL_VALUE))
        return lowered

    monkeypatch.setattr(EireneTree, "_lower_updates", spy)
    return seen


#: fanout x RF x locality x retry threshold; the insert share keeps some
#: launches from overfilling a leaf (fanout 4 leaves have one free slot)
INSERT_MATRIX = [
    (fanout, rf, locality, threshold)
    for fanout in (4, 8, 32) for rf in (True, False) for locality in (True, False)
    for threshold in (0, 1, 3)
]


@pytest.mark.parametrize("fanout, rf, locality, threshold", INSERT_MATRIX)
def test_lowered_insert_kernel_equivalent(launch_spy, insert_spy, fanout, rf, locality,
                                          threshold):
    """Updates and absent-key inserts on two SMs: every launch in which no
    leaf takes more inserts than it has free slots lowers, the others split
    on the interpreter. At fanout 32 many leaves take several inserts, so
    lanes derive their records from rows other writers changed and meet
    other transactions' publish tails."""
    from repro.config import EireneConfig
    from repro.workloads import YcsbMix

    share = {4: 0.02, 8: 0.05, 32: 0.2}[fanout]
    config = EireneConfig(enable_rf_decision=rf, enable_locality=locality,
                          stm_retry_threshold=threshold)
    assert_updates_match_reference(
        launch_spy, fanout=fanout, distribution="uniform", device=TWO_SMS, config=config,
        mix=YcsbMix(query=0.5 - share / 2, update=0.5 - share / 2, insert=share),
    )
    assert insert_spy["inserts"]


def _leaf_batch(tree, at: int, n_over: int, n_ins: int):
    """Overwrites of ``n_over`` keys of the chain leaf ``at`` and ``n_ins``
    inserts into it, in one batch."""
    from repro._types import OpKind

    leaf = int(tree.leaf_ids()[at])
    row = tree.views.host(leaf)
    over = row.keys[:n_over]
    fresh = _absent_keys(tree, leaf, n_ins)
    return _update_batch(np.repeat([OpKind.UPDATE, OpKind.INSERT], [over.size, fresh.size]),
                         np.concatenate([over, fresh]))


@pytest.mark.parametrize("free", [2, 0])
def test_inserts_into_one_leaf_in_one_rg(launch_spy, insert_spy, free):
    """Overwrites and inserts into one fanout-32 leaf, all lanes of one RG:
    they collide at the count word, each attempt derives its record from
    the row the earlier writers left, and a lane that takes the count word
    while the last writer still releases its shifted words fails at one of
    them. With ``free == 0`` the inserts fill the leaf to exactly
    ``fanout``, which still lowers."""
    device = DeviceConfig(num_sms=1)
    tree = _small_system(32, device).tree
    leaf = int(tree.leaf_ids()[9])
    n_ins = 32 - tree.views.host(leaf).count - free
    batch = _leaf_batch(tree, 9, 6, n_ins)
    low = assert_updates_match_reference(launch_spy, fanout=32, device=device,
                                         batches=[batch])
    assert insert_spy["inserts"] == n_ins
    assert low[0][0].extras["stm"].aborts
    assert launch_spy["system"].tree.views.host(leaf).count == 32 - free


def test_warps_meeting_at_a_leaf_that_takes_inserts(launch_spy, insert_spy):
    """One RG per warp, both from round 0: RG0's last lanes and RG1's
    first overwrite and insert into one leaf, so the rng's round order
    decides which warp's lanes take the count word first and which row
    each attempt sees."""
    from repro._types import OpKind
    from repro.config import EireneConfig

    config = EireneConfig(rgs_per_iteration_warp=1)
    device = DeviceConfig(num_sms=2)
    tree = _small_system(32, device, config=config).tree
    present, _ = tree.items()
    leaf = tree.find_leaf(int(present[300]))[0]
    fresh = _absent_keys(tree, leaf, 6)
    at = int(np.searchsorted(present, fresh[2]))
    keys = np.concatenate([present[at - 32:at + 32], fresh])
    kinds = np.repeat([OpKind.UPDATE, OpKind.INSERT], [64, fresh.size])
    low = assert_updates_match_reference(launch_spy, fanout=32, device=device, config=config,
                                         batches=[_update_batch(kinds, keys)])
    assert insert_spy["inserts"] == fresh.size
    assert low[0][0].extras["stm"].aborts


def test_lowered_inserts_with_value_first_writes(launch_spy, insert_spy):
    """Inserts and overwrites on the unaligned fanout-8 layout, where the
    sets of written words iterate in orders the aligned layouts never
    produce."""
    from repro import build_key_pool
    from repro._types import OpKind

    sys_ = _unaligned_eirene(*build_key_pool(2**10, np.random.default_rng(8)))
    tree = sys_.tree
    chain = tree.leaf_ids()
    fresh = np.concatenate([_absent_keys(tree, int(leaf), 1) for leaf in chain[::5][:20]])
    present, _ = tree.items()
    keys = np.concatenate([present[::7][:64], fresh])
    kinds = np.repeat([OpKind.UPDATE, OpKind.INSERT], [64, fresh.size])
    assert_updates_match_reference(
        launch_spy, system=_unaligned_eirene, fanout=8,
        batches=[_update_batch(kinds, keys)],
    )
    assert insert_spy["inserts"] == fresh.size


@pytest.mark.parametrize("engine, execution", [
    ("simt", ExecutionConfig()), ("simt", SEQUENTIAL), ("vector", ExecutionConfig()),
], ids=["simt-lowered", "simt-interpreted", "vector"])
def test_node_block_grows_past_twice_its_capacity(engine, execution):
    """Insert batches drive a small tree past twice the nodes its arena was
    built for: the node block grows between batches (moving the STM tables
    and the SMO latch behind it), every batch matches the sequential
    reference, and the tree stays valid."""
    from repro import build_key_pool, make_system
    from repro._types import OpKind
    from repro.config import TreeConfig
    from repro.lincheck import SequentialReference, check_linearizable
    from repro.workloads.requests import RequestBatch

    set_execution_config(execution)
    rng = np.random.default_rng(17)
    keys, values = build_key_pool(2**8, rng)
    sys_ = make_system("eirene", keys, values, TreeConfig(fanout=4),
                       device=DeviceConfig(num_sms=2), seed=2)
    tree = sys_.tree
    capacity = tree.max_nodes
    ref = SequentialReference(keys, values)
    splits = 0
    while tree.node_count <= 2 * capacity:
        fresh = rng.choice(1 << 20, size=96, replace=False)
        ops = [(OpKind.INSERT, int(k), int(k) + 1) for k in fresh]
        ops += [(OpKind.QUERY, int(k)) for k in rng.choice(keys, size=32)]
        batch = RequestBatch.from_ops(ops)
        out = sys_.process_batch(batch, engine=engine)
        splits += out.extras["splits"]
        report = check_linearizable(batch, out.results, ref.execute(batch))
        assert report.ok, report.describe(batch)
    tree.validate()
    assert splits == len(tree.split_events)
    assert tree.max_nodes > 2 * capacity
    assert np.array_equal(tree.items()[0], ref.items()[0])
    assert np.array_equal(tree.items()[1], ref.items()[1])


# --------------------------------------------------------------------- #
# parallel sharded execution
# --------------------------------------------------------------------- #
def test_parallel_sharded_identity_across_worker_counts():
    """YCSB-E splits ranges across shards, so the merged range CSR is
    checked for identity too."""
    from repro import YcsbWorkload, build_key_pool
    from repro.workloads import YCSB_A, YCSB_E

    for mix in (YCSB_A, YCSB_E):
        rng = np.random.default_rng(9)
        keys, values = build_key_pool(2**10, rng)
        wl = YcsbWorkload(pool=keys, mix=mix)
        batches = [wl.generate(256, rng) for _ in range(2)]

        ref_sys = ShardedSystem.build("eirene", keys, values, 4, seed=11)
        ref = [ref_sys.process_batch(b, engine="simt") for b in batches]
        ref_items = ref_sys.items()
        if mix is YCSB_E:  # some range really is split across shards
            routed = ref_sys.router.route(batches[0])
            pieces = sum(np.bincount(r.origin, minlength=batches[0].n) for r in routed)
            assert pieces.max() > 1 and ref[0].results.range_keys.size

        for n_workers in (0, 1, 2, 4):  # 0 = in-process serial fallback
            with ParallelShardedSystem(
                "eirene", keys, values, 4, n_workers=n_workers, seed=11
            ) as fleet:
                outs = [fleet.process_batch(b, engine="simt") for b in batches]
                fleet.validate()
                items = fleet.items()
                assert fleet.name == ref_sys.name
            assert deep_eq(ref, outs), f"{mix} outcome diverged at n_workers={n_workers}"
            assert np.array_equal(items[0], ref_items[0])
            assert np.array_equal(items[1], ref_items[1])


def test_parallel_sharded_worker_error_propagates():
    from repro import build_key_pool

    rng = np.random.default_rng(9)
    keys, values = build_key_pool(2**9, rng)
    with pytest.raises(Exception, match="unknown system"):
        ParallelShardedSystem("no-such-system", keys, values, 2, n_workers=2)
