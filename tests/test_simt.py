"""Unit tests for the SIMT simulator: warps, divergence, coalescing, timing."""

import numpy as np
import pytest

from repro.config import DeviceConfig
from repro.errors import SimulationError
from repro.memory import MemoryArena
from repro.simt import (
    Alu,
    AtomicAdd,
    AtomicCAS,
    AtomicExch,
    Branch,
    CostModel,
    KernelLaunch,
    Load,
    Mark,
    Noop,
    PhaseTime,
    Store,
    Warp,
    op_kind,
)
from repro.simt.counters import KernelCounters
from repro.simt.warp import run_subroutine


@pytest.fixture
def device():
    return DeviceConfig(num_sms=2)


def launch_one_warp(programs, arena, device, n_requests=None):
    launch = KernelLaunch(device, arena, n_requests or len(programs))
    launch.add_warp(programs)
    return launch, launch.run()


class TestInstructionProtocol:
    def test_load_sends_value_back(self, arena):
        arena.data[5] = 77

        def prog():
            v = yield Load(5)
            return v

        assert run_subroutine(prog(), arena) == 77

    def test_store_writes(self, arena):
        def prog():
            yield Store(3, 9)

        run_subroutine(prog(), arena)
        assert arena.data[3] == 9

    def test_cas_semantics(self, arena):
        def prog():
            old1 = yield AtomicCAS(0, 0, 5)
            old2 = yield AtomicCAS(0, 0, 7)  # fails: now 5
            return old1, old2

        assert run_subroutine(prog(), arena) == (0, 5)
        assert arena.data[0] == 5

    def test_op_kind_groups_atomics(self):
        assert op_kind(AtomicCAS(0, 0, 1)) == op_kind(AtomicAdd(0, 1))
        assert op_kind(Load(0)) != op_kind(Store(0, 1))


class TestWarpExecution:
    def test_counters_per_lane(self, arena, device):
        def prog(i):
            def p():
                yield Load(i)
                yield Branch()
                yield Alu(2)
                yield Mark(i)

            return p()

        _, counters = launch_one_warp([prog(i) for i in range(4)], arena, device)
        assert counters.mem_inst == 4
        assert counters.control_inst == 4
        assert counters.alu_inst == 8
        assert np.all(np.isfinite(counters.finish_cycle[:4]))

    def test_coalesced_load_is_one_transaction(self, arena, device):
        def prog(i):
            def p():
                yield Load(i)  # contiguous: one 16-word segment

            return p()

        _, counters = launch_one_warp([prog(i) for i in range(16)], arena, device)
        assert counters.transactions == 1

    def test_scattered_load_pays_per_segment(self, arena, device):
        def prog(i):
            def p():
                yield Load(i * 16)

            return p()

        _, counters = launch_one_warp([prog(i) for i in range(8)], arena, device)
        assert counters.transactions == 8

    def test_divergent_kinds_serialize(self, arena, device):
        def loader():
            yield Load(0)

        def brancher():
            yield Branch()

        _, counters = launch_one_warp([loader(), brancher()], arena, device)
        assert counters.issued_slots == 2
        assert counters.divergent_slots == 1

    def test_uniform_kind_single_slot(self, arena, device):
        def loader(i):
            def p():
                yield Load(i)

            return p()

        _, counters = launch_one_warp([loader(i) for i in range(8)], arena, device)
        assert counters.issued_slots == 1
        assert counters.divergent_slots == 0

    def test_atomic_conflict_detected(self, arena, device):
        def prog():
            yield AtomicCAS(0, 0, 1)

        def prog2():
            yield AtomicCAS(0, 0, 2)  # same slot: second lane loses

        _, counters = launch_one_warp([prog(), prog2()], arena, device)
        assert counters.atomic_conflicts == 1
        assert arena.data[0] == 1

    def test_atomic_add_and_exch_return_old_and_count(self, arena, device):
        arena.data[4] = 7
        arena.data[5] = 1

        def prog():
            added = yield AtomicAdd(4, 3)
            swapped = yield AtomicExch(5, 2)
            return added, swapped

        launch, counters = launch_one_warp([prog()], arena, device)
        assert launch.lane_results() == [(7, 1)]
        assert (arena.data[4], arena.data[5]) == (10, 2)
        assert counters.atomic_inst == counters.atomic_transactions == 2

    def test_service_steps_exclude_noop(self, arena, device):
        def worker():
            yield Load(0)
            yield Load(1)
            yield Mark(0)

        def waiter():
            yield Noop()
            yield Noop()
            yield Load(2)
            yield Mark(1)

        _, counters = launch_one_warp([worker(), waiter()], arena, device, n_requests=2)
        assert counters.service_steps[0] == 3  # 2 loads + mark
        assert counters.service_steps[1] == 2  # noops excluded

    def test_unknown_op_raises(self, arena, device):
        class Bogus:
            pass

        def prog():
            yield Bogus()

        launch = KernelLaunch(device, arena, 1)
        launch.add_warp([prog()])
        with pytest.raises(SimulationError):
            launch.run()

    def test_out_of_bounds_load_raises(self, arena, device):
        def prog():
            yield Load(10**9)

        launch = KernelLaunch(device, arena, 1)
        launch.add_warp([prog()])
        with pytest.raises(SimulationError):
            launch.run()

    def test_overfull_warp_rejected(self, arena):
        with pytest.raises(SimulationError):
            Warp([iter(()) for _ in range(33)], arena)

    def test_lane_results(self, arena, device):
        def prog(i):
            def p():
                yield Alu()
                return i * 10

            return p()

        launch, _ = launch_one_warp([prog(i) for i in range(3)], arena, device)
        assert launch.lane_results() == [0, 10, 20]


class TestScheduler:
    def test_warps_spread_over_sms(self, arena, device):
        def prog():
            yield Alu()

        launch = KernelLaunch(device, arena, 64)
        launch.add_programs([prog() for _ in range(64)])
        assert launch.n_warps == 2
        counters = launch.run()
        assert counters.cycles > 0

    def test_double_launch_rejected(self, arena, device):
        launch = KernelLaunch(device, arena, 1)

        def prog():
            yield Alu()

        launch.add_programs([prog()])
        launch.run()
        with pytest.raises(SimulationError):
            launch.run()

    def test_add_after_launch_rejected(self, arena, device):
        launch = KernelLaunch(device, arena, 1)

        def prog():
            yield Alu()

        launch.add_programs([prog()])
        launch.run()
        with pytest.raises(SimulationError):
            launch.add_programs([prog()])

    def test_rng_scheduling_preserves_results(self, device):
        # random warp order must not change what a conflict-free kernel computes
        def make(arena, rng):
            def prog(i):
                def p():
                    v = yield Load(i)
                    yield Store(64 + i, v * 2)

                return p()

            launch = KernelLaunch(device, arena, 96, rng=rng)
            launch.add_programs([prog(i) for i in range(64)])
            launch.run()
            return arena.data[64:128].copy()

        a1 = MemoryArena(256)
        a1.data[:64] = np.arange(64)
        a2 = MemoryArena(256)
        a2.data[:64] = np.arange(64)
        r1 = make(a1, None)
        r2 = make(a2, np.random.default_rng(5))
        assert np.array_equal(r1, r2)


class TestCounters:
    def test_merge_combines_and_shifts_finish(self):
        a = KernelCounters(n_requests=4)
        a.mem_inst = 10
        a.cycles = 100.0
        a.finish_cycle[0] = 50.0
        b = KernelCounters(n_requests=4)
        b.mem_inst = 5
        b.cycles = 30.0
        b.finish_cycle[1] = 10.0
        m = a.merge(b)
        assert m.mem_inst == 15
        assert m.cycles == 130.0
        assert m.finish_cycle[0] == 50.0
        assert m.finish_cycle[1] == 110.0  # shifted by the first launch

    def test_merge_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            KernelCounters(n_requests=2).merge(KernelCounters(n_requests=3))

    def test_per_request_metrics(self):
        c = KernelCounters(n_requests=10)
        c.mem_inst = 50
        c.control_inst = 20
        assert c.mem_inst_per_request == 5.0
        assert c.control_inst_per_request == 2.0


class TestTiming:
    def test_phase_time_total(self):
        p = PhaseTime(sort=1.0, combine=2.0, query_kernel=3.0)
        assert p.total == 6.0

    def test_cost_model_seconds_scale_with_sms(self):
        small = CostModel(device=DeviceConfig(num_sms=1))
        big = CostModel(device=DeviceConfig(num_sms=100))
        assert small.seconds(1e6) == pytest.approx(big.seconds(1e6) * 100)
