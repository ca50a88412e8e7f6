"""Kernel launch and SM scheduling.

A :class:`KernelLaunch` collects thread programs, packs them into warps,
distributes warps round-robin over the device's SMs, and interleaves all
warps globally (one slot per warp per round). Global interleaving is what
makes transactions genuinely concurrent: STM conflicts, lock contention and
split/validation races arise from real overlap, not from a probability
model.

Warp *order* within each round is randomized when an ``rng`` is supplied —
GPU warp schedulers are not deterministic round-robin, and this
nondeterminism is what turns conflict retries into run-to-run response-time
variance (the paper's QoS argument: "it is unpredictable where the conflict
occurs and how many retries are required"). Systems seed the rng from the
batch contents, so runs stay reproducible while varying across batches.

Timing: each SM accumulates the issue and memory cycles of its own warps'
steps; the kernel's device time is the maximum over SMs (the straggler SM),
matching how a real grid retires.

One-lane warps run inline: when :meth:`~repro.simt.warp.Warp.inline_lane`
allows it (``vectorize_slots`` on, no probe), the round loop resumes the
warp's only lane itself instead of calling
:meth:`~repro.simt.warp.Warp.step`. A one-lane slot is one op, so each op
kind has a fixed charge, precomputed with the same timing expression the
loop applies to ``Warp.step`` results. Counters, ``finish_cycle`` and
``service_steps``, arena words, lane results and the round in which each
warp retires (hence the scheduling-rng stream) are bit-for-bit those of the
reference ``Warp._step_slow``. ``Noop``/``WaitGE`` cost nothing and never
park. Eirene launches each range request as its own one-lane warp: on the
benchmark's ``ycsb-e-zipf-sharded`` workload about 96.5 % of warp steps
run inline, on ``ycsb-a-simt`` none. ``REPRO_SLOW_PATH=1`` and attached
probes keep every warp on the reference path.

Store-free one-lane launches are lowered: warps registered through
:meth:`KernelLaunch.add_lowered_warps` come with one lowering callable that
returns every lane's op-kind stream straight from the arena. When every
warp of a launch was registered that way and every warp may run inline,
:meth:`KernelLaunch.run` calls it and replays the round loop over the
streams in numpy (:func:`~repro.simt.lowered.run_lowered`), again
bit-for-bit the reference path, rng stream included. Any other launch
(a mixed one included) runs the generators as above.
"""

from __future__ import annotations

from collections.abc import Callable, Generator

from ..config import DeviceConfig
from ..errors import SimulationError
from ..memory import MemoryArena
from .counters import KernelCounters
from .instructions import (
    Alu,
    AtomicAdd,
    AtomicCAS,
    AtomicExch,
    Branch,
    Load,
    Mark,
    Noop,
    Store,
    WaitGE,
)
from .lowered import OpTrace, run_lowered
from .warp import Warp


class KernelLaunch:
    """One simulated kernel grid."""

    def __init__(
        self,
        device: DeviceConfig,
        arena: MemoryArena,
        n_requests: int,
        rng=None,
        probe=None,
    ) -> None:
        self.device = device
        self.arena = arena
        self.counters = KernelCounters(n_requests=n_requests)
        self.rng = rng
        #: analysis probe (race detector / hotspot profiler) observing every
        #: executed op; ``None`` leaves execution bit-for-bit unchanged.
        self.probe = probe
        self._warps: list[Warp] = []
        self._launched = False
        #: the lowering callable of :meth:`add_lowered_warps`, the number of
        #: warps it covers, and what it returned beside the trace (set only
        #: when the launch ran lowered)
        self._lower: Callable[[], tuple[OpTrace, object]] | None = None
        self._n_lowered = 0
        self.lowered_result: object = None

    # ------------------------------------------------------------------ #
    def add_warp(self, programs: list[Generator]) -> Warp:
        """Create a warp from explicit lane programs (iteration warps build
        their shared buffer around the returned object)."""
        if self._launched:
            raise SimulationError("cannot add warps after launch")
        warp = Warp(programs, self.arena, self.device.warp_size, probe=self.probe)
        warp.warp_id = len(self._warps)
        self._warps.append(warp)
        return warp

    def add_programs(self, programs: list[Generator]) -> None:
        """Pack one-thread-per-request programs into warps of ``warp_size``."""
        ws = self.device.warp_size
        for start in range(0, len(programs), ws):
            self.add_warp(programs[start : start + ws])

    def add_lowered_warps(
        self, programs: list[Generator], lower: Callable[[], tuple[OpTrace, object]]
    ) -> None:
        """Add one one-lane warp per store-free program, plus ``lower()``:
        it returns the programs' op streams as one :class:`OpTrace` (lane
        ``j`` is ``programs[j]``) and their results. If the whole launch can
        run lowered, :meth:`run` executes the trace instead of the programs
        and keeps those results in :attr:`lowered_result`."""
        if self._lower is not None:
            raise SimulationError("a launch takes one set of lowered warps")
        self._lower = lower
        self._n_lowered = len(programs)
        for program in programs:
            self.add_warp([program])

    @property
    def n_warps(self) -> int:
        return len(self._warps)

    # ------------------------------------------------------------------ #
    def run(self) -> KernelCounters:
        """Execute the grid to completion; returns the filled counters."""
        if self._launched:
            raise SimulationError("kernel already launched")
        self._launched = True
        if self.probe is not None:
            # kernel launches are global barriers: accesses in different
            # launches are ordered and can never race
            self.probe.begin_launch()
        dev = self.device
        n_sms = dev.num_sms
        sm_of = [i % n_sms for i in range(len(self._warps))]
        sm_cycles = [0.0] * n_sms
        counters = self.counters
        cpi = dev.cycles_per_inst
        cpm = dev.cycles_per_mem_transaction
        cpa = dev.cycles_per_atomic_conflict

        warps = self._warps
        # one-lane warps run inline (None = call Warp.step): one slot is one
        # op of one lane, so its charges are fixed per op kind. The costs use
        # the timing expression below verbatim, keeping sm_cycles identical.
        solo = [w.inline_lane() for w in warps]
        if self._lower is not None and 0 < self._n_lowered == len(warps) \
                and all(lane is not None for lane in solo):
            trace, self.lowered_result = self._lower()
            run_lowered(trace, counters, n_sms, self.rng, cpi, cpm, cpa)
            return counters
        steps = [w.step for w in warps]
        data = self.arena.data
        item = data.item
        size = data.size
        c_issue = 1 * cpi + 0 * cpm + 0 * cpa
        c_mem = 1 * cpi + 1 * cpm + 0 * cpa
        c_conflict = 1 * cpi + 1 * cpm + 1 * cpa
        finish_cycle = counters.finish_cycle
        service_steps = counters.service_steps
        n_load = n_store = n_branch = n_alu = n_alu_ops = 0
        n_atomic = n_conflicts = n_mark = 0

        rng = self.rng
        active = list(range(len(warps)))
        while active:
            still = []
            append = still.append
            if rng is not None and len(active) > 1:
                order = [active[i] for i in rng.permutation(len(active)).tolist()]
            else:
                order = active
            for wi in order:
                lane = solo[wi]
                if lane is None:
                    sm = sm_of[wi]
                    issue, trans, conflicts = steps[wi](counters, sm_cycles[sm])
                    sm_cycles[sm] += issue * cpi + trans * cpm + conflicts * cpa
                    if warps[wi].active:
                        append(wi)
                    continue
                try:
                    op = lane.send(lane.send_value)
                except StopIteration as stop:
                    lane.active = False
                    lane.result = stop.value
                    warps[wi].active = False
                    continue
                append(wi)
                t = type(op)
                if t is Load:
                    addr = op.addr
                    if not 0 <= addr < size:
                        raise SimulationError(f"load address {addr} out of bounds")
                    lane.send_value = item(addr)
                    lane.steps += 1
                    n_load += 1
                    sm_cycles[sm_of[wi]] += c_mem
                elif t is Branch:
                    lane.send_value = None
                    lane.steps += 1
                    n_branch += 1
                    sm_cycles[sm_of[wi]] += c_issue
                elif t is Alu:
                    lane.send_value = None
                    lane.steps += 1
                    n_alu += op.count
                    n_alu_ops += 1
                    sm_cycles[sm_of[wi]] += c_issue
                elif t is Mark:
                    lane.send_value = None
                    steps_now = lane.steps + 1
                    lane.steps = steps_now
                    sm = sm_of[wi]
                    finish_cycle[op.request_id] = sm_cycles[sm]
                    service_steps[op.request_id] = steps_now - lane.mark_base
                    lane.mark_base = steps_now
                    n_mark += 1
                    sm_cycles[sm] += c_issue
                elif t is Store:
                    addr = op.addr
                    if not 0 <= addr < size:
                        raise SimulationError(f"store address {addr} out of bounds")
                    data[addr] = op.value
                    lane.send_value = None
                    lane.steps += 1
                    n_store += 1
                    sm_cycles[sm_of[wi]] += c_mem
                elif t is AtomicCAS or t is AtomicAdd or t is AtomicExch:
                    addr = op.addr
                    if not 0 <= addr < size:
                        raise SimulationError(f"atomic address {addr} out of bounds")
                    old = item(addr)
                    if t is AtomicCAS:
                        if old == op.expected:
                            data[addr] = op.desired
                            sm_cycles[sm_of[wi]] += c_mem
                        else:
                            n_conflicts += 1
                            sm_cycles[sm_of[wi]] += c_conflict
                    else:
                        data[addr] = old + op.delta if t is AtomicAdd else op.value
                        sm_cycles[sm_of[wi]] += c_mem
                    lane.send_value = old
                    lane.steps += 1
                    n_atomic += 1
                elif t is Noop or t is WaitGE:
                    # zero cost, no service step, and no parking: the lane is
                    # simply resumed again next round, as on the reference path
                    lane.send_value = None
                else:
                    raise SimulationError(f"unknown op {op!r}")
            active = still

        counters.load_inst += n_load
        counters.store_inst += n_store
        counters.mem_inst += n_load + n_store
        counters.control_inst += n_branch
        counters.alu_inst += n_alu
        counters.atomic_inst += n_atomic
        counters.atomic_transactions += n_atomic
        counters.atomic_conflicts += n_conflicts
        counters.transactions += n_load + n_store + n_atomic
        # a one-lane slot issues exactly one op kind: never divergent
        counters.issued_slots += (
            n_load + n_store + n_branch + n_alu_ops + n_atomic + n_mark
        )
        counters.cycles = max(sm_cycles) if sm_cycles else 0.0
        if self.probe is not None:
            self.probe.end_launch(counters)
        return counters

    def lane_results(self) -> list[object]:
        """Flat list of lane return values in warp/lane order."""
        out: list[object] = []
        for warp in self._warps:
            out.extend(warp.results())
        return out
