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

Launches whose op streams can be built up front are lowered: a caller
that finds :attr:`KernelLaunch.lowers` true (fast path on, no probe) may
hand the whole launch over with :meth:`KernelLaunch.add_lowered` instead of
building lane programs: every lane's op stream as one finished
:class:`~repro.simt.lowered.OpTrace`. :meth:`KernelLaunch.run` replays the
round loop over those streams in numpy
(:func:`~repro.simt.lowered.run_lowered`), bit-for-bit the reference
``Warp._step_slow`` path, scheduling-rng stream included. Eirene lowers
its unprotected query kernel this way (iteration or ``d_query`` warps and
one-lane range warps, in any mix, read straight from the arena) and its
split-free update kernel (stores and atomics included, with the STM guards
on each leaf's ``count`` word resolved by the caller). A trace may be
built, and the launch's writes made, before :meth:`KernelLaunch.run`,
because the caller runs the launch right after adding the trace. Every
other launch runs its programs through :meth:`~repro.simt.warp.Warp.step`.
"""

from __future__ import annotations

from collections.abc import Generator

from ..config import DeviceConfig, execution_config
from ..errors import SimulationError
from ..memory import MemoryArena
from .counters import KernelCounters
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
        #: the trace of :meth:`add_lowered`
        self._trace: OpTrace | None = None

    # ------------------------------------------------------------------ #
    def add_warp(self, programs: list[Generator]) -> Warp:
        """Create a warp from explicit lane programs."""
        if self._launched:
            raise SimulationError("cannot add warps after launch")
        if self._trace is not None:
            raise SimulationError("a lowered launch takes no program warps")
        warp = Warp(programs, self.arena, self.device.warp_size, probe=self.probe)
        warp.warp_id = len(self._warps)
        self._warps.append(warp)
        return warp

    def add_programs(self, programs: list[Generator]) -> None:
        """Pack one-thread-per-request programs into warps of ``warp_size``."""
        ws = self.device.warp_size
        for start in range(0, len(programs), ws):
            self.add_warp(programs[start : start + ws])

    @property
    def lowers(self) -> bool:
        """Whether :meth:`add_lowered` may replace this launch's programs:
        only on the fast path with no probe attached, the conditions under
        which every warp would take :meth:`Warp._step_fast`."""
        return self.probe is None and execution_config().vectorize_slots

    def add_lowered(self, trace: OpTrace) -> None:
        """Make this launch replay ``trace``, its warps' finished op streams,
        instead of running programs. The caller builds no programs: it
        checks :attr:`lowers` first."""
        if self._launched:
            raise SimulationError("cannot add warps after launch")
        if not self.lowers:
            raise SimulationError("this launch runs its programs (probe or slow path)")
        if self._warps or self._trace is not None:
            raise SimulationError("a lowered launch is the whole launch")
        self._trace = trace

    @property
    def n_warps(self) -> int:
        return len(self._warps) + (0 if self._trace is None else self._trace.warps.size - 1)

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
        counters = self.counters
        cpi = dev.cycles_per_inst
        cpm = dev.cycles_per_mem_transaction
        cpa = dev.cycles_per_atomic_conflict
        if self._trace is not None:
            run_lowered(self._trace, counters, n_sms, self.rng, cpi, cpm, cpa,
                        self.arena.words_per_segment)
            return counters

        warps = self._warps
        sm_of = [i % n_sms for i in range(len(warps))]
        sm_cycles = [0.0] * n_sms
        steps = [w.step for w in warps]
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
                sm = sm_of[wi]
                issue, trans, conflicts = steps[wi](counters, sm_cycles[sm])
                sm_cycles[sm] += issue * cpi + trans * cpm + conflicts * cpa
                if warps[wi].active:
                    append(wi)
            active = still
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
