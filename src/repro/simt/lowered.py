"""Lowered execution of store-free one-lane launches.

A launch whose warps are all one-lane programs that never store or run an
atomic needs no interpreter: each lane's op stream depends only on the arena
at launch time, so a numpy trace builder can produce every stream up front
(see :func:`~repro.btree.traversal.batch_range_scan`) and :func:`run_lowered`
replays :meth:`KernelLaunch.run`'s round loop over those streams.

The replay is exact: counters, ``finish_cycle``, ``service_steps``,
``cycles`` and the scheduling-rng stream are bit-for-bit those of the
reference ``Warp._step_slow``.

* **Rounds.** Each round draws one ``rng.permutation(len(active))`` while
  more than one warp is active; the next round's active list is this
  round's order minus the warps that returned. A warp with ``L`` ops runs
  op ``r`` in round ``r`` and returns in round ``L``.
* **Charges.** A Load costs ``1*cpi + 1*cpm + 0*cpa`` and a Branch or Mark
  ``1*cpi + 0*cpm + 0*cpa`` — the launcher's own expressions.
* **Cycles.** Executed ops are ordered round-major, in permutation order
  within a round; each SM's cycles accumulate over its ops with a
  sequential ``np.cumsum`` (never a pairwise sum), a Mark's
  ``finish_cycle`` is the exclusive prefix at it, and the launch's cycles
  are the max over all SMs (an idle SM counts as 0.0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counters import KernelCounters

#: int8 op-kind codes of a lowered trace
OP_LOAD = 0
OP_BRANCH = 1
OP_MARK = 2


@dataclass(frozen=True)
class OpTrace:
    """Every lane's op-kind stream of a store-free launch, as flat CSR.

    Lane ``j`` executes ``kinds[offsets[j]:offsets[j + 1]]``; ``mark_ids``
    holds the request id of each ``OP_MARK`` in ``kinds``, in flat order
    (each request is marked once, as in every kernel).
    """

    offsets: np.ndarray
    kinds: np.ndarray
    mark_ids: np.ndarray

    def with_marks(self, request_ids: np.ndarray) -> "OpTrace":
        """This (Mark-free) trace with ``Mark(request_ids[j])`` appended to
        lane ``j``."""
        n = self.offsets.size - 1
        return OpTrace(
            offsets=self.offsets + np.arange(n + 1),
            kinds=np.insert(self.kinds, self.offsets[1:], np.int8(OP_MARK)),
            mark_ids=np.asarray(request_ids, dtype=np.int64),
        )


def run_lowered(
    trace: OpTrace,
    counters: KernelCounters,
    n_sms: int,
    rng,
    cpi: float,
    cpm: float,
    cpa: float,
) -> None:
    """Replay the launcher's round loop over ``trace`` (lane ``j`` is warp
    ``j`` on SM ``j % n_sms``) and fill ``counters``."""
    offsets = trace.offsets
    kinds = trace.kinds
    n_ops = np.diff(offsets)

    # the round loop: which warp executes an op, in execution order
    executed: list[np.ndarray] = []
    active = np.arange(n_ops.size, dtype=np.int32)
    r = 0
    while active.size:
        if rng is not None and active.size > 1:
            active = active[rng.permutation(active.size)]
        active = active[n_ops[active] > r]
        executed.append(active)
        r += 1
    rounds = np.repeat(np.arange(len(executed)), [a.size for a in executed])
    warp = np.concatenate(executed)
    del executed
    flat = offsets[warp] + rounds

    # from here on ops are grouped by SM, in execution order within each (a
    # stable sort of small integers is a radix sort); each SM's charges
    # accumulate sequentially, in place
    sm = (warp % n_sms).astype(np.min_scalar_type(n_sms))
    del warp
    by_sm = np.argsort(sm, kind="stable")
    sm_end = np.cumsum(np.bincount(sm, minlength=n_sms))
    flat = flat[by_sm]
    op_kind = kinds[flat]
    c_issue = 1 * cpi + 0 * cpm + 0 * cpa
    c_mem = 1 * cpi + 1 * cpm + 0 * cpa
    cycles = np.array([c_mem, c_issue, c_issue])[op_kind]
    sm_cycles = [0.0] * n_sms
    start = 0
    for s, end in enumerate(sm_end.tolist()):
        if end > start:
            np.cumsum(cycles[start:end], out=cycles[start:end])
            sm_cycles[s] = float(cycles[end - 1])
            start = end

    # Marks: finish cycle (the SM's cycles before the Mark) and service
    # steps since the lane's previous Mark
    mark_pos = np.flatnonzero(kinds == OP_MARK)
    mark_lane = np.searchsorted(offsets, mark_pos, side="right") - 1
    steps_now = mark_pos - offsets[mark_lane] + 1
    base = np.zeros_like(steps_now)
    same = mark_lane[1:] == mark_lane[:-1]
    base[1:][same] = steps_now[:-1][same]
    at = np.flatnonzero(op_kind == OP_MARK)
    sm_start = np.concatenate(([0], sm_end[:-1]))[sm[by_sm[at]]]
    ordinal = np.searchsorted(mark_pos, flat[at])
    ids = trace.mark_ids[ordinal]
    counters.finish_cycle[ids] = np.where(at > sm_start, cycles[at - 1], 0.0)
    counters.service_steps[ids] = (steps_now - base)[ordinal]

    n_load = int(np.count_nonzero(kinds == OP_LOAD))
    counters.load_inst += n_load
    counters.mem_inst += n_load
    counters.transactions += n_load
    counters.control_inst += int(np.count_nonzero(kinds == OP_BRANCH))
    # a one-lane slot issues exactly one op kind: never divergent
    counters.issued_slots += int(kinds.size)
    counters.cycles = max(sm_cycles) if sm_cycles else 0.0
