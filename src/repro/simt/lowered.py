"""Lowered execution of store-free launches.

A launch whose lanes never store or run an atomic, and share no state but
their own warp's barriers, needs no interpreter: each lane's op stream
depends only on the arena at launch time, so a numpy trace builder can
produce every stream up front (see
:func:`~repro.btree.traversal.batch_range_scan` and
:func:`~repro.btree.traversal.batch_point_query`) and :func:`run_lowered`
replays :meth:`KernelLaunch.run`'s round loop over those streams. Warps may
have any width; a warp may run its lanes through iterations separated by a
barrier, as Eirene's §5 iteration warps do.

The replay is exact: counters, ``finish_cycle``, ``service_steps``,
``cycles`` and the scheduling-rng stream are bit-for-bit those of the
reference ``Warp._step_slow``.

* **Slots.** A lane of a barrier-free warp issues its op ``k`` in slot
  ``k``; the warp returns in the slot after its longest lane's last op.
* **Barriers.** In iteration ``it`` a lane runs one request, ending at its
  Mark, and *arrives* at the barrier in the slot after that Mark; a lane
  without a request in ``it`` arrives in its release slot. With ``T`` the
  latest arrival slot and ``L`` the highest lane index arriving at ``T``,
  lanes ``>= L`` issue their first op of ``it + 1`` in slot ``T`` and lanes
  ``< L`` in slot ``T + 1`` (the reference resumes lanes in lane order, so
  the lanes before ``L`` already waited out slot ``T``). After the final
  barrier the warp returns in slot ``T`` if ``L == 0``, else ``T + 1``.
* **Rounds.** Each round draws one ``rng.permutation(len(active))`` while
  more than one warp is active; the next round's active list is this
  round's order minus the warps that returned. A warp runs its slot ``r``
  in round ``r``.
* **Charges.** A slot issues one instruction per op kind present (the
  popcount of the Load 1 / Branch 16 / Mark 32 mask; ``divergent_slots``
  counts the extra ones), and its loads cost one transaction per distinct
  ``addr // words_per_segment``. It costs ``issue*cpi + trans*cpm +
  0*cpa`` — the launcher's own expression.
* **Cycles.** Executed slots are ordered round-major, in permutation order
  within a round; each SM's cycles accumulate over its slots with a
  sequential ``np.cumsum`` (never a pairwise sum), a Mark's
  ``finish_cycle`` is its SM's cycles before its slot, and the launch's
  cycles are the max over all SMs (an idle SM counts as 0.0).
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
    """Every lane's op stream of a store-free launch, as flat CSR.

    Lane ``j`` executes ``kinds[offsets[j]:offsets[j + 1]]``; a Load reads
    word ``addrs`` at its position (the entry of any other op is 0).
    ``mark_ids`` holds the request id of each ``OP_MARK`` in ``kinds``, in
    flat order (each request is marked once, as in every kernel). Warp
    ``w`` holds lanes ``warps[w]:warps[w + 1]`` and runs ``iters[w]``
    barrier iterations, 0 for a warp without barriers. A barrier warp's
    lane runs one request per iteration, ending at its Mark; a lane with
    fewer Marks than iterations has no request in the trailing ones.
    """

    offsets: np.ndarray
    kinds: np.ndarray
    addrs: np.ndarray
    mark_ids: np.ndarray
    warps: np.ndarray
    iters: np.ndarray

    @classmethod
    def one_lane_warps(cls, offsets: np.ndarray, kinds: np.ndarray,
                       addrs: np.ndarray) -> "OpTrace":
        """A Mark-free trace in which every lane is its own barrier-free
        warp."""
        n = offsets.size - 1
        return cls(offsets, kinds, addrs, np.zeros(0, dtype=np.int64),
                   np.arange(n + 1), np.zeros(n, dtype=np.int64))

    def with_marks(self, request_ids: np.ndarray) -> "OpTrace":
        """This (Mark-free) trace with ``Mark(request_ids[j])`` appended to
        lane ``j``."""
        n = self.offsets.size - 1
        at = self.offsets[1:]
        return OpTrace(
            offsets=self.offsets + np.arange(n + 1),
            kinds=np.insert(self.kinds, at, np.int8(OP_MARK)),
            addrs=np.insert(self.addrs, at, 0),
            mark_ids=np.asarray(request_ids, dtype=np.int64),
            warps=self.warps,
            iters=self.iters,
        )

    @classmethod
    def concat(cls, traces: list["OpTrace"]) -> "OpTrace":
        """One launch's trace: the warps of ``traces`` in order."""
        traces = [t for t in traces if t.warps.size > 1] or traces[:1]
        if len(traces) == 1:
            return traces[0]
        op_base = np.cumsum([0] + [t.kinds.size for t in traces[:-1]])
        lane_base = np.cumsum([0] + [t.offsets.size - 1 for t in traces[:-1]])
        return cls(
            offsets=np.concatenate(
                [[0]] + [t.offsets[1:] + b for t, b in zip(traces, op_base)]
            ),
            kinds=np.concatenate([t.kinds for t in traces]),
            addrs=np.concatenate([t.addrs for t in traces]),
            mark_ids=np.concatenate([t.mark_ids for t in traces]),
            warps=np.concatenate(
                [[0]] + [t.warps[1:] + b for t, b in zip(traces, lane_base)]
            ),
            iters=np.concatenate([t.iters for t in traces]),
        )


def _barrier_schedule(trace: OpTrace, op_lane: np.ndarray, rounds: np.ndarray) -> np.ndarray:
    """The barrier rule for the lanes of barrier warps: each op's slot minus
    its index within its lane (0 outside barrier warps). Sets those warps'
    ``rounds`` (their return slot)."""
    offsets, kinds, warps = trace.offsets, trace.kinds, trace.warps
    bwarps = np.flatnonzero(trace.iters)
    width = np.diff(warps)[bwarps]
    n_iters = trace.iters[bwarps]
    n_lanes, n_it = int(width.max()), int(n_iters.max())
    # each barrier lane's cell in the dense (warp, lane) grid
    row = np.repeat(np.arange(bwarps.size), width)
    col = np.arange(row.size) - np.repeat(np.cumsum(width) - width, width)
    cell_of = np.full(offsets.size - 1, -1, dtype=np.int64)
    cell_of[np.repeat(warps[bwarps], width) + col] = row * n_lanes + col
    exists = np.zeros((bwarps.size, n_lanes), dtype=bool)
    exists[row, col] = True

    # a request ends at its lane's Mark: per Mark, its lane, iteration and
    # first op (as an index within the lane)
    is_mark = kinds == OP_MARK
    marks = np.flatnonzero(is_mark)
    m_lane = op_lane[marks]
    m_k = marks - offsets[m_lane]
    first = np.ones(marks.size, dtype=bool)
    first[1:] = m_lane[1:] != m_lane[:-1]
    lane_first_mark = np.maximum.accumulate(np.where(first, np.arange(marks.size), 0))
    m_it = np.arange(marks.size) - lane_first_mark
    m_start = np.where(first, 0, np.concatenate(([0], m_k[:-1] + 1)))
    m_cell = cell_of[m_lane] * n_it + m_it
    barrier = cell_of[m_lane] >= 0
    n_ops = np.zeros(bwarps.size * n_lanes * n_it, dtype=np.int64)
    n_ops[m_cell[barrier]] = (m_k - m_start + 1)[barrier]
    n_ops = n_ops.reshape(bwarps.size, n_lanes, n_it)

    pos = np.arange(n_lanes)
    rel = np.zeros((bwarps.size, n_lanes), dtype=np.int64)  # release slots
    released = np.zeros((bwarps.size, n_lanes, n_it), dtype=np.int64)
    for it in range(n_it):
        released[:, :, it] = rel
        arrive = np.where(exists, rel + n_ops[:, :, it], -1)
        last_t = arrive.max(axis=1)
        last_l = n_lanes - 1 - np.argmax((arrive == last_t[:, None])[:, ::-1], axis=1)
        rel = np.where((n_iters > it)[:, None], last_t[:, None] + (pos < last_l[:, None]), rel)
        done = n_iters == it + 1
        rounds[bwarps[done]] = (last_t + (last_l > 0))[done]

    # a barrier lane's op issues in its request's release slot plus its
    # index within the request; its request is the first Mark at or after it
    shift = np.zeros(marks.size + 1, dtype=np.int32)
    shift[:-1][barrier] = released.reshape(-1)[m_cell[barrier]] - m_start[barrier]
    request = np.cumsum(is_mark, dtype=np.int32)
    request -= is_mark
    return np.where(cell_of[op_lane] >= 0, shift[request], 0).astype(np.int32, copy=False)


def run_lowered(
    trace: OpTrace,
    counters: KernelCounters,
    n_sms: int,
    rng,
    cpi: float,
    cpm: float,
    cpa: float,
    words_per_segment: int,
) -> None:
    """Replay the launcher's round loop over ``trace`` (warp ``w`` on SM
    ``w % n_sms``) and fill ``counters``."""
    offsets = trace.offsets
    kinds = trace.kinds
    n_warps = trace.warps.size - 1
    lane_ops = np.diff(offsets)
    load = kinds == OP_LOAD
    n_load = int(np.count_nonzero(load))
    n_branch = int(np.count_nonzero(kinds == OP_BRANCH))
    mark_pos = np.flatnonzero(kinds == OP_MARK)
    if n_warps == lane_ops.size:
        # one lane per warp (a lone lane never waits at a barrier): every
        # slot is one op, so a slot's id is its op's index
        rounds = lane_ops
        slot_base = offsets[:-1]
        mark_sid = mark_pos
        c_issue = 1 * cpi + 0 * cpm + 0 * cpa
        c_mem = 1 * cpi + 1 * cpm + 0 * cpa
        cost = np.array([c_mem, c_issue, c_issue])[kinds]
        n_issued = int(kinds.size)
        n_trans = n_load
    else:
        lane_warp = np.repeat(np.arange(n_warps), np.diff(trace.warps))
        op_lane = np.repeat(np.arange(lane_ops.size, dtype=np.int32), lane_ops)
        # a barrier-free warp returns in the slot after its longest lane's ops
        rounds = np.maximum.reduceat(lane_ops, trace.warps[:-1])
        # every (warp, slot) pair gets an id, warp-major; a lane's op ``k``
        # runs in slot ``k`` plus its barrier shift
        shift = _barrier_schedule(trace, op_lane, rounds) if trace.iters.any() else 0
        slot_base = np.cumsum(rounds) - rounds
        sid = (slot_base[lane_warp] - offsets[:-1]).astype(np.int32)[op_lane]
        del op_lane
        sid += np.arange(kinds.size, dtype=np.int32)
        sid += shift
        del shift
        n_sids = int(rounds.sum())
        mark_sid = sid[mark_pos]
        # per slot: issued op kinds and the distinct segments its loads touch
        load_sid = sid[load]
        loads = np.bincount(load_sid, minlength=n_sids)
        issue = (loads > 0).astype(np.int64)
        issue += np.bincount(sid[kinds == OP_BRANCH], minlength=n_sids) > 0
        issue += np.bincount(mark_sid, minlength=n_sids) > 0
        trans = np.minimum(loads, 1)
        shared = loads[load_sid] > 1
        if shared.any():
            seg = trace.addrs[load][shared] // words_per_segment
            span = int(seg.max()) + 1
            pairs = np.sort(load_sid[shared].astype(np.int64) * span + seg)
            new = np.ones(pairs.size, dtype=bool)
            new[1:] = pairs[1:] != pairs[:-1]
            distinct = np.bincount(pairs[new] // span, minlength=n_sids)
            trans = np.where(loads > 1, distinct, trans)
        cost = issue * cpi + trans * cpm + 0 * cpa
        n_issued = int(issue.sum())
        n_trans = int(trans.sum())
        counters.divergent_slots += n_issued - int(np.count_nonzero(issue))

    # the round loop: which warp runs a slot, in execution order. A warp is
    # packed with its return round above its id, so one comparison drops
    # the warps that return this round; shuffling in place draws what
    # ``rng.permutation`` would.
    shift = max(n_warps.bit_length(), 1)
    active = (rounds.astype(np.int64) << shift) | np.arange(n_warps)
    returning = np.bincount(rounds, minlength=1)
    running = n_warps - np.cumsum(returning)  # warps that run a slot in each round
    run = np.empty(int(running.sum()), dtype=np.int64)
    pos = 0
    for r, n_run in enumerate(running.tolist()):
        if rng is not None and active.size > 1:
            rng.shuffle(active)
        if returning[r]:
            active = active[active >= (r + 1) << shift]
        run[pos : pos + n_run] = active
        pos += n_run
    warp = run & ((1 << shift) - 1)
    run_sid = slot_base[warp] + np.repeat(np.arange(running.size), running)
    del run

    # from here on slots are grouped by SM, in execution order within each
    # (a stable sort of small integers is a radix sort); each SM's charges
    # accumulate sequentially, in place
    sm = (warp % n_sms).astype(np.min_scalar_type(n_sms))
    del warp
    by_sm = np.argsort(sm, kind="stable")
    sm_end = np.cumsum(np.bincount(sm, minlength=n_sms))
    run_sid = run_sid[by_sm]
    cycles = cost[run_sid]
    sm_cycles = [0.0] * n_sms
    start = 0
    for s, end in enumerate(sm_end.tolist()):
        if end > start:
            np.cumsum(cycles[start:end], out=cycles[start:end])
            sm_cycles[s] = float(cycles[end - 1])
            start = end

    # Marks: finish cycle (the SM's cycles before the Mark's slot) and
    # service steps since the lane's previous Mark
    marked = np.zeros(cost.size, dtype=bool)
    marked[mark_sid] = True
    at = np.flatnonzero(marked[run_sid])  # where the slots holding Marks ran
    at = at[np.argsort(run_sid[at])]
    at = at[np.searchsorted(run_sid[at], mark_sid)]
    sm_start = np.concatenate(([0], sm_end[:-1]))[sm[by_sm[at]]]
    ids = trace.mark_ids
    counters.finish_cycle[ids] = np.where(at > sm_start, cycles[at - 1], 0.0)
    mark_lane = np.searchsorted(offsets, mark_pos, side="right") - 1
    steps_now = mark_pos - offsets[mark_lane] + 1
    base = np.zeros_like(steps_now)
    same = mark_lane[1:] == mark_lane[:-1]
    base[1:][same] = steps_now[:-1][same]
    counters.service_steps[ids] = steps_now - base

    counters.load_inst += n_load
    counters.mem_inst += n_load
    counters.transactions += n_trans
    counters.control_inst += n_branch
    counters.issued_slots += n_issued
    counters.cycles = max(sm_cycles) if sm_cycles else 0.0
