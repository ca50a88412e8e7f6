"""Lowered execution of launches whose op streams are known up front.

A launch needs no interpreter when every lane's op stream can be produced
before the launch runs. Two kinds of Eirene launches qualify:

* **store-free** ones, whose lanes never store or run an atomic and share
  no state but their own warp's barriers: each stream depends only on the
  arena at launch time (see :func:`~repro.btree.traversal.batch_range_scan`
  and :func:`~repro.btree.traversal.batch_point_query`);
* **split-free update kernels** (overwrites, and absent-key inserts into
  leaves that cannot fill), whose lanes do store and run atomics but meet
  at a leaf's STM-guarded ``count`` word before any other word of it: the
  caller resolves those guards itself and hands over the finished
  streams, with the failed compare-and-swaps flagged (see
  :meth:`~repro.core.eirene.EireneTree._lower_updates`).

The caller builds the whole :class:`OpTrace` before the launch runs: the
lanes of a query kernel's point queries, then its range lanes
(:meth:`OpTrace.append`), or an update kernel's lanes. Both trace builders
(:mod:`repro.btree.traversal` and :mod:`repro.core.update_trace`) spell
their streams as tokens, each a fixed op pattern on one word, and
:func:`expand` spells the tokens out from one table, :data:`PATTERNS`.

:func:`run_lowered` replays :meth:`KernelLaunch.run`'s round loop over
those streams. Warps may have any width; a warp may run its lanes through
iterations separated by a barrier, as Eirene's §5 iteration warps do.

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
  :func:`barrier` is this rule, the one place it is decided: the replay
  applies it here, and the update kernel's guard resolution
  (:class:`~repro.core.update_schedule.UpdateSchedule`) to start each
  iteration's lanes.
* **Rounds.** Each round draws one ``rng.permutation(len(active))`` while
  more than one warp is active; the next round's active list is this
  round's order minus the warps that returned. A warp runs its slot ``r``
  in round ``r``. :class:`RoundOrder` is this draw, the one place it is
  replayed: here, once per launch, and in the update kernel's guard
  resolution, lazily.
* **Charges.** A slot issues one instruction per op kind present (the
  popcount of the Load 1 / Store 2 / Atomic 4 / Branch 16 / Mark 32 mask;
  ``divergent_slots`` counts the extra ones). Its loads cost one
  transaction per distinct ``addr // words_per_segment``, its stores
  likewise, counted apart from the loads, and each atomic one more; each
  failed compare-and-swap is one atomic conflict. It costs ``issue*cpi +
  trans*cpm + conflicts*cpa`` — the launcher's own expression, so a
  store-free trace costs what it did before stores were lowered.
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
OP_STORE = 3
OP_ATOMIC = 4

#: op-stream tokens of the trace builders, each a fixed pattern of ops on
#: one word ``w`` (:data:`PATTERNS`, spelled out by :func:`expand`): a
#: checked word, a matched key (with the value in the same slot of the
#: payload row), a lone load, the Mark, a branch; the STM's ``d_read`` (a
#: re-read skips the version load), ``d_write`` (a re-write skips the
#: acquire and the undo load), the commit's validation and publish, and
#: the abort's undo store and release
(TOK_CHECK, TOK_HIT, TOK_LOAD, TOK_MARK, TOK_BRANCH, TOK_READ, TOK_REREAD, TOK_WRITE,
 TOK_REWRITE, TOK_VALIDATE, TOK_PUBLISH, TOK_UNDO, TOK_RELEASE) = range(13)
#: the word a pattern's op touches: ``w``, its STM owner entry, its STM
#: version entry, the payload word of ``w``'s slot, or none (address 0)
AT_WORD, AT_OWNER, AT_VERSION, AT_VALUE, AT_NONE = range(5)
PATTERNS = (
    ((OP_LOAD, AT_WORD), (OP_BRANCH, AT_NONE)),
    ((OP_LOAD, AT_WORD), (OP_BRANCH, AT_NONE), (OP_LOAD, AT_VALUE)),
    ((OP_LOAD, AT_WORD),),
    ((OP_MARK, AT_NONE),),
    ((OP_BRANCH, AT_NONE),),
    ((OP_LOAD, AT_OWNER), (OP_BRANCH, AT_NONE), (OP_LOAD, AT_VERSION), (OP_LOAD, AT_WORD)),
    ((OP_LOAD, AT_OWNER), (OP_BRANCH, AT_NONE), (OP_LOAD, AT_WORD)),
    ((OP_BRANCH, AT_NONE), (OP_ATOMIC, AT_OWNER), (OP_BRANCH, AT_NONE), (OP_LOAD, AT_WORD),
     (OP_STORE, AT_WORD)),
    ((OP_BRANCH, AT_NONE), (OP_STORE, AT_WORD)),
    ((OP_LOAD, AT_VERSION), (OP_BRANCH, AT_NONE)),
    ((OP_ATOMIC, AT_VERSION), (OP_STORE, AT_OWNER)),
    ((OP_STORE, AT_WORD),),
    ((OP_STORE, AT_OWNER),),
)
PATTERN_LEN = np.array([len(p) for p in PATTERNS], dtype=np.int8)
_OP_KIND = np.array([k for p in PATTERNS for k, _ in p], dtype=np.int8)
_OP_MODE = np.array([m for p in PATTERNS for _, m in p])
_OP_HAS_WORD = _OP_MODE != AT_NONE
_PATTERN_FIRST = np.cumsum(PATTERN_LEN) - PATTERN_LEN


def expand(types: np.ndarray, words: np.ndarray, shifts: tuple[int, int, int]
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ops of the tokens ``types`` on the words ``words``, back to back:
    each op's kind and address, and where each token's ops end. ``shifts``
    are the distances from a word to its owner entry, to its version entry
    and to its payload word."""
    lens = np.take(PATTERN_LEN, types)
    ends = np.cumsum(lens)
    op = np.repeat(np.take(_PATTERN_FIRST, types) - (ends - lens), lens)
    op += np.arange(op.size, dtype=np.int32)
    kinds = np.take(_OP_KIND, op)
    has_word = np.take(_OP_HAS_WORD, op)
    shift = np.take(np.array((0, *shifts, 0))[_OP_MODE], op)
    del op  # the largest temporary
    addrs = np.repeat(words, lens)
    addrs *= has_word
    addrs += shift
    return kinds, addrs, ends


@dataclass(frozen=True)
class OpTrace:
    """Every lane's op stream of a lowered launch, as flat CSR.

    Lane ``j`` executes ``kinds[offsets[j]:offsets[j + 1]]``; a Load, Store
    or Atomic touches word ``addrs`` at its position (the entry of any
    other op is 0), and ``cas_fail`` flags each atomic that is a failed
    compare-and-swap (``None``: no op fails). ``mark_ids`` holds the
    request id of each ``OP_MARK`` in ``kinds``, in flat order (each
    request is marked once, as in every kernel). Warp ``w`` holds lanes
    ``warps[w]:warps[w + 1]`` and runs ``iters[w]`` barrier iterations, 0
    for a warp without barriers. A barrier warp's lane runs one request
    per iteration, ending at its Mark; a lane with fewer Marks than
    iterations has no request in the trailing ones.
    """

    offsets: np.ndarray
    kinds: np.ndarray
    addrs: np.ndarray
    mark_ids: np.ndarray
    warps: np.ndarray
    iters: np.ndarray
    cas_fail: np.ndarray | None = None

    def append(self, other: "OpTrace") -> "OpTrace":
        """One launch's trace: the warps of this trace, then those of
        ``other``; both store-free (no ``cas_fail``)."""
        if self.cas_fail is not None or other.cas_fail is not None:
            raise ValueError("only store-free traces are appended")
        if other.warps.size == 1:
            return self
        if self.warps.size == 1:
            return other
        return OpTrace(
            offsets=np.concatenate((self.offsets, other.offsets[1:] + self.kinds.size)),
            kinds=np.concatenate((self.kinds, other.kinds)),
            addrs=np.concatenate((self.addrs, other.addrs)),
            mark_ids=np.concatenate((self.mark_ids, other.mark_ids)),
            warps=np.concatenate((self.warps, other.warps[1:] + self.offsets.size - 1)),
            iters=np.concatenate((self.iters, other.iters)),
        )


def barrier(arrive: np.ndarray, warps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The barrier rule: lanes arrive at a barrier in slots ``arrive``, warp
    ``w`` holding lanes ``warps[w]:warps[w + 1]``. With ``T`` a warp's
    latest arrival and ``L`` its highest lane arriving at ``T``, returns
    each lane's release slot (``T`` for lanes ``>= L``, else ``T + 1``) and
    the slot each warp returns in if this barrier is its last (``T`` if
    ``L == 0``, else ``T + 1``)."""
    lane_warp = np.repeat(np.arange(warps.size - 1), np.diff(warps))
    pos = np.arange(arrive.size) - warps[lane_warp]
    t = np.maximum.reduceat(arrive, warps[:-1])
    last = np.maximum.reduceat(np.where(arrive == t[lane_warp], pos, -1), warps[:-1])
    return t[lane_warp] + (pos < last[lane_warp]), t + (last > 0)


def _barrier_schedule(trace: OpTrace, marks: np.ndarray, m_lane: np.ndarray,
                      rounds: np.ndarray) -> np.ndarray:
    """The barrier rule for the lanes of barrier warps: per Mark (at
    ``marks``, in lane ``m_lane``), the slot its request's first op issues
    in minus that op's index within its lane (0 outside barrier warps).
    Sets those warps' ``rounds`` (their return slot)."""
    offsets, warps = trace.offsets, trace.warps
    bwarps = np.flatnonzero(trace.iters)
    width = np.diff(warps)[bwarps]
    n_iters = trace.iters[bwarps]
    n_it = int(n_iters.max())
    # the barrier warps' lanes, renumbered from 0 (``-1``: another lane)
    bounds = np.concatenate(([0], np.cumsum(width)))
    row_of = np.full(offsets.size - 1, -1, dtype=np.int64)
    row_of[np.repeat(warps[bwarps] - bounds[:-1], width) + np.arange(bounds[-1])] = \
        np.arange(bounds[-1])

    # a request ends at its lane's Mark: per Mark, its iteration and first
    # op (as an index within the lane)
    m_k = marks - offsets[m_lane]
    first = np.ones(marks.size, dtype=bool)
    first[1:] = m_lane[1:] != m_lane[:-1]
    lane_first_mark = np.maximum.accumulate(np.where(first, np.arange(marks.size), 0))
    m_it = np.arange(marks.size) - lane_first_mark
    m_start = np.where(first, 0, np.concatenate(([0], m_k[:-1] + 1)))
    m_cell = row_of[m_lane] * n_it + m_it
    barrier_lane = row_of[m_lane] >= 0
    n_ops = np.zeros(bounds[-1] * n_it, dtype=np.int64)
    n_ops[m_cell[barrier_lane]] = (m_k - m_start + 1)[barrier_lane]
    n_ops = n_ops.reshape(-1, n_it)

    lane_iters = np.repeat(n_iters, width)
    rel = np.zeros(bounds[-1], dtype=np.int64)  # release slots
    released = np.zeros((bounds[-1], n_it), dtype=np.int64)
    for it in range(n_it):
        released[:, it] = rel
        opened, returns = barrier(rel + n_ops[:, it], bounds)
        rel = np.where(lane_iters > it, opened, rel)
        done = n_iters == it + 1
        rounds[bwarps[done]] = returns[done]

    # a barrier lane's op issues in its request's release slot plus its
    # index within the request
    shift = np.zeros(marks.size, dtype=np.int64)
    shift[barrier_lane] = released.reshape(-1)[m_cell[barrier_lane]] - m_start[barrier_lane]
    return shift


def _segments_per_slot(sid: np.ndarray, addrs: np.ndarray, words_per_segment: int,
                       n_sids: int) -> tuple[np.ndarray, np.ndarray]:
    """Per slot: how many of the ops at slots ``sid`` (touching words
    ``addrs``, a copy this divides in place) it holds, and the distinct
    segments they touch."""
    seg = np.floor_divide(addrs, words_per_segment, out=addrs)
    count = np.bincount(sid, minlength=n_sids)
    trans = np.minimum(count, 1)
    shared = (count > 1)[sid]
    if shared.any():
        span = int(seg.max()) + 1
        # (slot, segment) packed into one sortable word, 32 bits when it fits
        wide = n_sids * span > np.iinfo(np.int32).max
        pairs = sid[shared].astype(np.int64 if wide else np.int32)
        pairs *= span
        pairs += seg[shared]
        del shared
        pairs.sort()
        new = np.ones(pairs.size, dtype=bool)
        np.not_equal(pairs[1:], pairs[:-1], out=new[1:])
        pairs = pairs[new]
        pairs //= span
        trans = np.where(count > 1, np.bincount(pairs, minlength=n_sids), trans)
    return count, trans


#: launches of at most this many warps keep them in a list: numpy shuffles a
#: short list about twice as fast as an array, with the same draws
_LIST_WARPS = 32


class RoundOrder:
    """The order in which a launch's warps run each round, drawn from the
    scheduling ``rng`` as :meth:`~repro.simt.launcher.KernelLaunch.run`
    draws it: while more than one warp is active, each round shuffles the
    active warps (drawing what ``rng.permutation(len(active))`` would), and
    a warp leaves after its return round, the slot it returns in.

    :func:`run_lowered` knows every return round up front (``returns``) and
    draws a launch's rounds at once (:meth:`runs`). The update kernel's
    guard resolution learns them as it plays
    (:class:`~repro.core.update_schedule.UpdateSchedule`, on a copy of the
    rng): it draws rounds lazily (:meth:`positions`) and names each return
    round as it becomes known (:meth:`close`). That is exact: a warp not
    closed yet has events at or after the round being drawn, so it is
    active there."""

    def __init__(self, rng, n_warps: int, returns: np.ndarray | None = None) -> None:
        self.rng = rng
        #: each active warp is packed with its return round above its id, so
        #: one comparison drops the warps that leave after a round; a warp
        #: not closed yet has a round past any slot
        self.shift = max(n_warps.bit_length(), 1)
        self.mask = (1 << self.shift) - 1
        #: the rounds after which some warp leaves
        self.leaving = set() if returns is None else set(returns.tolist())
        if returns is None:
            returns = np.full(n_warps, 1 << (62 - self.shift))
        packed = (returns.astype(np.int64) << self.shift) | np.arange(n_warps)
        self.active = packed.tolist() if n_warps <= _LIST_WARPS else packed
        self.drawn = 0  # rounds drawn so far

    def close(self, warp: int, returns: int) -> None:
        """Warp ``warp`` returns in round ``returns``."""
        at = [w & self.mask for w in self.active].index(warp)
        self.active[at] = (returns << self.shift) | warp
        self.leaving.add(returns)

    def draw(self, rounds: int, out=None) -> int:
        """Draw rounds until ``rounds`` are drawn or at most one warp is
        active (no later round draws); each drawn round's running warps, in
        order and packed, go to ``out`` (a list, or an array when the warps
        are kept in one) back to back. Returns how many it wrote."""
        active, shift, rng, leaving = self.active, self.shift, self.rng, self.leaving
        r, pos, k = self.drawn, 0, len(active)
        few = isinstance(active, list)
        while r < rounds and rng is not None and k > 1:
            rng.shuffle(active)
            r += 1
            if r - 1 in leaving:
                bound = r << shift
                active = [w for w in active if w >= bound] if few else active[active >= bound]
                k = len(active)
            if out is not None:
                out[pos : pos + k] = active
                pos += k
        self.active, self.drawn = active, r
        return pos

    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every round's running warps, in execution order, back to back,
        and how many run in each round (every return round known)."""
        active = np.asarray(self.active, dtype=np.int64)
        running = active.size - np.cumsum(np.bincount(active >> self.shift, minlength=1))
        run = np.empty(int(running.sum()), dtype=np.int64)
        drawn = [] if isinstance(self.active, list) else run
        pos = self.draw(running.size, drawn)
        if drawn is not run:
            run[:pos] = drawn
        # the rounds that draw nothing run the active warps in their order,
        # each until it returns
        active = np.asarray(self.active, dtype=np.int64)
        later = (active >> self.shift)[None, :] > np.arange(self.drawn, running.size)[:, None]
        run[pos:] = np.broadcast_to(active, later.shape)[later]
        run &= self.mask
        return run, running

    def positions(self, r: int) -> dict[int, int]:
        """Each running warp's place in the order of round ``r``, drawing
        the rounds up to it."""
        self.draw(r + 1)
        return {w & self.mask: i for i, w in enumerate(self.active)}


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
    addrs = trace.addrs
    n_warps = trace.warps.size - 1
    lane_ops = np.diff(offsets)
    load = kinds == OP_LOAD
    n_load = int(np.count_nonzero(load))
    n_branch = int(np.count_nonzero(kinds == OP_BRANCH))
    mark_pos = np.flatnonzero(kinds == OP_MARK)
    mark_lane = np.searchsorted(offsets, mark_pos, side="right") - 1
    store = atomic = None
    n_store = n_atomic = 0
    if n_load + n_branch + mark_pos.size < kinds.size:  # not store-free
        store = kinds == OP_STORE
        atomic = kinds == OP_ATOMIC
        n_store = int(np.count_nonzero(store))
        n_atomic = int(np.count_nonzero(atomic))
    fail = trace.cas_fail
    n_fail = 0 if fail is None else int(np.count_nonzero(fail))
    if n_warps == lane_ops.size:
        # one lane per warp (a lone lane never waits at a barrier): every
        # slot is one op, so a slot's id is its op's index
        rounds = lane_ops
        slot_base = offsets[:-1]
        mark_sid = mark_pos
        c_issue = 1 * cpi + 0 * cpm + 0 * cpa
        c_mem = 1 * cpi + 1 * cpm + 0 * cpa
        # per kind code: Load, Branch, Mark, Store, Atomic
        cost = np.array([c_mem, c_issue, c_issue, c_mem, c_mem])[kinds]
        if n_fail:
            cost[fail] = 1 * cpi + 1 * cpm + 1 * cpa
        n_issued = int(kinds.size)
        n_trans = n_load + n_store + n_atomic
    else:
        lane_warp = np.repeat(np.arange(n_warps), np.diff(trace.warps))
        # a barrier-free warp returns in the slot after its longest lane's ops
        rounds = np.maximum.reduceat(lane_ops, trace.warps[:-1])
        shift = np.zeros(mark_pos.size, dtype=np.int64)
        if trace.iters.any():
            shift = _barrier_schedule(trace, mark_pos, mark_lane, rounds)
        # every (warp, slot) pair gets an id, warp-major; a lane's op ``k``
        # runs in slot ``k`` plus its request's barrier shift. Runs of ops
        # cut at each lane's start and after each Mark share one offset
        slot_base = np.cumsum(rounds) - rounds
        starts = np.union1d(offsets[:-1][lane_ops > 0], mark_pos + 1)
        starts = starts[starts < kinds.size]
        run_len = np.diff(np.append(starts, kinds.size))
        run_lane = np.searchsorted(offsets, starts, side="right") - 1
        offset = slot_base[lane_warp[run_lane]] - offsets[run_lane]
        last = starts + run_len - 1
        marked = kinds[last] == OP_MARK
        offset[marked] += shift[np.searchsorted(mark_pos, last[marked])]
        sid = np.repeat(offset.astype(np.int32), run_len)
        sid += np.arange(kinds.size, dtype=np.int32)
        n_sids = int(rounds.sum())
        mark_sid = sid[mark_pos]
        # per slot: issued op kinds and the distinct segments its loads and
        # (apart from them) its stores touch, plus one per atomic
        loads, trans = _segments_per_slot(sid[load], addrs[load], words_per_segment, n_sids)
        issue = (loads > 0).astype(np.int64)
        issue += np.bincount(sid[kinds == OP_BRANCH], minlength=n_sids) > 0
        issue += np.bincount(mark_sid, minlength=n_sids) > 0
        conflicts = 0
        if n_store:
            stores, store_trans = _segments_per_slot(sid[store], addrs[store],
                                                     words_per_segment, n_sids)
            issue += stores > 0
            trans += store_trans
        if n_atomic:
            atomics = np.bincount(sid[atomic], minlength=n_sids)
            issue += atomics > 0
            trans += atomics
            if n_fail:
                conflicts = np.bincount(sid[fail], minlength=n_sids)
        cost = issue * cpi + trans * cpm + conflicts * cpa
        n_issued = int(issue.sum())
        n_trans = int(trans.sum())
        counters.divergent_slots += n_issued - int(np.count_nonzero(issue))

    # the round loop: which warp runs a slot, in execution order
    warp, running = RoundOrder(rng, n_warps, rounds).runs()
    run_sid = slot_base[warp] + np.repeat(np.arange(running.size), running)

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
    steps_now = mark_pos - offsets[mark_lane] + 1
    base = np.zeros_like(steps_now)
    same = mark_lane[1:] == mark_lane[:-1]
    base[1:][same] = steps_now[:-1][same]
    counters.service_steps[ids] = steps_now - base

    counters.load_inst += n_load
    counters.store_inst += n_store
    counters.mem_inst += n_load + n_store
    counters.atomic_inst += n_atomic
    counters.atomic_transactions += n_atomic
    counters.atomic_conflicts += n_fail
    counters.transactions += n_trans
    counters.control_inst += n_branch
    counters.issued_slots += n_issued
    counters.cycles = max(sm_cycles) if sm_cycles else 0.0
