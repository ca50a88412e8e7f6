"""Guard resolution of a lowered split-free update kernel.

In an update launch that cannot split (see :mod:`repro.core.update_trace`)
a leaf transaction can fail only at its leaf's ``count`` word, so the
launch is fixed once every such word's events are played in the order the
reference interpreter runs them: by slot (a warp runs its slot ``r`` in
round ``r``), then by the warp's place in the round, then by lane. Per
attempt those events are the owner load (a read-write conflict if another
lane owns the word), the version load, the compare-and-swap (a write-write
conflict if owned), the commit validation (a conflict if the version moved
since the load), then the publish's version bump and release, or, after a
failed validation, the abort's release. A failed attempt is followed by a
traversal and a fresh attempt.

An attempt's record, and with it where its validation, publish and release
fall, is fixed by its leaf's row when it owns the ``count`` word. A leaf
with one writer in the launch, or whose writers all overwrite, keeps its
launch-time row. On a leaf with several writers of which one inserts, each
attempt derives its record at its compare-and-swap from the leaf's row as
the writers committed before it (:meth:`UpdateTemplates.derive`), and a
commit inserts its key into that row. A transaction publishes and releases
its other words after the ``count`` word in set order; a later owner of
the ``count`` word that would touch another word of the leaf before that
tail is done leaves the launch to the interpreter.

:class:`UpdateSchedule` plays a launch laid out by the launch's one
:class:`~repro.core.eirene.LaneLayout`, the layout its trace and, on the
interpreter, its iteration warps use:

* **By iteration.** Iterations run in order, every warp at once: an RG's
  walk decision reads the RF its predecessor's last lane loaded, and a
  retry lengthens that lane's steps, which may fire ``update_rf`` first.
  Lanes start an iteration by the barrier rule,
  :func:`repro.simt.lowered.barrier`. A lane alone on its leaf in its RG
  (its warp, without locality), on a leaf whose row no other writer
  changes, commits on its first attempt with its launch-time record; lanes
  sharing a leaf in one RG, and every lane of a leaf that takes inserts
  and several writers, are played, in lane order.
* **In round order.** That assumes warps never meet. Where two warps
  write one leaf in overlapping rounds, or two warps write one leaf that
  takes inserts, the launch is played again as one event loop over all
  warps, iteration starts included, ordering each round's events by the
  warp order the launch's scheduling rng will draw
  (:class:`~repro.simt.lowered.RoundOrder`, on a copy of the rng).

RF words are the one other thing warps could share: with the RF decision
on, a launch in which two warps load a rewritten RF for a later RG's
decision (:func:`~repro.core.locality.cross_warp_rf_hazard`, the rule the
query kernel uses too) is left to the interpreter, as is one in which a
lane would exceed ``MAX_RETRIES`` (the interpreter raises), and one whose
``update_rf`` reads a leaf whose first key an insert of the launch
changes. A warp's last RG loads its leaf's RF as well, but no decision
reads that load, so it makes no hazard.
"""

from __future__ import annotations

import copy
import heapq
from bisect import insort
from typing import NamedTuple

import numpy as np

from ..simt.lowered import RoundOrder, barrier
from .kernels import MAX_RETRIES
from .locality import cross_warp_rf_hazard
from .update_trace import OK, RW, VAL, WW, UpdateTemplates, write_order


class _Livelock(Exception):
    """A lane would exceed ``MAX_RETRIES``."""


class _Fallback(Exception):
    """The interpreter runs the launch: a walk ended off its key's leaf, or
    a transaction would touch a word another one has yet to release."""


class Shape(NamedTuple):
    """An attempt's record: its id (a launch-time record's is its request's
    index) and its offsets, as :class:`UpdateTemplates` names them."""

    rec: int
    v0: int
    p: int
    k: int
    bump: int
    release: int
    abort_release: int


class Lane(NamedTuple):
    """One request as its ``count``-word events see it: where it runs, the
    leaf it writes, its key and whether it inserts it, the slot it starts
    in, its traversal lengths (the first one, then before a retry the
    descent, or the STM-protected one from retry ``threshold`` on), the
    offset of its ``count`` owner load, its launch-time record, and whether
    it derives its record at each compare-and-swap (``derives``)."""

    warp: int
    lane: int  # within the warp
    leaf: int
    key: int
    insert: bool
    start: int
    first_len: int
    desc_len: int
    sdesc_len: int
    pre: int
    shape: Shape
    derives: bool


#: events of a transaction on its leaf's ``count`` word, and a scheduled
#: callback (an iteration start)
_G1, _VER, _CAS, _G3, _BUMP, _REL, _CALL = range(7)


class CountWordPlay:
    """An event loop over ``count``-word events (see the module docstring)
    and scheduled callbacks. Lanes join with :meth:`add`; when a lane's
    attempt starting at slot ``a`` commits, ``on_commit(j, a, shape)`` is
    called. Within a slot, events run by lane unless two warps meet at one
    leaf, then by ``order``'s place of their warps.

    A lane that derives its records gets each from ``tpl.derive`` on its
    leaf's row in ``rows``, which its commit updates, and notes in
    ``records[j]`` per attempt ``(record, ops run, abort start, abort
    length)`` (-1: as the outcome says). Its transactions' releases of the
    leaf's other words are kept per word (``pending``): an attempt that
    owns the ``count`` word while one is still due fails where it reads
    (``RW``) or compare-and-swaps (``WW``) a word still owned, as the
    interpreter has it. A word's version bump precedes its release, so an
    attempt that finds a word free loads its bumped version."""

    def __init__(self, threshold: int, on_commit, order: RoundOrder | None,
                 tpl: UpdateTemplates, rows: dict[int, list[int]]) -> None:
        self.threshold = threshold
        self.on_commit = on_commit
        self.order = order
        self.tpl = tpl
        self.rows = rows
        self.heap: list[tuple] = []
        self.lanes: dict[int, Lane] = {}
        self.att: dict[int, int] = {}  # each lane's running transaction start
        self.seen: dict[int, int] = {}  # the word's version each lane loaded
        self.shape: dict[int, Shape] = {}  # each lane's running record
        self.fails: dict[int, list[int]] = {}
        self.records: dict[int, list[tuple[int, int, int, int]]] = {}
        self.owner: dict[int, int] = {}  # leaf -> the lane owning its count word
        self.version: dict[int, int] = {}  # leaf -> version bumps so far
        #: leaf -> word -> (release slot, warp, lane) of the last deriving
        #: transaction that wrote it, and leaf -> the latest of those slots
        self.pending: dict[int, dict[int, tuple[int, int, int]]] = {}
        self.tail: dict[int, int] = {}

    def add(self, j: int, lane: Lane) -> None:
        self.lanes[j] = lane
        self.fails[j] = []
        if lane.derives:
            self.records[j] = []
        self.att[j] = lane.start + lane.first_len + 1
        heapq.heappush(self.heap, (self.att[j] + lane.pre, lane.warp, lane.lane, j, _G1))

    def call(self, slot: int, warp: int, fn) -> None:
        heapq.heappush(self.heap, (slot, warp, -1, id(fn), _CALL, fn))

    def _retry(self, j: int, code: int, free: int, note=None) -> None:
        f = self.fails[j]
        f.append(code)
        if len(f) > MAX_RETRIES:
            raise _Livelock
        ln = self.lanes[j]
        if ln.derives:
            self.records[j].append(note or (j, -1, -1, -1))
        self.att[j] = a = free + (ln.desc_len if len(f) < self.threshold else ln.sdesc_len) + 1
        heapq.heappush(self.heap, (a + ln.pre, ln.warp, ln.lane, j, _G1))

    def _releases(self, ln: Lane, words: list[int], at: int, step: int) -> None:
        """A deriving lane's transaction releases ``words`` in slots ``at``,
        ``at + step``, ..."""
        pending = self.pending.setdefault(ln.leaf, {})
        for m, w in enumerate(words):
            pending[w] = (at + step * m, ln.warp, ln.lane)
        self.tail[ln.leaf] = at + step * (len(words) - 1)

    def _first(self, ln: Lane, warp: int, lane: int) -> bool:
        """Whether lane ``ln`` runs before ``(warp, lane)`` in a slot they
        share. Only the ``count`` word's events are ordered between warps,
        so a tie between two warps leaves the launch to the interpreter."""
        if warp != ln.warp:
            raise _Fallback
        return ln.lane < lane

    def _meet(self, j: int, ln: Lane, a: int, sh: Shape):
        """Where the attempt of lane ``j`` starting at slot ``a`` first
        reaches a word of its leaf still owned by an earlier transaction:
        ``(RW or WW, offset, the words it wrote so far)``, or ``None``."""
        pending = self.pending[ln.leaf]
        written = [int(self.tpl.count_addr[j])]
        for off, what, w in self.tpl.accesses(sh.rec):
            if what == OK:
                written.append(w)
                continue
            e = pending.get(w)
            if e is not None and (a + off < e[0] or (a + off == e[0]
                                                    and self._first(ln, e[1], e[2]))):
                return what, off, written
        return None

    def run(self) -> None:
        heap, pop, push = self.heap, heapq.heappop, heapq.heappush
        lanes, att, seen, owner, version, shapes = (
            self.lanes, self.att, self.seen, self.owner, self.version, self.shape
        )
        while heap:
            slot = heap[0][0]
            batch = [pop(heap)]
            while heap and heap[0][0] == slot:
                batch.append(pop(heap))
            if self.order is not None and len(batch) > 1:
                warps_at: dict[int, set[int]] = {}
                for e in batch:
                    if e[4] != _CALL:
                        warps_at.setdefault(lanes[e[3]].leaf, set()).add(e[1])
                if any(len(w) > 1 for w in warps_at.values()):
                    at = self.order.positions(slot)
                    batch.sort(key=lambda e: (at[e[1]], e[2]))
            for e in batch:
                _, warp, lane, j, ev = e[:5]
                if ev == _CALL:
                    e[5]()
                    continue
                ln = lanes[j]
                leaf = ln.leaf
                if ev == _G1:
                    if leaf in owner:
                        self._retry(j, RW, slot + 2)
                    else:
                        push(heap, (slot + 2, warp, lane, j, _VER))
                elif ev == _VER:
                    seen[j] = version.get(leaf, 0)
                    push(heap, (slot + 3, warp, lane, j, _CAS))
                elif ev == _CAS:
                    if leaf in owner:
                        self._retry(j, WW, slot + 2)
                        continue
                    owner[leaf] = j
                    a = att[j]
                    sh = ln.shape
                    if ln.derives:
                        sh = Shape._make(self.tpl.derive(j, self.rows[leaf]))
                        # its first other word of the leaf comes 4 slots on
                        met = None
                        if a + ln.pre + 9 <= self.tail.get(leaf, -1):
                            met = self._meet(j, ln, a, sh)
                        if met is not None:
                            code, off, written = met
                            start, length = self.tpl.add_abort(written)
                            ab = a + off + 2  # after the failed op and its branch
                            words = write_order(written)
                            push(heap, (ab + len(written) + words.index(written[0]),
                                        warp, lane, j, _REL))
                            self._releases(ln, words, ab + len(written), 1)
                            self._retry(j, code, ab + 2 * len(written),
                                        (sh.rec, 1 + off + 2, start, length))
                            continue
                    shapes[j] = sh
                    push(heap, (a + sh.v0 + 2, warp, lane, j, _G3))
                elif ev == _G3:
                    a, sh = att[j], shapes[j]
                    if version.get(leaf, 0) != seen[j]:
                        push(heap, (a + sh.abort_release, warp, lane, j, _REL))
                        if ln.derives:
                            self._releases(ln, self.tpl.writes_of(sh.rec),
                                           a + sh.v0 + 4 + sh.k, 1)
                        self._retry(j, VAL, a + sh.v0 + 4 + 2 * sh.k, (sh.rec, -1, -1, -1))
                    else:
                        push(heap, (a + sh.bump, warp, lane, j, _BUMP))
                        push(heap, (a + sh.release, warp, lane, j, _REL))
                        if ln.derives:
                            self.records[j].append((sh.rec, -1, -1, -1))
                            self._releases(ln, self.tpl.writes_of(sh.rec), a + sh.p + 1, 2)
                            if ln.insert:
                                insort(self.rows[leaf], ln.key)
                        self.on_commit(j, a, sh)
                elif ev == _BUMP:
                    version[leaf] = version.get(leaf, 0) + 1
                else:
                    del owner[leaf]


def overlapping_leaves(leaves: np.ndarray, warps: np.ndarray, first: np.ndarray,
                       last: np.ndarray) -> bool:
    """Whether two warps touch one leaf's ``count`` word in overlapping slot
    windows (request ``q`` of warp ``warps[q]`` touches its leaf's word
    from slot ``first[q]`` to ``last[q]``)."""
    order = np.lexsort((warps, leaves))
    leaf, warp = leaves[order], warps[order]
    pair = np.ones(leaf.size, dtype=bool)
    pair[1:] = (leaf[1:] != leaf[:-1]) | (warp[1:] != warp[:-1])
    heads = np.flatnonzero(pair)
    pair_leaf = leaf[heads]
    lo = np.minimum.reduceat(first[order], heads)
    hi = np.maximum.reduceat(last[order], heads)
    for x in np.unique(pair_leaf[1:][pair_leaf[1:] == pair_leaf[:-1]]).tolist():
        same = np.flatnonzero(pair_leaf == x)
        spans = sorted(zip(lo[same].tolist(), hi[same].tolist()))
        if any(b[0] <= a[1] for a, b in zip(spans, spans[1:])):
            return True
    return False


class UpdateSchedule:
    """The played schedule of a split-free update launch (see the module
    docstring). After :meth:`play` returns True it holds, per request:
    ``horizontal`` (its first traversal walks), ``first_len`` and
    ``first_steps`` (that traversal's ops and steps), ``rg_last``,
    ``n_ops`` (its ops, ``Mark`` included), ``fails`` (its failed attempts'
    outcomes, when it has any), ``records`` (each attempt's record, for a
    request that derives them), ``n_fails``, ``stm_descents`` and
    ``steps``; and the ``update_rf`` calls in ``rf_calls``."""

    def __init__(self, tree, tpl: UpdateTemplates, lay, threshold: int,
                 enable_rf: bool, rng) -> None:
        self.tree = tree
        self.tpl = tpl
        self.lay = lay
        self.threshold = threshold
        self.enable_rf = enable_rf
        self.rng = rng
        n = int(tpl.keys.size)
        self.rg_last = np.zeros(n, dtype=bool)
        if lay.iplan is not None:
            self.rg_last[lay.iplan.rg_end - 1] = True
        self.final = np.where(self.rg_last, 2, 1)  # Load rf and Mark, or the Mark
        self.lane_warp = np.repeat(np.arange(lay.n_warps), np.diff(lay.warp_lanes))
        # leaves whose row changes under a later writer: an insert and
        # another writer; those written by two warps are played in round
        # order
        self.derives = np.zeros(n, dtype=bool)
        self.warps_meet = False
        if not tpl.hit.all():
            leaf_ids, leaf_of, writers = np.unique(tpl.leaves, return_inverse=True,
                                                   return_counts=True)
            inserts = np.bincount(leaf_of[~tpl.hit], minlength=leaf_ids.size)
            self.derives = ((writers > 1) & (inserts > 0))[leaf_of]
            pairs = np.unique(np.stack([tpl.leaves[self.derives], lay.warp[self.derives]]),
                              axis=1)
            self.warps_meet = bool(np.any(pairs[0][1:] == pairs[0][:-1]))

    def _reset(self) -> None:
        tpl = self.tpl
        n = int(tpl.keys.size)
        self.first_len = tpl.desc_len.copy() if self.threshold > 0 else tpl.sdesc_len.copy()
        self.first_steps = tpl.desc_steps.copy()
        self.horizontal = np.zeros(n, dtype=bool)
        self.start = np.zeros(n, dtype=np.int64)
        self.n_ops = np.zeros(n, dtype=np.int64)
        self.n_fails = np.zeros(n, dtype=np.int64)
        self.fails: dict[int, list[int]] = {}
        self.records: dict[int, list[tuple[int, int, int, int]]] = {}
        self.release = np.zeros(self.lane_warp.size, dtype=np.int64)
        self.rf_seen: dict[int, int] = {}  # RF words as the warps see them
        self.rf_calls: list[tuple[int, int]] = []
        if self.lay.iplan is not None:
            self.rg_rf = np.zeros(self.lay.iplan.n_rgs, dtype=np.int64)
        views = self.tree.views
        self.rows = {leaf: views.host(leaf).keys[:views.host(leaf).count].tolist()
                     for leaf in np.unique(tpl.leaves[self.derives]).tolist()}

    def play(self) -> bool:
        """Play the launch; False when the interpreter must run it."""
        try:
            self._by_iteration()
            if self.warps_meet or overlapping_leaves(self.tpl.leaves, self.lay.warp,
                                                     self.touch_first, self.touch_last):
                self._in_round_order()
        except (_Livelock, _Fallback):
            return False
        iplan = self.lay.iplan
        if self.enable_rf and self.rf_calls and cross_warp_rf_hazard(
            iplan, self.tpl.leaves[iplan.rg_end - 1], [leaf for leaf, _ in self.rf_calls]
        ):
            return False
        if self.rf_calls and self._rf_reads_an_insert():
            return False
        self.steps = self.first_steps + self.n_fails * self.tpl.desc_steps
        # attempt r descends STM-protected from r = threshold on, unless it
        # is a first walk
        no_stm = np.maximum(self.threshold, self.horizontal.astype(np.int64))
        self.stm_descents = np.maximum(self.n_fails + 1 - no_stm, 0)
        return True

    def _rf_reads_an_insert(self) -> bool:
        """Whether an ``update_rf`` of the launch reads the first key of a
        leaf that an insert of the launch gives a new first key (when it
        reads it depends on the interleaving)."""
        tpl = self.tpl
        firsts = tpl.leaves[~tpl.hit & (tpl.pos == 0)]
        return bool(firsts.size) and bool(np.isin(
            [self.tree.rf_source(leaf) for leaf, _ in self.rf_calls], firsts).any())

    def stm_stats(self) -> dict[str, int]:
        """The :class:`~repro.stm.StmStats` increments of the launch: a
        transaction per attempt and per STM-protected descent, each descent
        and each request committing once."""
        descents = int(self.stm_descents.sum())
        codes = np.bincount([c for f in self.fails.values() for c in f], minlength=4)
        return {
            "begins": int(self.n_fails.sum()) + self.n_fails.size + descents,
            "commits": self.n_fails.size + descents,
            "aborts": int(self.n_fails.sum()),
            "conflicts_rw": int(codes[RW]),
            "conflicts_ww": int(codes[WW]),
            "conflicts_validation": int(codes[VAL]),
        }

    # ------------------------------------------------------------------ #
    def _lanes(self, reqs: np.ndarray) -> list[Lane]:
        tpl, lay = self.tpl, self.lay
        shapes = [Shape._make(row) for row in zip(
            reqs.tolist(), tpl.v0[reqs].tolist(), tpl.p[reqs].tolist(),
            tpl.n_writes[reqs].tolist(), tpl.bump[reqs].tolist(), tpl.release[reqs].tolist(),
            tpl.abort_release[reqs].tolist(),
        )]
        return [Lane._make(row) for row in zip(
            lay.warp[reqs].tolist(), (lay.lane[reqs] - lay.warp_lanes[lay.warp[reqs]]).tolist(),
            tpl.leaves[reqs].tolist(), tpl.keys[reqs].tolist(), (~tpl.hit[reqs]).tolist(),
            self.start[reqs].tolist(), self.first_len[reqs].tolist(),
            tpl.desc_len[reqs].tolist(), tpl.sdesc_len[reqs].tolist(), tpl.pre[reqs].tolist(),
            shapes, self.derives[reqs].tolist(),
        )]

    def _commit(self, reqs, end) -> None:
        """Requests ``reqs`` committed, ending their transactions before
        slot ``end``."""
        self.n_ops[reqs] = end - self.start[reqs] + self.final[reqs]

    def _play_fails(self, play: CountWordPlay) -> None:
        for q, f in play.fails.items():
            if f:
                self.fails[q] = f
            self.n_fails[q] = len(f)
        self.records.update(play.records)

    def _begin(self, rgs: np.ndarray, it: int, reqs: np.ndarray) -> np.ndarray:
        """Start iteration ``it`` of the RGs ``rgs`` (requests ``reqs``):
        walk from the buffered leaf where the RG's decision says so, and
        note each request as committing on its first attempt. Returns where
        their transactions start."""
        lay, tpl = self.lay, self.tpl
        iplan = lay.iplan
        self.start[reqs] = self.release[lay.lane[reqs]]
        if iplan is not None and it > 0:
            go = np.ones(rgs.size, dtype=bool)
            if self.enable_rf:
                go = tpl.keys[iplan.rg_end[rgs] - 1] <= self.rg_rf[rgs - 1]
            walkers = reqs[go[np.searchsorted(rgs, lay.rg[reqs])]]
            if walkers.size:
                buffered = tpl.leaves[iplan.rg_end[lay.rg[walkers] - 1] - 1]
                walked, steps = tpl.add_walks(walkers, buffered)
                if not np.array_equal(walked, tpl.leaves[walkers]):
                    raise _Fallback
                self.horizontal[walkers] = True
                self.first_len[walkers] = tpl.walk_len[walkers]
                self.first_steps[walkers] = steps
        att = self.start[reqs] + self.first_len[reqs] + 1
        self._commit(reqs, att + tpl.p[reqs] + 2 * tpl.n_writes[reqs])
        return att

    def _finish(self, rgs: np.ndarray, it: int, reqs: np.ndarray) -> np.ndarray:
        """End iteration ``it`` of the RGs ``rgs`` of iteration warps
        (requests ``reqs``, every one committed): the RG-last lanes'
        ``update_rf`` and RF loads, then the barrier. Returns each of their
        warps' return slot (-1 while it has iterations left)."""
        lay, tpl, tree = self.lay, self.tpl, self.tree
        iplan = lay.iplan
        data = tree.arena.data
        for rg, q in zip(rgs.tolist(), (iplan.rg_end[rgs] - 1).tolist()):
            steps = int(self.first_steps[q] + self.n_fails[q] * tpl.desc_steps[q])
            if self.horizontal[q] and steps > tree.height:
                buffered = int(tpl.leaves[iplan.rg_end[rg - 1] - 1])
                self.rf_calls.append((buffered, steps))
                rf = tree.updated_rf(buffered)
                if rf is not None:
                    self.rf_seen[buffered] = rf
            leaf = int(tpl.leaves[q])
            self.rg_rf[rg] = self.rf_seen.get(leaf, int(data[tree.views.addrs(leaf).rf]))
        warps = lay.rg_warp[rgs]
        arrive = self.release.copy()
        arrive[lay.lane[reqs]] = self.start[reqs] + self.n_ops[reqs]
        release, returns = barrier(arrive, lay.warp_lanes)
        self.release = np.where(np.isin(self.lane_warp, warps), release, self.release)
        return np.where(lay.iters[warps] == it + 1, returns[warps], -1)

    # ------------------------------------------------------------------ #
    def _by_iteration(self) -> None:
        """Every warp's iteration ``it`` at once, warps assumed apart; notes
        each request's window on its ``count`` word."""
        self._reset()
        lay, tpl = self.lay, self.tpl
        n = int(tpl.keys.size)
        self.touch_first = np.zeros(n, dtype=np.int64)
        self.touch_last = np.zeros(n, dtype=np.int64)
        for it in range(max(int(lay.iters.max()), 1)):
            reqs = np.flatnonzero(lay.it == it)
            rgs = None
            if lay.iplan is not None:
                rgs = lay.iplan.warp_offsets[:-1][lay.iters > it] + it
            att = self._begin(rgs, it, reqs)
            self.touch_first[reqs] = att + tpl.pre[reqs]
            self.touch_last[reqs] = att + tpl.release[reqs]
            # lanes writing one leaf in one RG (one warp) are adjacent in
            # key order: each such group, and each lane that derives its
            # records, is played
            warp, leaf = lay.warp[reqs], tpl.leaves[reqs]
            head = np.ones(reqs.size, dtype=bool)
            head[1:] = (warp[1:] != warp[:-1]) | (leaf[1:] != leaf[:-1])
            g0 = np.flatnonzero(head)
            g1 = np.append(g0[1:], reqs.size)
            played = (g1 - g0 > 1) | self.derives[reqs[g0]]
            size = (g1 - g0)[played]
            group_of = np.repeat(np.arange(size.size), size)
            members = reqs[np.repeat(g0[played] - (np.cumsum(size) - size), size)
                           + np.arange(int(size.sum()))]
            plays = [CountWordPlay(self.threshold, self._commit_touching, None, tpl, self.rows)
                     for _ in range(size.size)]
            for g, q, ln in zip(group_of.tolist(), members.tolist(), self._lanes(members)):
                plays[g].add(q, ln)
            for play in plays:
                play.run()
                self._play_fails(play)
            if lay.iplan is not None:
                self._finish(rgs, it, reqs)

    def _commit_touching(self, q: int, a: int, sh: Shape) -> None:
        self._commit(q, a + sh.p + 2 * sh.k)
        self.touch_last[q] = a + sh.release

    def _in_round_order(self) -> None:
        """The whole launch as one event loop: each warp's iterations start
        when its barrier opens, and every lane whose leaf another lane of
        its RG, or another warp, writes is played in the launch's round
        order, as is every lane that derives its records."""
        self._reset()
        lay, tpl = self.lay, self.tpl
        n_warps = lay.n_warps
        order = RoundOrder(copy.deepcopy(self.rng), n_warps)
        leaves = tpl.leaves
        # leaves written by more than one warp
        pairs = np.unique(np.stack([leaves, lay.warp]), axis=1)
        leaf_ids, counts = np.unique(pairs[0], return_counts=True)
        met = leaf_ids[counts > 1]
        iplan = lay.iplan
        pending = {}  # warp -> requests of its running iteration still open
        current = {}  # warp -> (rg or None, it, requests)

        def begin(w: int, it: int) -> None:
            if iplan is None:
                reqs = np.flatnonzero(lay.warp == w)
                rgs = None
            else:
                rg = int(iplan.warp_offsets[w]) + it
                reqs = np.arange(iplan.rg_start[rg], iplan.rg_end[rg])
                rgs = np.array([rg])
            self._begin(rgs, it, reqs)
            leaf = leaves[reqs]
            shared = self.derives[reqs] | np.isin(leaf, met)
            same = leaf[1:] == leaf[:-1]
            shared[1:] |= same
            shared[:-1] |= same
            played = reqs[shared]
            pending[w] = set(played.tolist())
            current[w] = (rgs, it, reqs)
            for q, ln in zip(played.tolist(), self._lanes(played)):
                play.add(q, ln)
            if not pending[w]:
                close(w)

        def commit(q: int, a: int, sh: Shape) -> None:
            self._commit(q, a + sh.p + 2 * sh.k)
            w = int(lay.warp[q])
            pending[w].discard(q)
            if not pending[w]:
                close(w)

        def close(w: int) -> None:
            rgs, it, reqs = current[w]
            if iplan is None:
                # one request per lane, no barrier: the warp returns after
                # its longest lane
                order.close(w, int(self.n_ops[reqs].max()))
                return
            returns = self._finish(rgs, it, reqs)
            if returns[0] >= 0:
                order.close(w, int(returns[0]))
            else:
                play.call(int(self.release[lay.warp_lanes[w]:lay.warp_lanes[w + 1]].min()),
                          w, lambda: begin(w, it + 1))

        play = CountWordPlay(self.threshold, commit, order, tpl, self.rows)
        for w in range(n_warps):
            play.call(0, w, lambda w=w: begin(w, 0))
        play.run()
        self._play_fails(play)
