"""Straight-line op templates of Eirene's split-free update program.

In an update kernel where no request can split a leaf (no leaf receives
more absent-key inserts than it has free slots, and no request deletes), a
lane of :func:`~repro.core.kernels.d_update` runs a short list of pieces:

* a **traversal**: the unprotected descent (``d_find_leaf``), the
  horizontal walk from a buffered leaf (``d_walk_leaves``) or the
  STM-protected descent (``d_find_leaf_stm`` and its commit), each fixed at
  launch time;
* a **leaf record**: ``Load version``, the leaf-region transaction of
  ``_d_attempt_leaf_op`` (``d_read(version)``, ``d_leaf_covers``,
  ``d_read``/``d_write(count)`` and ``d_leaf_upsert_stm``'s body), the
  commit's validation loads, the commit's publish, the abort's stores, the
  RG-last lane's ``Load rf`` and the ``Mark``.

A record is fixed by the leaf, the leaf's ``count`` and the request key's
slot ``pos`` in the leaf's row when the transaction owns the ``count``
word. An overwrite of a present key reads ``keys[0..pos]`` and writes
``values[pos]``. An absent-key insert reads the keys up to ``pos``, takes
the ``cnt >= fanout`` branch, and shifts ``keys``/``values[pos..cnt)`` one
slot right, one ``d_read``/``d_read``/``d_write``/``d_write`` group per
entry from the top down (a word's first ``d_read`` loads its version, a
later one does not; a word's first ``d_write`` takes its compare-and-swap
and its undo load). It then writes ``keys[pos]``, ``values[pos]`` and
``count``. Every writer owns ``count`` before it touches another word of
the leaf, so the guards stay at that word.

``d_commit`` validates ``tx.read_versions`` in insertion order, then
publishes ``tx.writes``, a ``set``, in that set's iteration order;
``d_abort`` replays ``tx.undo_log`` in insertion order and releases in set
order. :func:`write_order` builds the set as the transaction does and
reads the order off it.

:class:`UpdateTemplates` lays every piece out once, op by op with its
address, in numpy; a lane's stream is a run of slices of that store. The
launch-time record of each request is laid out, plus any record
:meth:`UpdateTemplates.derive` registered for a later row of a leaf that
takes several writers. An attempt whose guard fails runs a prefix of its
record (a failed owner load or compare-and-swap on the ``count`` word ends
it, and that prefix is the same for every row) or, for a failed
validation, the record up to the ``count`` word's validation load and then
the abort stores. Which pieces a lane runs is decided by the caller
(:class:`~repro.core.update_schedule.UpdateSchedule`), which resolves the
guards.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .._types import NO_NODE, NULL_VALUE
from ..btree.layout import OFF_COUNT, OFF_FENCE, OFF_KEYS, OFF_NEXT, OFF_RF, OFF_VERSION
from ..btree.traversal import _descend, _runs, _Tokens, _walk
from ..btree.tree import BPlusTree
from ..errors import SimulationError
from ..simt.lowered import (
    OP_BRANCH, OP_MARK, PATTERN_LEN, TOK_BRANCH, TOK_CHECK, TOK_LOAD, TOK_MARK, TOK_PUBLISH,
    TOK_READ, TOK_RELEASE, TOK_REREAD, TOK_REWRITE, TOK_UNDO, TOK_VALIDATE, TOK_WRITE, OpTrace,
    expand,
)
from ..stm import FREE, StmRegion

#: attempt outcomes: committed, then the three guards on the leaf's
#: ``count`` word — its owner load (read-write conflict), its
#: compare-and-swap (write-write conflict) and its commit-time validation
OK, RW, WW, VAL = 0, 1, 2, 3

#: op counts of the record's tokens (:data:`~repro.simt.lowered.PATTERNS`)
_LD, _BR, _RD, _RE, _WR, _WO, _VAL, _PUB = PATTERN_LEN[[
    TOK_LOAD, TOK_BRANCH, TOK_READ, TOK_REREAD, TOK_WRITE, TOK_REWRITE, TOK_VALIDATE, TOK_PUBLISH
]].tolist()


def write_order(written: list[int]) -> list[int]:
    """``tx.writes`` in iteration order for a transaction that wrote
    ``written``, in write order: the set built as the transaction builds
    it (``set`` adds a list's items one by one, as ``d_write`` does)."""
    return list(set(written))


def record_offsets(pre, cnt, pos, hit, c_at=0):
    """A record's offsets within its transaction (plain integers or arrays):
    ``v0`` (the commit's validation loads; the ``count`` word's is 2 ops
    later), ``p`` (the publish), ``k`` (the words written), and, with the
    ``count`` word at place ``c_at`` of :func:`write_order`, its version
    bump and release in the publish and its release after a failed
    validation. A committed attempt runs ``p + 2k`` ops, a failed
    validation ``v0 + 4 + 2k``."""
    ins = 1 - hit
    nscan = pos + 1 - ins * (pos >= cnt)  # keys read before the slot is found
    shifted = ins * (cnt - pos)
    moves = shifted > 0  # the shift loop re-reads keys[pos]
    k = 2 + ins * (2 * shifted + 1)
    n_read = hit * (pos + 4) + ins * (2 + nscan + 2 * shifted - moves)
    # d_read/d_write(count), the key scan, then an overwrite's d_read and
    # d_write of its value and the branch, or an insert's fanout branch,
    # shift loop, writes of keys[pos], values[pos] and count and the branch
    v0 = (pre + _RD + _WR + nscan * (_RD + _BR) + hit * (_RD + _WR + _BR)
          + ins * (_BR + shifted * 2 * (_RD + _WR) - moves * (_RD - _RE) + 2 * _WR + _WO + _BR))
    p = v0 + _VAL * n_read
    bump = p + _PUB * c_at
    return v0, p, k, bump, bump + 1, v0 + 2 * _VAL + k + c_at


class UpdateTemplates:
    """Every piece of a split-free update launch's lane streams.

    Built for the launch's issued keys (strictly increasing), it traces
    each key's unprotected descent and finds its leaf, the leaf's ``count``
    and the key's slot ``pos``, and whether the key is present (``hit``);
    ``valid`` says whether the key lies inside the leaf's fence range with
    every owner word of the leaf free, the conditions under which the leaf
    transaction can fail only at its ``count`` word. Per request it then
    holds the offsets of its launch-time record:

    * ``pre``: the offset, within its transaction, of the owner load of
      the ``count`` word (its version load is 2 ops later, the
      compare-and-swap 5);
    * ``v0``, ``p``, ``n_writes``: see :func:`record_offsets`;
    * the offsets of the ``count`` word's version bump (``bump``) and
      release (``release``) in the publish, and of its release after a
      failed validation (``abort_release``), from its place in
      :func:`write_order` (``c_first``: it comes first).

    Lengths of the traversals are ``desc_len`` (and ``desc_steps``),
    ``sdesc_len`` and, once :meth:`add_walks` traced them, ``walk_len``.
    """

    def __init__(self, tree: BPlusTree, region: StmRegion, keys: np.ndarray) -> None:
        self.tree = tree
        keys = np.asarray(keys, dtype=np.int64)
        self.keys = keys
        n = int(keys.size)
        lay = tree.layout
        data = tree.arena.data
        self._kinds: list[np.ndarray] = []
        self._addrs: list[np.ndarray] = []
        self._rel: list[np.ndarray] = []  # ops whose address is leaf-relative
        self._size = 0
        #: the store keeps addresses in 32 bits when the arena allows
        self._addr_dtype = np.int32 if data.size <= np.iinfo(np.int32).max else np.int64

        #: distances from a word to its owner and version entries and its value
        self._shifts = (region.owner_base - region.data_base,
                        region.version_base - region.data_base, lay.payload_off - OFF_KEYS)

        tokens = _Tokens(n)
        self.leaves, self.desc_steps = _descend(tree, keys, np.arange(n), tokens)
        # the descents' tokens are kept for add_stm_descents
        bounds, types, words = self._desc = tokens.sorted()
        kinds, addrs, ends = expand(types, words, self._shifts)
        offsets = np.concatenate(([0], ends))[bounds]
        self.desc_start = self._add(kinds, addrs) + offsets[:-1]
        self.desc_len = np.diff(offsets)
        # d_find_leaf_stm: a d_read per token, a check's branch, and the
        # commit's validation per word read
        stm_len = _RD + _VAL + _BR * (types == TOK_CHECK)
        self.sdesc_len = np.diff(np.concatenate(([0], np.cumsum(stm_len)))[bounds])
        self.sdesc_start = np.full(n, -1, dtype=np.int64)
        self.walk_start = np.full(n, -1, dtype=np.int64)
        self.walk_len = np.zeros(n, dtype=np.int64)

        # the leaf: its row, the key's slot, the fences and the owner words
        base = tree.views.node_bases(self.leaves)
        self.base = base
        rows = data[base[:, None] + OFF_KEYS + np.arange(lay.fanout)]
        self.count = count = data[base + OFF_COUNT]
        # unused slots hold EMPTY_KEY, above every key
        pos = np.count_nonzero(rows < keys[:, None], axis=1)
        self.hit = (pos < count) & (rows[np.arange(n), np.minimum(pos, lay.fanout - 1)] == keys)
        nxt = data[base + OFF_NEXT]
        self.has_next = nxt != NO_NODE
        in_tree = (nxt >= 0) & (nxt < tree.max_nodes)
        self.next_base = tree.views.node_bases(np.where(in_tree, nxt, 0))
        owners = data[region.owner_base + (base[:, None] - region.data_base)
                      + np.arange(lay.node_words)]
        self.valid = (
            (data[base + OFF_FENCE] <= keys)
            & (~self.has_next | (in_tree & (data[self.next_base + OFF_FENCE] > keys)))
            & np.all(owners == FREE, axis=1)
        )
        self.pos = pos
        self.count_addr = base + OFF_COUNT
        self.value_addr = base + lay.payload_off + pos
        self.old_values = np.where(self.hit, data[np.where(self.hit, self.value_addr, 0)],
                                   NULL_VALUE)
        # Load version, then d_read(version), the fence and next checks (and
        # the next leaf's fence) and the covers branch
        self.pre = _RD + 2 * (_LD + _BR) + _BR + (_LD + _BR) * self.has_next
        #: every record: the request it belongs to, its leaf's count and
        #: the key's slot; the first ``n`` are the launch-time records
        self._recs: list[tuple[int, int, int]] = []
        self._rec_ids: dict[tuple[int, int, int], int] = {}
        self._accesses: dict[int, list[tuple[int, int, int]]] = {}
        # an overwrite's set: {count, value} (the literal adds them in that
        # order)
        self._orders = [list({c, v}) for c, v in zip(self.count_addr.tolist(),
                                                      self.value_addr.tolist())]
        for q in np.flatnonzero(~self.hit).tolist():
            self._orders[q] = self._order(q, int(count[q]), int(pos[q]))
        c_at = np.fromiter((o.index(c) for o, c in zip(self._orders, self.count_addr.tolist())),
                           dtype=np.int64, count=n)
        self.c_first = c_at == 0
        (self.v0, self.p, self.n_writes, self.bump, self.release, self.abort_release
         ) = record_offsets(self.pre, count, pos, self.hit.astype(np.int64), c_at)
        #: where each record starts in the store (set by :meth:`add_records`)
        self.record_start = np.zeros(n, dtype=np.int64)

    # ------------------------------------------------------------------ #
    def _add(self, kinds: np.ndarray, addrs: np.ndarray, rel: np.ndarray | None = None) -> int:
        """Append ops to the store, their addresses relative to a leaf's
        base where ``rel`` says so; returns where they start."""
        start = self._size
        self._kinds.append(kinds)
        self._addrs.append(addrs.astype(self._addr_dtype))
        self._rel.append(np.zeros(kinds.size, dtype=np.int8) if rel is None
                         else rel.astype(np.int8))
        self._size += int(kinds.size)
        return start

    def _order(self, q: int, cnt: int, pos: int) -> list[int]:
        """Request ``q``'s set order on a row of ``cnt`` keys with its slot
        at ``pos``: it writes ``count``, then ``values[pos]`` (an
        overwrite) or ``keys[j]``, ``values[j]`` for ``j`` from ``cnt``
        down to ``pos`` (an insert)."""
        base = int(self.base[q])
        key0, value0 = base + OFF_KEYS, base + self.tree.layout.payload_off
        if self.hit[q]:
            return write_order([base + OFF_COUNT, value0 + pos])
        return write_order([base + OFF_COUNT] + [w for j in range(cnt, pos - 1, -1)
                                                 for w in (key0 + j, value0 + j)])

    def derive(self, q: int, row: list[int]) -> tuple[int, int, int, int, int, int, int]:
        """The record of request ``q`` on its leaf's sorted key row ``row``
        (a later row of a leaf that takes several writers), registered for
        :meth:`add_records`: its id and offsets ``(v0, p, k, bump,
        release, abort_release)``."""
        cnt = len(row)
        pos = bisect_left(row, int(self.keys[q]))
        key = (q, cnt, pos)
        rec = self._rec_ids.get(key)
        if rec is None:
            rec = self._rec_ids[key] = len(self.keys) + len(self._recs)
            self._recs.append(key)
            self._orders.append(self._order(q, cnt, pos))
        c_at = self._orders[rec].index(int(self.count_addr[q]))
        return (rec, *record_offsets(int(self.pre[q]), cnt, pos, int(self.hit[q]), c_at))

    def add_walks(self, idx: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Trace the horizontal walks of requests ``idx`` from their
        buffered leaves ``starts``; returns their leaves and steps."""
        tokens = _Tokens(int(idx.size))
        leaves, steps = _walk(self.tree, self.keys[idx], starts, np.arange(idx.size), tokens)
        offsets, kinds, addrs = tokens.ops(0)
        self.walk_start[idx] = self._add(kinds, addrs) + offsets[:-1]
        self.walk_len[idx] = np.diff(offsets)
        return leaves, steps

    def add_stm_descents(self, idx: np.ndarray) -> None:
        """Lay out ``d_find_leaf_stm`` and its commit for requests ``idx``
        from their descents' tokens: a check becomes a ``d_read`` and a
        branch, a load a ``d_read``, and the commit validates every word
        read, in order."""
        if not idx.size:
            return
        bounds, types, words = self._desc
        n_tok = bounds[idx + 1] - bounds[idx]
        tok = _runs(bounds[idx], n_tok)
        lane_end = np.cumsum(n_tok)  # where each lane's tokens end, flat
        width = 1 + (types[tok] == TOK_CHECK)
        ends = np.cumsum(width)
        # a lane's reads come after the earlier lanes' reads and validations,
        # and its validations after its reads
        at = ends - width + np.repeat(lane_end - n_tok, n_tok)
        val = np.repeat(ends[lane_end - 1], n_tok) + np.arange(tok.size)
        out_types = np.full(int(ends[-1]) + tok.size, TOK_BRANCH, dtype=np.int8)
        out_words = np.zeros(out_types.size, dtype=np.int64)
        out_types[at], out_words[at] = TOK_READ, words[tok]
        out_types[val], out_words[val] = TOK_VALIDATE, words[tok]
        kinds, addrs, _ = expand(out_types, out_words, self._shifts)
        size = self.sdesc_len[idx]
        self.sdesc_start[idx] = self._add(kinds, addrs) + np.cumsum(size) - size

    def _rec_params(self, recs: np.ndarray):
        """Request, ``count``, slot, presence and offsets of records ``recs``."""
        extra = np.array(self._recs, dtype=np.int64).reshape(-1, 3)
        req = np.concatenate((np.arange(self.keys.size), extra[:, 0]))[recs]
        cnt = np.concatenate((self.count, extra[:, 1]))[recs]
        pos = np.concatenate((self.pos, extra[:, 2]))[recs]
        hit = self.hit[req].astype(np.int64)
        return req, cnt, pos, hit, record_offsets(self.pre[req], cnt, pos, hit)[:3]

    def _tokens(self, recs: np.ndarray):
        """The tokens of records ``recs``, back to back: per token its type
        and word, and per record where its ``count`` word's tokens start
        (within the record)."""
        req, cnt, pos, hit, (v0, p, k) = self._rec_params(recs)
        hn = self.has_next[req].astype(np.int64)
        order = np.fromiter((w for r in recs.tolist() for w in self._orders[r]),
                            dtype=np.int64, count=int(k.sum()))
        lay = self.tree.layout
        base = self.base[req]
        vw, c, rf = base + OFF_VERSION, base + OFF_COUNT, base + OFF_RF
        key0, value0 = base + OFF_KEYS, base + lay.payload_off
        ins = hit == 0
        nscan = pos + 1 - ins * (pos >= cnt)
        shifted = ins * (cnt - pos)
        n_body = np.where(ins, 5 + 4 * shifted, 3)
        n_read = (p - v0) // _VAL
        head = 7 + 2 * hn
        scan = head + 2
        body = scan + 2 * nscan
        val = body + n_body
        pub = val + n_read
        size = pub + 3 * k + 2  # tokens per record
        start = np.cumsum(size) - size
        n_tok = int(size.sum())
        types = np.full(n_tok, TOK_BRANCH, dtype=np.int8)
        words = np.zeros(n_tok, dtype=np.int64)

        def put(at, t, w):
            types[at] = t
            words[at] = w

        def each(counts):
            """Per record, ``counts[r]`` items: their records and indices."""
            r = np.repeat(np.arange(recs.size), counts)
            return r, np.arange(r.size) - (np.cumsum(counts) - counts)[r]

        # Load version, d_read(version), d_leaf_covers, the covers branch
        put(start, TOK_LOAD, vw)
        put(start + 1, TOK_READ, vw)
        put(start + 2, TOK_LOAD, base + OFF_FENCE)
        put(start + 4, TOK_LOAD, base + OFF_NEXT)
        nb = np.flatnonzero(hn)
        put(start[nb] + 6, TOK_LOAD, self.next_base[req[nb]] + OFF_FENCE)
        # d_read(count), d_write(count), then the key scan
        put(start + head, TOK_READ, c)
        put(start + head + 1, TOK_WRITE, c)
        r, j = each(nscan)
        put(start[r] + scan[r] + 2 * j, TOK_READ, key0[r] + j)
        # an overwrite: d_read(value), d_write(value), the split branch
        ow = np.flatnonzero(hit)
        at = start[ow] + body[ow]
        put(at, TOK_READ, value0[ow] + pos[ow])
        put(at + 1, TOK_WRITE, value0[ow] + pos[ow])
        # an insert: the fanout branch, the shift loop from the top entry
        # down, the writes of keys[pos], values[pos] and count, the branch
        r, t = each(shifted)
        i = cnt[r] - 1 - t
        at = start[r] + body[r] + 1 + 4 * t
        put(at, np.where(i == pos[r], TOK_REREAD, TOK_READ), key0[r] + i)
        put(at + 1, TOK_READ, value0[r] + i)
        put(at + 2, TOK_WRITE, key0[r] + i + 1)
        put(at + 3, TOK_WRITE, value0[r] + i + 1)
        iw = np.flatnonzero(ins)
        at = start[iw] + body[iw] + 1 + 4 * shifted[iw]
        put(at, TOK_WRITE, key0[iw] + pos[iw])
        put(at + 1, TOK_WRITE, value0[iw] + pos[iw])
        put(at + 2, TOK_REWRITE, c[iw])
        # d_commit validates each word read (its first d_read loaded the
        # version), in read order; d_abort undoes each word written (its
        # first d_write took the undo load), in write order
        r, t = each(n_read)
        put(start[r] + val[r] + t, TOK_VALIDATE, words[types == TOK_READ])
        r, t = each(k)
        put(start[r] + pub[r] + k[r] + t, TOK_UNDO, words[types == TOK_WRITE])
        # publish and release the words in set order
        put(start[r] + pub[r] + t, TOK_PUBLISH, order)
        put(start[r] + pub[r] + 2 * k[r] + t, TOK_RELEASE, order)
        put(start + size - 2, TOK_LOAD, rf)
        put(start + size - 1, TOK_MARK, 0)
        return types, words, head

    def add_records(self) -> None:
        """Lay out every record: ``Load version``, the transaction up to its
        publish (``p`` ops), the publish (``2k``), the abort's undo stores
        and releases (``2k``), ``Load rf`` and the ``Mark``. Sets
        ``record_start`` and ``record_base`` and, per record, ``rec_v0``,
        ``rec_p`` and ``rec_k``.

        A record's addresses are laid out relative to its leaf's base (the
        owner and version tables lie at a fixed distance from the words
        they guard), so overwrites of one slot, with one set order and one
        next leaf as far away, share one laid-out pattern; :meth:`gather`
        adds the base back."""
        n_recs = self.keys.size + len(self._recs)
        req, cnt, pos, hit, (v0, p, k) = self._rec_params(np.arange(n_recs))
        self.rec_v0, self.rec_p, self.rec_k = v0, p, k
        base = self.base[req]
        c_first = np.fromiter((o[0] == c for o, c in zip(self._orders,
                                                         (base + OFF_COUNT).tolist())),
                              dtype=bool, count=n_recs)
        far = np.where(self.has_next[req], self.next_base[req] - base, 0)
        key = np.where(hit == 1, ((far * 64 + pos) * 2 + c_first) * 2 + self.has_next[req],
                       np.iinfo(np.int64).min + np.arange(n_recs))
        _, first, pattern = np.unique(key, return_index=True, return_inverse=True)
        types, words, _ = self._tokens(first)
        kinds, addrs, _ = expand(types, words, self._shifts)
        rec_ops = 1 + p + 4 * k + 2
        if kinds.size != int(rec_ops[first].sum()):
            raise SimulationError("update record tokens disagree with their offsets")
        rel = (kinds != OP_BRANCH) & (kinds != OP_MARK)
        addrs[rel] -= np.repeat(base[first], rec_ops[first])[rel]
        start = self._add(kinds, addrs, rel)
        self.record_start = (start + np.cumsum(rec_ops[first]) - rec_ops[first])[pattern]
        self.record_base = base

    def accesses(self, rec: int) -> list[tuple[int, int, int]]:
        """What record ``rec`` does to its leaf's words once it owns the
        ``count`` word, up to its validation, in op order: ``(offset, what,
        word)``, ``what`` an owner load (``RW``), a compare-and-swap
        (``WW``) or ``OK`` for a write it has acquired; offsets count from
        the transaction's first op."""
        if rec not in self._accesses:
            types, words, head = self._tokens(np.array([rec]))
            lens = PATTERN_LEN[types]
            at = np.cumsum(lens) - lens - 1  # Load version is op -1
            out = []
            first = int(head[0]) + 2  # past d_read/d_write(count)
            for t, w, o in zip(types[first:].tolist(), words[first:].tolist(),
                               at[first:].tolist()):
                if t in (TOK_READ, TOK_REREAD):
                    out.append((o, RW, w))
                elif t == TOK_WRITE:
                    out.append((o + 1, WW, w))
                    out.append((o + 1, OK, w))
                elif t == TOK_VALIDATE:
                    break
            self._accesses[rec] = out
        return self._accesses[rec]

    def writes_of(self, rec: int) -> list[int]:
        """Record ``rec``'s written words in set order."""
        return self._orders[rec]

    def add_abort(self, written: list[int]) -> tuple[int, int]:
        """Lay out the abort of a transaction that wrote ``written`` (in
        write order): its undo stores and its releases in set order.
        Returns where it starts and its length."""
        types = np.array([TOK_UNDO] * len(written) + [TOK_RELEASE] * len(written), dtype=np.int8)
        kinds, addrs, _ = expand(types, np.array(written + write_order(written), dtype=np.int64),
                                 self._shifts)
        return self._add(kinds, addrs), int(kinds.size)

    def gather(self, starts: np.ndarray, lengths: np.ndarray,
               bases: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The ops of the store slices ``[starts[i], starts[i] + lengths[i])``,
        concatenated, a record's addresses rebased to leaf ``bases[i]``."""
        kinds = np.concatenate(self._kinds)
        addrs = np.concatenate(self._addrs)
        ends = np.cumsum(lengths)
        small = np.int32 if self._size <= np.iinfo(np.int32).max else np.int64
        at = np.repeat((starts - (ends - lengths)).astype(small), lengths)
        at += np.arange(at.size, dtype=at.dtype)
        out = addrs[at]
        if bases is not None:
            shift = np.repeat(bases.astype(out.dtype), lengths)
            shift *= np.concatenate(self._rel)[at]
            out += shift
        return kinds[at], out

    def trace(self, lay, req_ids: np.ndarray, sched) -> OpTrace:
        """The launch's trace: request ``q`` runs in ``lay`` (a
        :class:`~repro.core.eirene.LaneLayout`) as ``sched`` (a played
        :class:`~repro.core.update_schedule.UpdateSchedule`) has it: its
        attempts fail with the outcomes ``sched.fails[q]`` (if any), then
        commit. A request that derives its records names, per attempt, in
        ``sched.records[q]``, its record and, where the attempt failed at
        another word than ``count``, how many of the record's ops it ran and
        its abort piece (:meth:`add_abort`); -1 keeps what the outcome says.

        Attempt ``r`` runs a traversal — the walk for a ``horizontal``
        request's first, else the descent, STM-protected from ``r =
        threshold`` on — and the record from ``Load version`` to the
        attempt's end: to its publish's end when it commits, else to the
        failed guard's branch, plus the abort stores after a failed
        validation. Then come ``Load rf`` for its RG's last request and the
        ``Mark``. A trace whose request lengths disagree with
        ``sched.n_ops`` is an internal error.
        """
        n = int(self.keys.size)
        threshold = sched.threshold
        attempts = sched.n_fails + 1
        self.add_stm_descents(np.flatnonzero(sched.stm_descents))
        self.add_records()

        # every attempt, request by request in stream order: a traversal,
        # the record's head and (after a failed validation) the abort
        order = lay.order
        per_req = attempts[order]
        att_base = np.empty(n, dtype=np.int64)
        att_base[order] = np.cumsum(per_req) - per_req
        q = np.repeat(order, per_req)
        r = np.arange(q.size) - att_base[q]
        code = np.full(q.size, OK, dtype=np.int8)
        for req, f in sched.fails.items():
            code[att_base[req] : att_base[req] + len(f)] = f
        rec = q.copy()
        head = np.full(q.size, -1, dtype=np.int64)
        abort_start = np.full(q.size, -1, dtype=np.int64)
        abort_len = np.full(q.size, -1, dtype=np.int64)
        for req, atts in sched.records.items():
            at = slice(att_base[req], att_base[req] + len(atts))
            rec[at], head[at], abort_start[at], abort_len[at] = zip(*atts)
        n_seg = 3 * per_req + 1
        seg_base = np.cumsum(n_seg) - n_seg
        seg_start = np.zeros(int(n_seg.sum()), dtype=np.int64)
        seg_len = np.zeros_like(seg_start)
        seg_leaf = np.zeros_like(seg_start)  # a record's leaf base
        at = np.repeat(seg_base, per_req) + 3 * r
        stm_desc = r >= threshold
        seg_start[at] = np.where(stm_desc, self.sdesc_start[q], self.desc_start[q])
        seg_len[at] = np.where(stm_desc, self.sdesc_len[q], self.desc_len[q])
        walk = (r == 0) & sched.horizontal[q]
        seg_start[at[walk]] = self.walk_start[q[walk]]
        seg_len[at[walk]] = self.walk_len[q[walk]]
        start = self.record_start[rec]
        pre, v0, p, k = self.pre[q], self.rec_v0[rec], self.rec_p[rec], self.rec_k[rec]
        seg_start[at + 1] = start
        seg_leaf[at + 1] = seg_leaf[at + 2] = self.record_base[rec]
        seg_len[at + 1] = np.where(head >= 0, head, np.select(
            [code == OK, code == RW, code == WW], [p + 2 * k + 1, pre + 3, pre + 8], v0 + 5
        ))
        seg_start[at + 2] = np.where(abort_start >= 0, abort_start, start + p + 2 * k + 1)
        seg_len[at + 2] = np.where(abort_len >= 0, abort_len, np.where(code == VAL, 2 * k, 0))
        # then Load rf (an RG's last request) and the Mark, from the
        # committed record
        fin = seg_base + 3 * per_req
        last = sched.rg_last[order]
        done = rec[att_base[order] + per_req - 1]
        seg_start[fin] = (self.record_start[done] + self.rec_p[done] + 4 * self.rec_k[done]
                          + np.where(last, 1, 2))
        seg_len[fin] = np.where(last, 2, 1)
        seg_leaf[fin] = self.record_base[done]
        self.committed = np.empty(n, dtype=np.int64)
        self.committed[order] = done

        n_ops = sched.n_ops[order]
        if not np.array_equal(np.add.reduceat(seg_len, seg_base), n_ops):
            raise SimulationError("lowered update trace disagrees with its schedule")
        kinds, addrs = self.gather(seg_start, seg_len, seg_leaf)
        self._kinds = self._addrs = self._rel = []  # the store is spent
        cas_fail = np.zeros(kinds.size, dtype=bool)
        ww = code == WW
        # a failed compare-and-swap is followed by its branch, then the abort
        cas_fail[np.cumsum(seg_len)[at[ww] + 1] - 2] = True
        lane_streams = np.concatenate(([0], np.cumsum(np.bincount(lay.lane))))
        offsets = np.concatenate(([0], np.cumsum(n_ops)))[lane_streams]
        return OpTrace(offsets, kinds, addrs, req_ids[order], lay.warp_lanes, lay.iters,
                       cas_fail)

    def committed_writes(self) -> np.ndarray:
        """The words the committed transactions wrote, one entry per
        transaction and word (after :meth:`trace`)."""
        orders = self._orders
        return np.fromiter((w for r in self.committed.tolist() for w in orders[r]),
                           dtype=np.int64)
