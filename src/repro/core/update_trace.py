"""Straight-line op templates of Eirene's split-free update program.

In an update kernel where no request can split or shift a leaf (every
request overwrites a key present at launch start), a lane of
:func:`~repro.core.kernels.d_update` runs a short list of pieces, each
fixed at launch time:

* a **traversal**: the unprotected descent (``d_find_leaf``), the
  horizontal walk from a buffered leaf (``d_walk_leaves``) or the
  STM-protected descent (``d_find_leaf_stm`` and its commit);
* its request's **leaf record**: ``Load version``, the leaf-region
  transaction of ``_d_attempt_leaf_op`` (``d_read(version)``,
  ``d_leaf_covers``, ``d_read``/``d_write(count)``, ``d_read(keys[0..pos])``,
  ``d_read``/``d_write(values[pos])``, the commit's validation loads),
  the commit's publish, the abort's stores, the RG-last lane's ``Load rf``
  and the ``Mark``.

:class:`UpdateTemplates` lays every piece out once, op by op with its
address, in numpy; a lane's stream is a run of slices of that store. An
attempt whose guard fails runs a prefix of the record (a failed owner load
or compare-and-swap on the ``count`` word ends it) or, for a failed
validation, the record up to the ``count`` word's validation load and then
the abort stores. Which pieces a lane runs is decided by the caller
(:meth:`~repro.core.eirene.EireneTree._lower_updates`), which resolves the
guards.

``d_commit`` and ``d_abort`` walk ``tx.writes``, a ``set`` of the ``count``
and value words, so the publish and release order is that set's iteration
order, not the insertion order: :func:`count_word_first` builds the set as
the transaction does and reads the order off it.
"""

from __future__ import annotations

import numpy as np

from .._types import NO_NODE
from ..btree.layout import OFF_COUNT, OFF_FENCE, OFF_KEYS, OFF_NEXT, OFF_RF, OFF_VERSION
from ..btree.traversal import _descend, _Tokens, _walk
from ..btree.tree import BPlusTree
from ..errors import SimulationError
from ..simt.lowered import OP_ATOMIC, OP_BRANCH, OP_LOAD, OP_MARK, OP_STORE, OpTrace
from ..stm import FREE, StmRegion

#: attempt outcomes: committed, then the three guards on the leaf's
#: ``count`` word — its owner load (read-write conflict), its
#: compare-and-swap (write-write conflict) and its commit-time validation
OK, RW, WW, VAL = 0, 1, 2, 3


def count_word_first(count_addr: int, value_addr: int) -> bool:
    """Whether ``tx.writes`` iterates the ``count`` word first once a
    transaction has written it and then the value word."""
    writes: set[int] = set()
    writes.add(count_addr)
    writes.add(value_addr)
    return next(iter(writes)) == count_addr


class UpdateTemplates:
    """Every piece of a split-free update launch's lane streams.

    Built for the launch's issued keys (strictly increasing), it traces
    each key's unprotected descent and finds its leaf and slot; ``valid``
    says whether the leaf holds the key inside its fence range with every
    owner word of the leaf free, the conditions under which the leaf
    transaction can fail only at its ``count`` word. Per request it then
    holds:

    * ``pre``: the offset, within its transaction, of the owner load of
      the ``count`` word (its version load is 2 ops later, the
      compare-and-swap 5);
    * ``v0``: the offset of the commit's validation loads (the ``count``
      word's is 2 ops later);
    * ``p``: the offset of the publish, which is 4 ops long (a committed
      attempt runs ``p + 4`` ops, a failed validation ``v0 + 8``);
    * ``c_first``: whether publish and release handle the ``count`` word
      before the value word, and from it the offsets of the ``count``
      word's version bump (``bump``) and release (``release``) in the
      publish, and of its release after a failed validation
      (``abort_release``).

    Lengths of the traversals are ``desc_len`` (and ``desc_steps``),
    ``sdesc_len`` and, once :meth:`add_walks` traced them, ``walk_len``.
    """

    def __init__(self, tree: BPlusTree, region: StmRegion, keys: np.ndarray) -> None:
        self.tree = tree
        self.region = region
        keys = np.asarray(keys, dtype=np.int64)
        self.keys = keys
        n = int(keys.size)
        lay = tree.layout
        data = tree.arena.data
        self._kinds: list[np.ndarray] = []
        self._addrs: list[np.ndarray] = []
        self._size = 0
        #: the store keeps addresses in 32 bits when the arena allows
        self._addr_dtype = np.int32 if data.size <= np.iinfo(np.int32).max else np.int64

        tokens = _Tokens(n)
        self.leaves, self.desc_steps = _descend(tree, keys, np.arange(n), tokens)
        offsets, kinds, addrs = tokens.ops(lay.payload_off - OFF_KEYS)
        self._desc = (offsets, kinds, addrs)
        self.desc_start = self._add(kinds, addrs) + offsets[:-1]
        self.desc_len = np.diff(offsets)
        loads = np.bincount(np.repeat(np.arange(n), self.desc_len)[kinds == OP_LOAD],
                            minlength=n)
        # d_find_leaf_stm: 4 ops per word read, the branches, and 2 per
        # word in the commit's validation
        self.sdesc_len = self.desc_len + 5 * loads
        self.sdesc_start = np.full(n, -1, dtype=np.int64)
        self.walk_start = np.full(n, -1, dtype=np.int64)
        self.walk_len = np.zeros(n, dtype=np.int64)

        # the leaf: the key's slot, the fences and the leaf's owner words
        base = tree.views.node_bases(self.leaves)
        self.base = base
        rows = data[base[:, None] + OFF_KEYS + np.arange(lay.fanout)]
        at_least = rows >= keys[:, None]
        pos = at_least.argmax(axis=1)
        count = data[base + OFF_COUNT]
        nxt = data[base + OFF_NEXT]
        self.has_next = nxt != NO_NODE
        in_tree = (nxt >= 0) & (nxt < tree.max_nodes)
        next_fence = data[tree.views.node_bases(np.where(in_tree, nxt, 0)) + OFF_FENCE]
        owners = data[region.owner_base + (base[:, None] - region.data_base)
                      + np.arange(lay.node_words)]
        self.valid = (
            at_least.any(axis=1)
            & (rows[np.arange(n), pos] == keys)
            & (pos < count)
            & (data[base + OFF_FENCE] <= keys)
            & (~self.has_next | (in_tree & (next_fence > keys)))
            & np.all(owners == FREE, axis=1)
        )
        self.pos = pos
        self.count_addr = base + OFF_COUNT
        self.value_addr = base + lay.payload_off + pos
        self.old_values = data[self.value_addr]
        self.pre = 9 + 2 * self.has_next
        self.v0 = self.pre + 5 * pos + 24
        self.p = self.v0 + 2 * (pos + 4)
        self.c_first = np.array(
            [count_word_first(c, v)
             for c, v in zip(self.count_addr.tolist(), self.value_addr.tolist())],
            dtype=bool,
        )
        second = np.where(self.c_first, 0, 1)
        self.bump = self.p + 2 * second
        self.release = self.bump + 1
        self.abort_release = self.v0 + 6 + second
        #: where each request's leaf record starts in the store (set by
        #: :meth:`add_records`)
        self.record_start = np.zeros(n, dtype=np.int64)

    # ------------------------------------------------------------------ #
    def _add(self, kinds: np.ndarray, addrs: np.ndarray) -> int:
        """Append ops to the store; returns where they start."""
        start = self._size
        self._kinds.append(kinds)
        self._addrs.append(addrs.astype(self._addr_dtype))
        self._size += int(kinds.size)
        return start

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
        """Lay out ``d_find_leaf_stm`` and its commit for requests ``idx``:
        each load of the unprotected descent becomes a ``d_read`` (owner
        load, branch, version load, the load), each branch stays, and the
        commit validates every word read, in order (version load, branch)."""
        if not idx.size:
            return
        offsets, kinds, addrs = self._desc
        region = self.region
        n_ops = self.desc_len[idx]
        first_op = np.cumsum(n_ops) - n_ops
        lane = np.repeat(np.arange(idx.size), n_ops)
        ops = np.repeat(offsets[idx] - first_op, n_ops) + np.arange(int(n_ops.sum()))
        kind = kinds[ops]
        addr = addrs[ops]
        load = kind == OP_LOAD
        width = np.where(load, 4, 1)
        size = self.sdesc_len[idx]
        lane_start = np.cumsum(size) - size
        # the read part: each op's position is its lane's start plus the
        # widths of the lane's earlier ops
        at = np.cumsum(width) - width
        at += (lane_start - at[first_op])[lane]
        out_kinds = np.full(int(size.sum()), OP_BRANCH, dtype=np.int8)
        out_addrs = np.zeros(out_kinds.size, dtype=np.int64)
        word = addr[load]
        at_load = at[load]
        out_kinds[at_load] = OP_LOAD
        out_addrs[at_load] = region.owner_base + word - region.data_base
        out_kinds[at_load + 2] = OP_LOAD
        out_addrs[at_load + 2] = region.version_base + word - region.data_base
        out_kinds[at_load + 3] = OP_LOAD
        out_addrs[at_load + 3] = word
        # the commit: one (version load, branch) per word read, after the reads
        load_lane = lane[load]
        n_loads = np.bincount(load_lane, minlength=idx.size)
        rank = np.arange(word.size) - np.repeat(np.cumsum(n_loads) - n_loads, n_loads)
        at_val = lane_start[load_lane] + (size - 2 * n_loads)[load_lane] + 2 * rank
        out_kinds[at_val] = OP_LOAD
        out_addrs[at_val] = region.version_base + word - region.data_base
        self.sdesc_start[idx] = self._add(out_kinds, out_addrs) + lane_start

    def add_records(self) -> None:
        """Lay out every request's leaf record: ``Load version``, the
        transaction up to its publish (``p`` ops), the publish (4), the
        abort stores (4), ``Load rf`` and the ``Mark``."""
        n = int(self.keys.size)
        region = self.region

        def own(x):
            return region.owner_base + x - region.data_base

        def ver(x):
            return region.version_base + x - region.data_base

        size = self.p + 11
        rec = np.cumsum(size) - size
        kinds = np.full(int(size.sum()), OP_BRANCH, dtype=np.int8)
        addrs = np.zeros(kinds.size, dtype=np.int64)

        def put(at, kind, addr):
            kinds[at] = kind
            addrs[at] = addr

        base = self.base
        vw = base + OFF_VERSION
        c = self.count_addr
        v = self.value_addr
        b = rec + 1  # the transaction's first op
        put(rec, OP_LOAD, vw)
        # d_read(version), d_leaf_covers
        put(b, OP_LOAD, own(vw))
        put(b + 2, OP_LOAD, ver(vw))
        put(b + 3, OP_LOAD, vw)
        put(b + 4, OP_LOAD, base + OFF_FENCE)
        put(b + 6, OP_LOAD, base + OFF_NEXT)
        hn = np.flatnonzero(self.has_next)
        nxt = self.tree.arena.data[base[hn] + OFF_NEXT]
        put(b[hn] + 8, OP_LOAD, self.tree.views.node_bases(nxt) + OFF_FENCE)
        # d_read(count), d_write(count)
        g = b + self.pre
        put(g, OP_LOAD, own(c))
        put(g + 2, OP_LOAD, ver(c))
        put(g + 3, OP_LOAD, c)
        put(g + 5, OP_ATOMIC, own(c))
        put(g + 7, OP_LOAD, c)
        put(g + 8, OP_STORE, c)
        # d_read(keys[0..pos]), each with its branch
        n_keys = self.pos + 1
        req = np.repeat(np.arange(n), n_keys)
        slot = np.arange(req.size) - np.repeat(np.cumsum(n_keys) - n_keys, n_keys)
        key = base[req] + OFF_KEYS + slot
        at = g[req] + 9 + 5 * slot
        put(at, OP_LOAD, own(key))
        put(at + 2, OP_LOAD, ver(key))
        put(at + 3, OP_LOAD, key)
        # d_read(value), d_write(value)
        r = g + 9 + 5 * n_keys
        put(r, OP_LOAD, own(v))
        put(r + 2, OP_LOAD, ver(v))
        put(r + 3, OP_LOAD, v)
        put(r + 5, OP_ATOMIC, own(v))
        put(r + 7, OP_LOAD, v)
        put(r + 8, OP_STORE, v)
        # d_commit: validate version, count, keys, value
        val = b + self.v0
        put(val, OP_LOAD, ver(vw))
        put(val + 2, OP_LOAD, ver(c))
        put(val[req] + 4 + 2 * slot, OP_LOAD, ver(key))
        put(val + 4 + 2 * n_keys, OP_LOAD, ver(v))
        # publish, then the abort's undo stores and releases, in set order
        first = np.where(self.c_first, c, v)
        second = np.where(self.c_first, v, c)
        pub = b + self.p
        put(pub, OP_ATOMIC, ver(first))
        put(pub + 1, OP_STORE, own(first))
        put(pub + 2, OP_ATOMIC, ver(second))
        put(pub + 3, OP_STORE, own(second))
        put(pub + 4, OP_STORE, c)
        put(pub + 5, OP_STORE, v)
        put(pub + 6, OP_STORE, own(first))
        put(pub + 7, OP_STORE, own(second))
        put(pub + 8, OP_LOAD, base + OFF_RF)
        put(pub + 9, OP_MARK, 0)
        self.record_start = self._add(kinds, addrs) + rec

    def gather(self, starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ops of the store slices ``[starts[i], starts[i] + lengths[i])``,
        concatenated."""
        kinds = np.concatenate(self._kinds)
        addrs = np.concatenate(self._addrs)
        ends = np.cumsum(lengths)
        small = np.int32 if self._size <= np.iinfo(np.int32).max else np.int64
        at = np.repeat((starts - (ends - lengths)).astype(small), lengths)
        at += np.arange(at.size, dtype=at.dtype)
        return kinds[at], addrs[at]

    def trace(self, lay, req_ids: np.ndarray, sched) -> OpTrace:
        """The launch's trace: request ``q`` runs in ``lay`` (a
        :class:`~repro.core.eirene.LaneLayout`) as ``sched`` (a played
        :class:`~repro.core.update_schedule.UpdateSchedule`) has it: its
        attempts fail with the outcomes ``sched.fails[q]`` (if any), then
        commit.

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
        n_seg = 3 * per_req + 1
        seg_base = np.cumsum(n_seg) - n_seg
        seg_start = np.zeros(int(n_seg.sum()), dtype=np.int64)
        seg_len = np.zeros_like(seg_start)
        at = np.repeat(seg_base, per_req) + 3 * r
        stm_desc = r >= threshold
        seg_start[at] = np.where(stm_desc, self.sdesc_start[q], self.desc_start[q])
        seg_len[at] = np.where(stm_desc, self.sdesc_len[q], self.desc_len[q])
        walk = (r == 0) & sched.horizontal[q]
        seg_start[at[walk]] = self.walk_start[q[walk]]
        seg_len[at[walk]] = self.walk_len[q[walk]]
        rec = self.record_start[q]
        pre, v0, p = self.pre[q], self.v0[q], self.p[q]
        seg_start[at + 1] = rec
        seg_len[at + 1] = np.select(
            [code == OK, code == RW, code == WW], [p + 5, pre + 3, pre + 8], v0 + 5
        )
        seg_start[at + 2] = rec + p + 5
        seg_len[at + 2] = np.where(code == VAL, 4, 0)
        # then Load rf (an RG's last request) and the Mark
        fin = seg_base + 3 * per_req
        last = sched.rg_last[order]
        seg_start[fin] = self.record_start[order] + self.p[order] + np.where(last, 9, 10)
        seg_len[fin] = np.where(last, 2, 1)

        n_ops = sched.n_ops[order]
        if not np.array_equal(np.add.reduceat(seg_len, seg_base), n_ops):
            raise SimulationError("lowered update trace disagrees with its schedule")
        kinds, addrs = self.gather(seg_start, seg_len)
        self._kinds = self._addrs = []  # the store is spent
        cas_fail = np.zeros(kinds.size, dtype=bool)
        ww = code == WW
        cas_fail[(np.cumsum(seg_len) - seg_len)[at[ww] + 1] + 1 + pre[ww] + 5] = True
        lane_streams = np.concatenate(([0], np.cumsum(np.bincount(lay.lane))))
        offsets = np.concatenate(([0], np.cumsum(n_ops)))[lane_streams]
        return OpTrace(offsets, kinds, addrs, req_ids[order], lay.warp_lanes, lay.iters,
                       cas_fail)
