"""Eirene's SIMT kernels (§4.2 Algorithm 1 + §5 iteration warps).

Query kernel: issued queries and range queries run **without any
synchronization** — combining removed key conflicts, queries cannot be hurt
by each other, and the query kernel launches before the update kernel so
they cannot race with writers either.

Update kernel: optimistic concurrency per Algorithm 1 — unprotected inner
traversal until ``stm_retry_threshold`` failures (then STM-protected
traversal), leaf operations always inside a leaf-region transaction with
leaf-version validation; splits take the SMO path.

Iteration warps: ``rgs_per_iteration_warp`` request groups share one warp;
each lane processes one request per iteration, a warp-shared buffer carries
the previous RG's last leaf + RF, and each iteration picks horizontal or
vertical traversal by comparing the RG's maximal key with the buffered RF
value. Lanes synchronize between iterations with a zero-cost barrier
(parked lanes retire no instructions, like predication).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._types import OpKind
from ..btree.device_ops import (
    d_find_leaf,
    d_find_leaf_stm,
    d_leaf_covers,
    d_leaf_delete_stm,
    d_leaf_upsert_stm,
    d_search_leaf,
    d_search_leaf_stm,
    d_smo_upsert,
    d_walk_leaves,
)
from ..btree.tree import BPlusTree
from ..errors import SimulationError, TransactionAborted
from ..simt import BRANCH, Load, Mark, WaitGE
from ..stm import DeviceStm

MAX_RETRIES = 10_000


# --------------------------------------------------------------------- #
# plain (non-iteration-warp) programs
# --------------------------------------------------------------------- #
def d_query(tree: BPlusTree, key: int):
    """Unprotected point query; returns (value, steps)."""
    leaf, steps = yield from d_find_leaf(tree, key)
    val = yield from d_search_leaf(tree, leaf, key)
    return val, steps


def d_range_raw(tree: BPlusTree, lo: int, hi: int):
    """Unprotected range scan (pre-batch state; patched by RESULT_CAL).

    Returns (keys, values, steps)."""
    leaf, steps = yield from d_find_leaf(tree, lo)
    ks: list[int] = []
    vs: list[int] = []
    node = leaf
    while True:
        a = tree.views.addrs(node)
        cnt = yield Load(a.count)
        yield BRANCH
        done = False
        for slot in range(cnt):
            k = yield Load(a.keys[slot])
            yield BRANCH
            if k > hi:
                done = True
                break
            if k >= lo:
                v = yield Load(a.values[slot])
                ks.append(int(k))
                vs.append(int(v))
        nxt = yield Load(a.next_leaf)
        yield BRANCH
        if done or nxt == -1:
            return ks, vs, steps
        node = nxt
        steps += 1


def d_protected_query(tree: BPlusTree, stm: DeviceStm, key: int, leaf_hint: int | None = None):
    """Point query inside a *unified* (non-partitioned) kernel.

    Without kernel partition, a query can race a concurrent writer splitting
    its leaf, so the leaf read runs inside a short STM leaf-region
    transaction (the reader analogue of Algorithm 1's leaf-region tx): the
    inner traversal stays unprotected, the leaf scan is transactional, and a
    validation failure re-finds the leaf vertically and retries.

    Returns ``(value, steps, retries, horizontal, leaf)``.
    """
    retries = 0
    horizontal = False
    if leaf_hint is not None:
        leaf, steps_total = yield from d_walk_leaves(tree, leaf_hint, key)
        horizontal = True
    else:
        leaf, steps_total = yield from d_find_leaf(tree, key)
    while True:
        if retries > MAX_RETRIES:
            raise SimulationError(f"protected query for key {key} livelocked")
        tx = stm.begin()
        try:
            covers = yield from d_leaf_covers(tree, leaf, key)
            yield BRANCH
            if not covers:
                # a completed split moved the key range: not a data conflict
                yield from stm.d_abort(tx, counted=False)
                leaf, steps = yield from d_find_leaf(tree, key)
                steps_total += steps
                continue
            val = yield from d_search_leaf_stm(tree, stm, tx, leaf, key)
            yield from stm.d_commit(tx)
            return val, steps_total, retries, horizontal, leaf
        except TransactionAborted:
            retries += 1
            leaf, steps = yield from d_find_leaf(tree, key)
            steps_total += steps


@dataclass
class UpdateResult:
    old: int
    steps: int
    retries: int
    horizontal: bool
    leaf: int


def _d_attempt_leaf_op(
    tree: BPlusTree,
    stm: DeviceStm,
    smo_lock_addr: int,
    req_id: int,
    kind: int,
    key: int,
    value: int,
    leaf: int,
    leafvers: int,
):
    """One leaf-region transaction attempt (Algorithm 1 lines 37–45).

    Returns the old value; raises TransactionAborted to request a retry.
    """
    tx = stm.begin()
    cur_vers = yield from stm.d_read(tx, tree.views.addrs(leaf).version)
    covers = yield from d_leaf_covers(tree, leaf, key)
    yield BRANCH
    if cur_vers != leafvers or not covers:
        yield from stm.d_abort(tx)  # counted: a structure conflict
        raise TransactionAborted("leaf validation failed")
    if kind == OpKind.DELETE:
        old = yield from d_leaf_delete_stm(tree, stm, tx, leaf, key)
        yield from stm.d_commit(tx)
        return old
    old, needs_split = yield from d_leaf_upsert_stm(tree, stm, tx, leaf, key, value)
    yield BRANCH
    if needs_split:
        yield from stm.d_abort(tx, counted=False)
        old = yield from d_smo_upsert(tree, stm, smo_lock_addr, req_id, key, value)
        return old
    yield from stm.d_commit(tx)
    return old


def d_update(
    tree: BPlusTree,
    stm: DeviceStm,
    smo_lock_addr: int,
    threshold: int,
    req_id: int,
    kind: int,
    key: int,
    value: int,
    leaf_hint: int | None = None,
):
    """Optimistic update (Algorithm 1), optionally starting from a buffered
    leaf hint (horizontal traversal, §5). Returns :class:`UpdateResult`."""
    retries = 0
    steps_total = 0
    horizontal = False
    if leaf_hint is not None:
        leaf, steps = yield from d_walk_leaves(tree, leaf_hint, key)
        steps_total += steps
        leafvers = yield Load(tree.views.addrs(leaf).version)
        try:
            old = yield from _d_attempt_leaf_op(
                tree, stm, smo_lock_addr, req_id, kind, key, value, leaf, leafvers
            )
            return UpdateResult(old, steps_total, retries, True, leaf)
        except TransactionAborted:
            # §5: conflicts on the horizontal path retry vertically
            retries += 1
            horizontal = True
    while True:
        if retries > MAX_RETRIES:
            raise SimulationError(f"update request {req_id} livelocked")
        if retries < threshold:
            leaf, steps = yield from d_find_leaf(tree, key)
        else:
            tx0 = stm.begin()
            try:
                leaf, steps = yield from d_find_leaf_stm(tree, stm, tx0, key)
                yield from stm.d_commit(tx0)
            except TransactionAborted:
                retries += 1
                continue
        steps_total += steps
        leafvers = yield Load(tree.views.addrs(leaf).version)
        try:
            old = yield from _d_attempt_leaf_op(
                tree, stm, smo_lock_addr, req_id, kind, key, value, leaf, leafvers
            )
            return UpdateResult(old, steps_total, retries, horizontal, leaf)
        except TransactionAborted:
            retries += 1


# --------------------------------------------------------------------- #
# iteration-warp programs (§5)
# --------------------------------------------------------------------- #
@dataclass
class LaneSlot:
    """One lane's request in one iteration of an iteration warp."""

    req_id: int  # original batch index (used for Mark / response time)
    kind: int
    key: int
    value: int  # write payload for update-class requests
    tag: int = 0  # caller-defined id (Eirene passes the combine-run id)


def make_iteration_lane_program(
    tree: BPlusTree,
    shared: dict,
    lane: int,
    n_lanes: int,
    slots: list[LaneSlot | None],
    last_lane_of_iter: list[int],
    rg_max_key: list[int],
    enable_rf: bool,
    on_result,
    update_ctx: tuple[DeviceStm, int, int] | None = None,
):
    """Build one lane of an iteration warp.

    ``slots[it]`` is the lane's request in iteration ``it`` (None when the
    final RG is ragged). ``on_result(slot, value, steps, horizontal,
    retries)`` is called with each finished request (``retries`` counts its
    transaction retries, 0 for an unprotected query). For update kernels pass
    ``update_ctx=(stm, smo_lock_addr, retry_threshold)``; queries run
    unprotected.
    """
    height = tree.height

    def program():
        n_iters = len(slots)
        for it in range(n_iters):
            slot = slots[it]
            if slot is not None:
                buffered = shared["leaf"][it - 1] if it > 0 else None
                use_horizontal = buffered is not None and (
                    not enable_rf or rg_max_key[it] <= shared["rf"][it - 1]
                )
                if update_ctx is not None and slot.kind != OpKind.QUERY:
                    stm, smo_addr, threshold = update_ctx
                    hint = buffered if use_horizontal else None
                    res = yield from d_update(
                        tree, stm, smo_addr, threshold,
                        slot.req_id, slot.kind, slot.key, slot.value, hint,
                    )
                    val, steps, horiz, my_leaf, retries = (
                        res.old, res.steps, res.horizontal, res.leaf, res.retries,
                    )
                elif update_ctx is not None:
                    # unified kernel: query slots ride in update-class warps
                    # and read their leaf under STM protection
                    stm, _smo_addr, _threshold = update_ctx
                    hint = buffered if use_horizontal else None
                    val, steps, retries, horiz, my_leaf = yield from d_protected_query(
                        tree, stm, slot.key, hint
                    )
                else:
                    if use_horizontal:
                        my_leaf, steps = yield from d_walk_leaves(tree, buffered, slot.key)
                        horiz = True
                    else:
                        my_leaf, steps = yield from d_find_leaf(tree, slot.key)
                        horiz = False
                    val = yield from d_search_leaf(tree, my_leaf, slot.key)
                    retries = 0
                on_result(slot, val, steps, horiz, retries)
                # the RG's last lane publishes its leaf + RF to the buffer,
                # and §5's dynamic RF maintenance fires on long walks
                if lane == last_lane_of_iter[it] and my_leaf is not None:
                    if horiz and steps > height:
                        tree.update_rf(buffered, steps)
                    rf = yield Load(tree.views.addrs(my_leaf).rf)
                    shared["leaf"][it] = my_leaf
                    shared["rf"][it] = rf
                yield Mark(slot.req_id)
            # barrier: wait for every lane to finish this iteration
            arrived = shared["arrived"]
            arrived[it] += 1
            while arrived[it] < n_lanes:
                yield WaitGE(arrived, it, n_lanes)
        return None

    return program()


def make_warp_shared(n_iters: int) -> dict:
    """Fresh shared buffer for one iteration warp."""
    return {
        "leaf": [None] * n_iters,
        "rf": [np.iinfo(np.int64).max] * n_iters,
        "arrived": [0] * n_iters,
    }
