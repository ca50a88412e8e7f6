"""Device-plane B+tree operations (SIMT thread-program generators).

Building blocks the baselines' and Eirene's kernels compose:

* unprotected vertical traversal and leaf search (Eirene's query kernel,
  the no-concurrency-control reference, optimistic first tries);
* STM-protected traversal / search / leaf mutation (STM GB-tree, Eirene's
  protected fallback and leaf region);
* latch-based traversal with lock coupling (Lock GB-tree);
* horizontal leaf-chain traversal with RF bookkeeping (§5 locality);
* the structure-modification path (leaf split cascade): splits acquire STM
  ownership of every word of every node the split plan touches, execute the
  host split instantaneously, charge the equivalent counted stores, then
  invalidate STM versions so every concurrent transaction that read stale
  words aborts at validation — semantically identical to running the split's
  stores transactionally, without torn intermediate states.

All functions are generators; compose with ``yield from`` and catch
:class:`~repro.errors.TransactionAborted` at retry boundaries. Node fields
are addressed through the typed address plane
(:meth:`~repro.btree.views.StructView.addrs` — ``a.count``, ``a.keys[slot]``)
so the word-offset arithmetic lives only in :mod:`repro.btree.views`.
"""

from __future__ import annotations

from .._types import EMPTY_KEY, NO_NODE, NULL_VALUE
from ..errors import SimulationError, TransactionAborted
from ..locks import LatchTable
from ..simt.instructions import BRANCH, Alu, AtomicCAS, Load, Store
from ..stm import FREE, DeviceStm, Tx
from .traversal import MAX_HORIZONTAL_STEPS
from .tree import BPlusTree


# --------------------------------------------------------------------- #
# unprotected plane
# --------------------------------------------------------------------- #
def d_child_slot(tree: BPlusTree, node: int, key: int):
    """Linear separator scan; returns the child slot to follow.

    Unused key slots hold ``EMPTY_KEY`` (> every real key), so the scan
    never needs the count word — one load + one branch per separator
    examined, with early exit, exactly like the branch-free GPU layout.
    """
    keys = tree.views.addrs(node).keys
    base = keys.base
    n = keys.width
    slot = 0
    while slot < n:
        k = yield Load(base + slot)
        yield BRANCH
        if key < k:
            break
        slot += 1
    return slot


def d_find_leaf(tree: BPlusTree, key: int):
    """Vertical root-to-leaf traversal; returns (leaf id, nodes visited)."""
    node = tree.root
    steps = 1
    while True:
        a = tree.views.addrs(node)
        is_leaf = yield Load(a.leaf)
        yield BRANCH
        if is_leaf:
            return node, steps
        slot = yield from d_child_slot(tree, node, key)
        node = yield Load(a.children[slot])
        steps += 1


def d_search_leaf(tree: BPlusTree, leaf: int, key: int):
    """Scan a leaf for ``key``; returns its value or ``NULL_VALUE``."""
    a = tree.views.addrs(leaf)
    kbase = a.keys.base
    vbase = a.values.base
    for slot in range(tree.layout.fanout):
        k = yield Load(kbase + slot)
        yield BRANCH
        if k == key:
            val = yield Load(vbase + slot)
            return val
        if k > key:
            return NULL_VALUE
    return NULL_VALUE


def d_leaf_covers(tree: BPlusTree, leaf: int, key: int):
    """Does ``leaf`` still cover ``key``? (§4.2 ``key in range(leaf)``).

    True iff the leaf's first key is <= key (or the leaf is leftmost for
    this key) and the right sibling's first key (if any) is > key.
    """
    a = tree.views.addrs(leaf)
    fence = yield Load(a.fence)
    yield BRANCH
    if key < fence:
        return False  # the reference points right of the key's range
    nxt = yield Load(a.next_leaf)
    yield BRANCH
    if nxt != NO_NODE:
        nxt_fence = yield Load(tree.views.addrs(nxt).fence)
        yield BRANCH
        if nxt_fence <= key:
            # a split moved this key's range to the right sibling
            return False
    return True


def d_walk_leaves(tree: BPlusTree, start_leaf: int, key: int):
    """Horizontal traversal (§5): follow the leaf chain from ``start_leaf``
    until reaching the leaf whose fence range covers ``key``.
    Returns (leaf, steps)."""
    node = start_leaf
    steps = 1  # inspecting the buffered leaf counts as a step
    while True:
        if steps > MAX_HORIZONTAL_STEPS:
            raise SimulationError("leaf chain walk did not terminate")
        nxt = yield Load(tree.views.addrs(node).next_leaf)
        yield BRANCH
        if nxt == NO_NODE:
            return node, steps
        nxt_fence = yield Load(tree.views.addrs(nxt).fence)
        yield BRANCH
        if nxt_fence > key:
            return node, steps
        node = nxt
        steps += 1


# --------------------------------------------------------------------- #
# STM-protected plane
# --------------------------------------------------------------------- #
def d_child_slot_stm(tree: BPlusTree, stm: DeviceStm, tx: Tx, node: int, key: int):
    keys = tree.views.addrs(node).keys
    base = keys.base
    n = keys.width
    slot = 0
    while slot < n:
        k = yield from stm.d_read(tx, base + slot)
        yield BRANCH
        if key < k:
            break
        slot += 1
    return slot


def d_find_leaf_stm(tree: BPlusTree, stm: DeviceStm, tx: Tx, key: int):
    """STM-protected vertical traversal (STM GB-tree; Eirene past the retry
    threshold). Every word goes through the transactional read protocol."""
    node = tree.root
    steps = 1
    while True:
        a = tree.views.addrs(node)
        is_leaf = yield from stm.d_read(tx, a.leaf)
        yield BRANCH
        if is_leaf:
            return node, steps
        slot = yield from d_child_slot_stm(tree, stm, tx, node, key)
        node = yield from stm.d_read(tx, a.children[slot])
        steps += 1


def d_search_leaf_stm(tree: BPlusTree, stm: DeviceStm, tx: Tx, leaf: int, key: int):
    a = tree.views.addrs(leaf)
    for slot in range(tree.layout.fanout):
        k = yield from stm.d_read(tx, a.keys[slot])
        yield BRANCH
        if k == key:
            val = yield from stm.d_read(tx, a.values[slot])
            return val
        if k > key:
            return NULL_VALUE
    return NULL_VALUE


def d_leaf_upsert_stm(
    tree: BPlusTree, stm: DeviceStm, tx: Tx, leaf: int, key: int, value: int
):
    """Transactional in-place upsert into a non-full-or-hit leaf.

    Serializes leaf writers by acquiring the leaf's count word first.
    Raises :class:`NeedsSplit` (via return sentinel) when the leaf is full
    and the key absent — the caller must abort and take the SMO path.
    Returns (old value, needs_split flag).
    """
    a = tree.views.addrs(leaf)
    cnt = yield from stm.d_read(tx, a.count)
    # acquire: owning the count word serializes all writers of this leaf
    yield from stm.d_write(tx, a.count, cnt)
    pos = 0
    while pos < cnt:
        k = yield from stm.d_read(tx, a.keys[pos])
        yield BRANCH
        if k == key:
            old = yield from stm.d_read(tx, a.values[pos])
            yield from stm.d_write(tx, a.values[pos], value)
            return old, False
        if k > key:
            break
        pos += 1
    yield BRANCH
    if cnt >= tree.layout.fanout:
        return NULL_VALUE, True  # full leaf, absent key: needs a split
    # shift (cnt - pos) entries right, insert at pos
    for i in range(cnt - 1, pos - 1, -1):
        k = yield from stm.d_read(tx, a.keys[i])
        v = yield from stm.d_read(tx, a.values[i])
        yield from stm.d_write(tx, a.keys[i + 1], k)
        yield from stm.d_write(tx, a.values[i + 1], v)
    yield from stm.d_write(tx, a.keys[pos], key)
    yield from stm.d_write(tx, a.values[pos], value)
    yield from stm.d_write(tx, a.count, cnt + 1)
    return NULL_VALUE, False


def d_leaf_delete_stm(tree: BPlusTree, stm: DeviceStm, tx: Tx, leaf: int, key: int):
    """Transactional merge-free delete; returns the old value or NULL."""
    a = tree.views.addrs(leaf)
    cnt = yield from stm.d_read(tx, a.count)
    yield from stm.d_write(tx, a.count, cnt)
    pos = -1
    old = NULL_VALUE
    for slot in range(cnt):
        k = yield from stm.d_read(tx, a.keys[slot])
        yield BRANCH
        if k == key:
            pos = slot
            old = yield from stm.d_read(tx, a.values[slot])
            break
        if k > key:
            return NULL_VALUE
    yield BRANCH
    if pos < 0:
        return NULL_VALUE
    for i in range(pos, cnt - 1):
        k = yield from stm.d_read(tx, a.keys[i + 1])
        v = yield from stm.d_read(tx, a.values[i + 1])
        yield from stm.d_write(tx, a.keys[i], k)
        yield from stm.d_write(tx, a.values[i], v)
    yield from stm.d_write(tx, a.keys[cnt - 1], EMPTY_KEY)
    yield from stm.d_write(tx, a.values[cnt - 1], 0)
    yield from stm.d_write(tx, a.count, cnt - 1)
    return old


# --------------------------------------------------------------------- #
# structure modification (split cascade)
# --------------------------------------------------------------------- #
def node_word_addrs(tree: BPlusTree, node: int) -> range:
    return tree.views.addrs(node).words()


def plan_upsert_nodes(tree: BPlusTree, key: int) -> list[int]:
    """Host-plane, read-only: nodes the upsert of ``key`` may modify.

    The leaf plus every ancestor that would split in cascade (a full node
    propagates the split upward), plus the root when the cascade reaches it.
    """
    path = tree._descend_path(key)
    nodes = [path[-1][0]]
    views = tree.views
    fanout = tree.layout.fanout
    # leaf splits only if full; ancestors join the plan while full
    if views.host(path[-1][0]).count >= fanout:
        for node, _slot in reversed(path[:-1]):
            nodes.append(node)
            if views.host(node).count < fanout:
                break
    return nodes


def d_smo_upsert(
    tree: BPlusTree,
    stm: DeviceStm,
    smo_lock_addr: int,
    owner: int,
    key: int,
    value: int,
):
    """Upsert requiring a split: the structure-modification path.

    Serializes against other SMOs via a device latch, acquires STM ownership
    of every word of every node in the split plan (so no transaction can
    read or write them mid-split), executes the host split instantaneously,
    charges the equivalent stores, invalidates STM versions, releases.
    Returns the old value (NULL_VALUE for a fresh insert).

    Callers MUST have aborted their own transaction before entering:
    spinning on the SMO latch while holding STM word ownership would
    deadlock against the latch holder's ownership acquisition.
    """
    # acquire the SMO latch (one CAS per slot until ours)
    while True:
        got = yield AtomicCAS(smo_lock_addr, FREE, owner + 1)
        yield BRANCH
        if got == FREE:
            break
    try:
        region = stm.region
        owned: list[int] = []

        def acquire_node(node: int):
            """Own every word of ``node``, spinning per word.

            Holding already-acquired words while waiting is deadlock-free:
            ordinary transactions never wait (they abort on any conflict),
            and rival SMOs are excluded by the latch — so each word's owner
            releases in bounded steps and our per-round CAS eventually wins.
            """
            for addr in node_word_addrs(tree, node):
                while True:
                    got = yield AtomicCAS(region.owner_addr(addr), FREE, -(owner + 2))
                    yield BRANCH
                    if got in (FREE, -(owner + 2)):
                        break
                if addr not in owned_set:
                    owned.append(addr)
                    owned_set.add(addr)

        owned_set: set[int] = set()
        # phase 1: freeze the leaf — once its words are ours, its count can
        # no longer change, so the split plan computed next stays valid
        leaf = tree.find_leaf(key)[0]
        yield from acquire_node(leaf)
        # phase 2: plan the cascade (ancestors only SMOs may touch, and we
        # hold the only SMO latch) and own every planned node
        for node in plan_upsert_nodes(tree, key):
            if node != leaf:
                yield from acquire_node(node)
        # every word of the plan is ours: split + insert happen "now"
        old = tree.upsert(key, value)
        # charge the stores the split actually performed and invalidate;
        # nodes freshly allocated by the split were never visible to any
        # concurrent transaction, so only the planned words matter
        touched = list(owned)
        for addr in touched:
            yield Store(addr, int(tree.arena.data[addr]))
        stm.host_invalidate(touched)
        for addr in touched:
            yield Store(region.owner_addr(addr), FREE)
        return old
    finally:
        yield Store(smo_lock_addr, FREE)


# --------------------------------------------------------------------- #
# raw device-plane leaf mutations (caller must hold the leaf latch)
# --------------------------------------------------------------------- #
def d_leaf_upsert_device(tree: BPlusTree, leaf: int, key: int, value: int):
    """In-place upsert with real loads/stores; bumps the node version so
    validated readers retry. Returns (old value, needs_split). Performs no
    mutation when a split would be needed."""
    a = tree.views.addrs(leaf)
    cnt = yield Load(a.count)
    yield BRANCH
    pos = 0
    while pos < cnt:
        k = yield Load(a.keys[pos])
        yield BRANCH
        if k == key:
            old = yield Load(a.values[pos])
            yield Store(a.values[pos], value)
            yield from _d_bump_version(tree, leaf)
            return old, False
        if k > key:
            break
        pos += 1
    yield BRANCH
    if cnt >= tree.layout.fanout:
        return NULL_VALUE, True
    for i in range(cnt - 1, pos - 1, -1):
        k = yield Load(a.keys[i])
        v = yield Load(a.values[i])
        yield Store(a.keys[i + 1], k)
        yield Store(a.values[i + 1], v)
    yield Store(a.keys[pos], key)
    yield Store(a.values[pos], value)
    yield Store(a.count, cnt + 1)
    yield from _d_bump_version(tree, leaf)
    return NULL_VALUE, False


def d_leaf_delete_device(tree: BPlusTree, leaf: int, key: int):
    """In-place merge-free delete; bumps the node version. Returns the old
    value or NULL_VALUE."""
    a = tree.views.addrs(leaf)
    cnt = yield Load(a.count)
    yield BRANCH
    pos = -1
    old = NULL_VALUE
    for slot in range(cnt):
        k = yield Load(a.keys[slot])
        yield BRANCH
        if k == key:
            pos = slot
            old = yield Load(a.values[slot])
            break
        if k > key:
            return NULL_VALUE
    yield BRANCH
    if pos < 0:
        return NULL_VALUE
    for i in range(pos, cnt - 1):
        k = yield Load(a.keys[i + 1])
        v = yield Load(a.values[i + 1])
        yield Store(a.keys[i], k)
        yield Store(a.values[i], v)
    yield Store(a.keys[cnt - 1], EMPTY_KEY)
    yield Store(a.values[cnt - 1], 0)
    yield Store(a.count, cnt - 1)
    yield from _d_bump_version(tree, leaf)
    return old


def _d_bump_version(tree: BPlusTree, node: int):
    addr = tree.views.addrs(node).version
    cur = yield Load(addr)
    yield Store(addr, cur + 1)


# --------------------------------------------------------------------- #
# latch plane (Lock GB-tree)
# --------------------------------------------------------------------- #
def d_node_scan_validated(tree: BPlusTree, latches: LatchTable, node: int, key: int):
    """Reader-side node visit for the lock design: wait for the latch,
    read the version, scan, re-validate. Returns (child slot or -1-if-
    retry-needed, is_leaf)."""
    a = tree.views.addrs(node)
    while True:
        locked = yield from latches.d_is_locked(a.lock)
        if not locked:
            break
    ver_before = yield Load(a.version)
    is_leaf = yield Load(a.leaf)
    yield BRANCH
    slot = yield from d_child_slot(tree, node, key)
    ver_after = yield Load(a.version)
    locked_after = yield from latches.d_is_locked(a.lock)
    yield BRANCH
    if ver_after != ver_before or locked_after:
        return -1, bool(is_leaf)
    return slot, bool(is_leaf)


def d_find_leaf_locked_query(tree: BPlusTree, latches: LatchTable, key: int):
    """Lock-free reader descent with per-node validation; restarts from the
    root when a node changed underneath it. Returns (leaf, steps)."""
    while True:
        node = tree.root
        steps = 1
        ok = True
        while True:
            slot, is_leaf = yield from d_node_scan_validated(tree, latches, node, key)
            yield BRANCH
            if slot < 0:
                ok = False
                break
            if is_leaf:
                return node, steps
            node = yield Load(tree.views.addrs(node).children[slot])
            steps += 1
        if not ok:
            continue


def d_find_leaf_coupling(tree: BPlusTree, latches: LatchTable, key: int, owner: int):
    """Writer descent with latch crabbing: hold the parent latch until the
    child is latched and known safe (non-full). Returns (leaf, steps,
    held) where ``held`` is the list of latched node ids (leaf last)."""
    views = tree.views
    held: list[int] = []
    node = tree.root
    steps = 0
    while True:
        a = views.addrs(node)
        yield from latches.d_acquire(a.lock, owner)
        held.append(node)
        steps += 1
        cnt = yield Load(a.count)
        yield BRANCH
        if cnt < tree.layout.fanout and len(held) > 1:
            # child is safe: release every ancestor latch
            for anc in held[:-1]:
                yield from latches.d_release(views.addrs(anc).lock)
            held = held[-1:]
        is_leaf = yield Load(a.leaf)
        yield BRANCH
        if is_leaf:
            return node, steps, held
        slot = yield from d_child_slot(tree, node, key)
        node = yield Load(a.children[slot])


def d_release_all(tree: BPlusTree, latches: LatchTable, held: list[int]):
    for node in held:
        yield from latches.d_release(tree.views.addrs(node).lock)


def d_leaf_upsert_locked(
    tree: BPlusTree, latches: LatchTable, held: list[int], leaf: int, key: int, value: int
):
    """Upsert under latches (crabbing guarantees every split target is
    held). Mutation executes host-side instantaneously; the node version
    bump makes concurrent validated readers retry; the counted stores are
    charged here. Returns the old value."""
    views = tree.views
    a = views.addrs(leaf)
    cnt = yield Load(a.count)
    yield BRANCH
    # scan for hit (update-in-place fast path)
    for slot in range(cnt):
        k = yield Load(a.keys[slot])
        yield BRANCH
        if k == key:
            old = yield Load(a.values[slot])
            yield Store(a.values[slot], value)
            return old
        if k > key:
            break
    will_split = cnt >= tree.layout.fanout
    old = tree.upsert(key, value)
    # charge the insert's data movement: shifted entries + the new slot
    data = tree.arena.data
    moved = min(cnt + 1, tree.layout.fanout)
    for i in range(moved):
        yield Store(a.keys[i], int(data[a.keys[i]]))
    if will_split:
        # bump versions so validated readers of every held node retry
        for node in held:
            ver = views.addrs(node).version
            yield Store(ver, int(data[ver]))
    yield Alu()
    return old

