"""Locality-aware warp reorganization (§5).

After sorting/combining, adjacent issued requests target the same or
adjacent leaves. Requests are chunked into request groups (RGs) of one warp
width; ``rgs_per_iteration_warp`` *consecutive* RGs form one iteration
warp, executed by a single warp one RG at a time. A warp-shared buffer
carries the previous RG's last leaf (and its RF value); the next RG walks
the leaf chain from there (*horizontal traversal*) instead of descending
from the root, unless its maximal key exceeds the buffered RF value — the
range field that marks where horizontal traversal stops being profitable.

This module holds the grouping structure (shared by both engines) and the
vector engine's exact step computation; the SIMT iteration-warp programs
live in :mod:`repro.core.kernels`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._types import EMPTY_KEY
from ..btree import batch_find_leaf, leaf_rf_values
from ..btree.tree import BPlusTree


@dataclass
class IterationPlan:
    """Grouping of ``n`` key-sorted issued requests into RGs and warps."""

    n: int
    warp_size: int
    rgs_per_warp: int
    rg_start: np.ndarray  # per RG: first request index
    rg_end: np.ndarray  # per RG: one past last
    #: per warp: its first RG; one past the last RG at the end (the
    #: partition is contiguous, so warp ``w`` runs RGs
    #: ``warp_offsets[w]:warp_offsets[w + 1]``)
    warp_offsets: np.ndarray

    @property
    def n_rgs(self) -> int:
        return int(self.rg_start.size)

    @property
    def n_warps(self) -> int:
        return int(self.warp_offsets.size) - 1


def build_iteration_plan(
    n: int, warp_size: int, rgs_per_warp: int, num_sms: int | None = None
) -> IterationPlan:
    """Chunk ``n`` issued requests into RGs and group consecutive RGs.

    §5: "to fully use the computing resources, the RGs are evenly
    distributed to different SMs; then they are organized into iteration
    warps executed on each SM" — grouping must never drop the warp count
    below one per SM, so when ``num_sms`` is given the effective iteration
    depth shrinks for small kernels instead of starving SMs.
    """
    n_rgs = (n + warp_size - 1) // warp_size
    rg_start = np.arange(n_rgs, dtype=np.int64) * warp_size
    rg_end = np.minimum(rg_start + warp_size, n)
    n_warps = (n_rgs + max(rgs_per_warp, 1) - 1) // max(rgs_per_warp, 1)
    if num_sms is not None and n_rgs:
        n_warps = max(n_warps, min(n_rgs, num_sms))
    # contiguous, even partition: RG r goes to warp r * n_warps // n_rgs, so
    # warp w starts at the first r with r * n_warps >= w * n_rgs
    warp_offsets = -(np.arange(n_warps + 1, dtype=np.int64) * -n_rgs // max(n_warps, 1))
    return IterationPlan(
        n=n,
        warp_size=warp_size,
        rgs_per_warp=rgs_per_warp,
        rg_start=rg_start,
        rg_end=rg_end,
        warp_offsets=warp_offsets,
    )


def cross_warp_rf_hazard(plan: IterationPlan, rg_leaf: np.ndarray, rewritten) -> bool:
    """Whether a launch laid out by ``plan`` must be interpreted because of
    its RF words: RG ``r`` ends in leaf ``rg_leaf[r]``, and the launch
    rewrites the RF of the leaves ``rewritten`` (``update_rf``).

    An RG's last lane loads its leaf's RF, and the warp's next RG decides
    by it; the load of a warp's last RG decides nothing. A rewritten RF
    that RGs of two warps load for a decision is a hazard: which warp runs
    first decides what the other's load sees. Within one warp the order is
    fixed, and the warp whose RG rewrites an RF also loads it for that RG's
    decision, so one reading warp is never a hazard.
    """
    reads = np.ones(plan.n_rgs, dtype=bool)
    reads[plan.warp_offsets[1:] - 1] = False
    watched = np.flatnonzero(reads & np.isin(rg_leaf, rewritten))
    warp = np.searchsorted(plan.warp_offsets, watched, side="right") - 1
    pairs = np.unique(np.stack([rg_leaf[watched], warp]), axis=1)
    return bool(np.any(pairs[0, 1:] == pairs[0, :-1]))


@dataclass
class LocalitySteps:
    """Per-request traversal steps under the locality optimization."""

    steps: np.ndarray  # per request: nodes traversed (own lane)
    horizontal: np.ndarray  # per request: took the leaf-chain path
    leaves: np.ndarray  # per request: final leaf
    #: per RG: lockstep cost (max steps over its lanes — SIMT executes the
    #: longest lane's walk)
    rg_lockstep_steps: np.ndarray
    #: per RG whose walk takes more than ``height`` steps, in RG order: its
    #: buffered leaf, whose RF :meth:`BPlusTree.update_rf` rewrites, and the
    #: walk's steps
    rf_leaves: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    rf_steps: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    #: the ``update_rf`` calls made (0 with ``update_rf=False``)
    rf_updates: int = 0


def vector_locality_steps(
    tree: BPlusTree,
    plan: IterationPlan,
    keys: np.ndarray,
    enable_rf: bool = True,
    update_rf: bool = True,
) -> LocalitySteps:
    """Exact traversal-step computation for the vector engine.

    ``keys`` are the issued keys, strictly increasing. Uses the leaf-chain
    index: a horizontal walk from leaf at chain position ``a`` to position
    ``b`` takes ``b - a + 1`` node visits (reading the buffered leaf
    included), versus ``height`` for a vertical descent.

    Every RG's decision is derived at once. An RG has a buffered leaf when
    the previous RG ran in the same warp: that RG's last (largest-key)
    leaf. It walks horizontally when it has one and, with RF on, its max
    key does not exceed the buffered leaf's RF. Each RG whose walk then
    takes more than ``height`` steps records an RF (§5) through
    :meth:`BPlusTree.update_rf`, in RG order; with ``update_rf=False``
    those calls are only listed in ``rf_leaves`` and ``rf_steps``.

    Reading every RF as it stood when the call started is exact. A walk
    longer than ``height`` from buffered chain position ``b`` ends at a
    position past ``b``, so the RG's last leaf, and with it every later
    RG's buffered leaf, lies strictly past ``b``: buffered positions never
    decrease because the keys are increasing. No later RG of the call
    reads the RF written at ``b``.
    """
    keys = np.asarray(keys, dtype=np.int64)
    n = int(keys.size)
    if np.any(keys[1:] <= keys[:-1]):
        raise ValueError("issued keys must be strictly increasing")
    leaves = batch_find_leaf(tree, keys)
    height = tree.height
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return LocalitySteps(
            steps=empty, horizontal=np.zeros(0, dtype=bool), leaves=leaves,
            rg_lockstep_steps=empty,
        )
    chain, chain_pos = tree.leaf_chain()
    leaf_idx = chain_pos[leaves]

    last = plan.rg_end - 1  # key-sorted: an RG's last lane holds its max
    go = np.ones(plan.n_rgs, dtype=bool)
    go[plan.warp_offsets[:-1]] = False  # a warp's first RG has no buffer
    buf_idx = np.concatenate(([-1], leaf_idx[last[:-1]]))
    if enable_rf:
        buf_rf = np.concatenate(([EMPTY_KEY], leaf_rf_values(tree, leaves[last[:-1]])))
        go &= keys[last] <= buf_rf

    rg_of = np.repeat(np.arange(plan.n_rgs), plan.rg_end - plan.rg_start)
    horizontal = go[rg_of]
    steps = np.where(horizontal, leaf_idx - buf_idx[rg_of] + 1, height)
    rg_lockstep = np.maximum.reduceat(steps, plan.rg_start)

    rf_rgs = np.flatnonzero(go & (rg_lockstep > height))
    rf_leaves = chain[buf_idx[rf_rgs]]
    rf_steps = rg_lockstep[rf_rgs]
    if update_rf:
        for leaf, walked in zip(rf_leaves.tolist(), rf_steps.tolist()):
            tree.update_rf(leaf, walked)
    return LocalitySteps(
        steps=steps,
        horizontal=horizontal,
        leaves=leaves,
        rg_lockstep_steps=rg_lockstep,
        rf_leaves=rf_leaves,
        rf_steps=rf_steps,
        rf_updates=rf_rgs.size if update_rf else 0,
    )
