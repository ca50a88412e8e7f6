"""Construction helpers: size one arena for tree + synchronization metadata
and build any system over it.

The STM-based systems (STM GB-tree, Eirene) need ownership/version tables
covering the node region (2 extra words per protected word) plus one SMO
latch word; the Lock GB-tree only needs the per-node lock words already in
the node layout. One factory sizes everything up front so callers never
think about arena arithmetic.
"""

from __future__ import annotations

import numpy as np

from .btree.layout import NodeLayout
from .btree.tree import BPlusTree
from .config import COMBINING_ONLY, DeviceConfig, EireneConfig, FULL_EIRENE, TreeConfig
from .device import DeviceContext
from .errors import MemoryError_
from .memory import MemoryArena
from .stm import StmRegion

#: Eirene ablation variants by name. Each maps to an
#: :class:`~repro.config.EireneConfig` whose feature flags select a
#: different pass list (:func:`repro.core.pipeline.eirene_pass_plan`) —
#: the harness builds every Fig. 11/12 bar through these names, never by
#: branching inside system code.
EIRENE_VARIANTS: dict[str, EireneConfig] = {
    "eirene": FULL_EIRENE,
    "eirene+combining": COMBINING_ONLY,  # Fig. 11's "+ Combining" bar
    "eirene-no-locality": COMBINING_ONLY,
    "eirene-no-rf": EireneConfig(enable_rf_decision=False),
    "eirene-no-ntg": EireneConfig(enable_narrowed_thread_groups=False),
    "eirene-no-partition": EireneConfig(enable_kernel_partition=False),
}


def build_device_tree(
    keys: np.ndarray,
    values: np.ndarray,
    config: TreeConfig | None = None,
    fill_factor: float = 0.7,
    with_stm_tables: bool = True,
    device: DeviceConfig | None = None,
    seed: int = 0,
) -> tuple[DeviceContext, BPlusTree, StmRegion | None, int]:
    """Build a tree inside a fresh :class:`~repro.device.DeviceContext`.

    The context's arena is sized for the tree plus its synchronization
    metadata. Returns ``(devctx, tree, stm_region, smo_lock_addr)``;
    ``stm_region`` is None when ``with_stm_tables`` is False.
    """
    config = config or TreeConfig()
    layout = NodeLayout(fanout=config.fanout)
    max_nodes = BPlusTree.plan_max_nodes(len(keys), config, fill_factor)
    node_words = layout.arena_words(max_nodes)
    total = node_words + (2 * node_words if with_stm_tables else 0) + 64
    arena = MemoryArena(total, words_per_segment=layout.words_per_segment)
    devctx = DeviceContext(arena=arena, device=device, seed=seed)
    tree = BPlusTree.build(keys, values, config, fill_factor, arena=arena)
    region = None
    if with_stm_tables:
        region = StmRegion(arena, tree.layout.base, node_words)
    smo_lock_addr = arena.alloc(1)
    return devctx, tree, region, smo_lock_addr


def grow_node_block(tree: BPlusTree, region: StmRegion, smo_lock_addr: int,
                    max_nodes: int) -> int:
    """Grow the node block of a tree laid out by :func:`build_device_tree`
    to ``max_nodes`` nodes, in place: the STM owner and version tables and
    the SMO latch word behind it move up, the tables grow with it, and
    ``region`` and ``tree.max_nodes`` follow. Node addresses stay. Returns
    the latch word's new address."""
    lay = tree.layout
    old = lay.arena_words(tree.max_nodes)
    delta = lay.arena_words(max_nodes) - old
    if not (region.data_base == lay.base and region.nwords == old
            and lay.base + old <= region.owner_base
            and region.owner_base + old <= region.version_base
            and region.version_base + old <= smo_lock_addr):
        raise MemoryError_("the arena is not laid out as build_device_tree lays it out")
    arena = tree.arena
    arena.insert(lay.base + old, delta)
    arena.insert(region.owner_base + delta + old, delta)
    arena.insert(region.version_base + 2 * delta + old, delta)
    region.owner_base += delta
    region.version_base += 2 * delta
    region.nwords += delta
    tree.max_nodes = max_nodes
    return smo_lock_addr + 3 * delta


def build_tree(
    keys: np.ndarray,
    values: np.ndarray,
    config: TreeConfig | None = None,
    fill_factor: float = 0.7,
    with_stm_tables: bool = True,
) -> tuple[BPlusTree, StmRegion | None, int]:
    """Build a tree in an arena sized for its synchronization metadata.

    Returns ``(tree, stm_region, smo_lock_addr)``; ``stm_region`` is None
    when ``with_stm_tables`` is False. Convenience wrapper over
    :func:`build_device_tree` for callers that don't need the context.
    """
    _, tree, region, smo_lock_addr = build_device_tree(
        keys, values, config, fill_factor, with_stm_tables
    )
    return tree, region, smo_lock_addr


def make_system(
    system: str,
    keys: np.ndarray,
    values: np.ndarray,
    tree_config: TreeConfig | None = None,
    device: DeviceConfig | None = None,
    fill_factor: float = 0.7,
    seed: int = 0,
    **kwargs,
):
    """Build a ready-to-run system by name.

    ``system`` ∈ {"nocc", "stm", "lock", "eirene"} or an Eirene ablation
    variant from :data:`EIRENE_VARIANTS` (e.g. ``"eirene+combining"``,
    ``"eirene-no-partition"``) — variants resolve to an
    :class:`~repro.config.EireneConfig` whose flags select the pass list.
    Extra kwargs go to the system constructor; an explicit ``config=``
    overrides the variant's.
    """
    from .baselines.lock_gbtree import LockGBTree
    from .baselines.nocc import NoCCGBTree
    from .baselines.stm_gbtree import StmGBTree
    from .core.eirene import EireneTree

    name = system.lower()
    if name == "nocc":
        ctx, tree, _, _ = build_device_tree(
            keys, values, tree_config, fill_factor, with_stm_tables=False,
            device=device, seed=seed,
        )
        return NoCCGBTree(tree, devctx=ctx, **kwargs)
    if name == "stm":
        ctx, tree, region, smo = build_device_tree(
            keys, values, tree_config, fill_factor, device=device, seed=seed
        )
        return StmGBTree(tree, region, smo, devctx=ctx, **kwargs)
    if name == "lock":
        ctx, tree, _, _ = build_device_tree(
            keys, values, tree_config, fill_factor, with_stm_tables=False,
            device=device, seed=seed,
        )
        return LockGBTree(tree, devctx=ctx, **kwargs)
    if name in EIRENE_VARIANTS:
        kwargs.setdefault("config", EIRENE_VARIANTS[name])
        ctx, tree, region, smo = build_device_tree(
            keys, values, tree_config, fill_factor, device=device, seed=seed
        )
        return EireneTree(tree, region, smo, devctx=ctx, **kwargs)
    raise ValueError(
        f"unknown system {system!r}; use nocc/stm/lock or one of "
        f"{sorted(EIRENE_VARIANTS)}"
    )
