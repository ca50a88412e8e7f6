"""Key-range shard routing.

A :class:`ShardPlan` splits the key space into ``n_shards`` contiguous
ranges at *fence keys* (the same notion as a B+tree node's fence: the
smallest key a shard may hold). A :class:`ShardRouter` partitions one
buffered :class:`~repro.workloads.requests.RequestBatch` into per-shard
sub-batches:

* point requests (query/update/insert/delete) go to the one shard whose
  range covers their key — same-key conflicts therefore always land on the
  same shard, so per-shard timestamp order is enough for global
  linearizability;
* a range query spanning several shards is *split at the fences*: each
  overlapped shard receives a clipped ``[lo, hi]`` sub-range, and the
  merger stitches the per-shard pieces back together in shard order (which
  is key order, so the stitched result is sorted exactly like the
  single-tree answer).

Sub-batches preserve the arrival order of the original batch, so each
shard's pipeline sees its requests at the same relative logical timestamps
as the unsharded system would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._types import OpKind
from ..errors import ConfigError
from ..workloads.requests import RequestBatch

_I64_MIN = np.iinfo(np.int64).min
_I64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class ShardPlan:
    """``n_shards`` contiguous key ranges delimited by ascending fences.

    Shard ``s`` owns keys in ``[lower(s), upper(s))`` where ``lower(0)`` is
    unbounded below and ``upper(n_shards - 1)`` unbounded above; for the
    interior shards the bounds are ``fences[s - 1]`` and ``fences[s]``.
    """

    fences: np.ndarray  # shape (n_shards - 1,), strictly ascending int64

    def __post_init__(self) -> None:
        fences = np.ascontiguousarray(self.fences, dtype=np.int64)
        if fences.ndim != 1:
            raise ConfigError("fences must be a 1-D array")
        if fences.size and np.any(np.diff(fences) <= 0):
            raise ConfigError(f"fences must be strictly ascending, got {fences}")
        object.__setattr__(self, "fences", fences)

    @property
    def n_shards(self) -> int:
        return int(self.fences.size) + 1

    def shard_of(self, keys: np.ndarray | int) -> np.ndarray | int:
        """Owning shard id for each key (vectorized)."""
        out = np.searchsorted(self.fences, np.asarray(keys, dtype=np.int64), side="right")
        return int(out) if np.isscalar(keys) or np.ndim(keys) == 0 else out

    def bounds(self, shard: int) -> tuple[int, int]:
        """Inclusive ``(lo, hi)`` key bounds of ``shard``."""
        if not 0 <= shard < self.n_shards:
            raise ConfigError(f"shard {shard} out of range [0, {self.n_shards})")
        lo = _I64_MIN if shard == 0 else int(self.fences[shard - 1])
        hi = _I64_MAX if shard == self.n_shards - 1 else int(self.fences[shard]) - 1
        return lo, hi

    def check_fences(self, shard_keys: list[np.ndarray]) -> None:
        """Raise unless every shard's keys lie within its own bounds.

        ``shard_keys[s]`` holds the keys of shard ``s``. The ranges are
        disjoint, so this also rules out a key held by two shards.
        """
        for s, keys in enumerate(shard_keys):
            if keys.size == 0:
                continue
            lo, hi = self.bounds(s)
            kmin, kmax = int(keys.min()), int(keys.max())
            if kmin < lo or kmax > hi:
                raise ConfigError(
                    f"shard {s} holds keys outside its range "
                    f"[{lo}, {hi}]: [{kmin}, {kmax}]"
                )

    @classmethod
    def from_pool(cls, pool: np.ndarray, n_shards: int) -> "ShardPlan":
        """Quantile fences over a key pool: each shard starts with an equal
        slice of the loaded keys, so a uniform workload stays balanced."""
        if n_shards < 1:
            raise ConfigError(f"n_shards must be >= 1, got {n_shards}")
        pool = np.unique(np.asarray(pool, dtype=np.int64))
        if n_shards == 1:
            return cls(fences=np.zeros(0, dtype=np.int64))
        if pool.size < n_shards:
            raise ConfigError(
                f"cannot cut {pool.size} distinct keys into {n_shards} shards"
            )
        cut = (np.arange(1, n_shards) * pool.size) // n_shards
        return cls(fences=pool[cut])

    def partition_pool(
        self, keys: np.ndarray, values: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Split a (keys, values) load set into per-shard load sets."""
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        owner = self.shard_of(keys)
        return [
            (keys[owner == s], values[owner == s]) for s in range(self.n_shards)
        ]


@dataclass
class RoutedSubBatch:
    """One shard's slice of a batch.

    ``origin[i]`` is the original batch index of sub-request ``i`` —
    arrival order is preserved, so per-shard logical timestamps respect the
    global buffer order. A cross-shard range query contributes one clipped
    entry to every shard it overlaps (same origin on each).
    """

    shard: int
    batch: RequestBatch
    origin: np.ndarray  # int64 original indices, ascending

    @property
    def n(self) -> int:
        return self.batch.n


class ShardRouter:
    """Partitions request batches across the shards of a :class:`ShardPlan`."""

    def __init__(self, plan: ShardPlan) -> None:
        self.plan = plan

    @property
    def n_shards(self) -> int:
        return self.plan.n_shards

    def route(self, batch: RequestBatch) -> list[RoutedSubBatch]:
        """One sub-batch per shard (possibly empty), arrival order kept."""
        plan = self.plan
        n_shards = plan.n_shards
        if n_shards == 1:
            return [
                RoutedSubBatch(
                    shard=0, batch=batch, origin=np.arange(batch.n, dtype=np.int64)
                )
            ]
        kinds = batch.kinds
        is_range = kinds == OpKind.RANGE
        lo_shard = plan.shard_of(batch.keys)
        # per-request owning shard span: points own exactly [s, s],
        # ranges own [shard_of(lo), shard_of(hi)]
        hi_shard = np.where(is_range, plan.shard_of(batch.range_ends), lo_shard)

        out: list[RoutedSubBatch] = []
        for s in range(n_shards):
            sel = (lo_shard <= s) & (s <= hi_shard)
            idx = np.flatnonzero(sel).astype(np.int64)
            sub = batch.subset(idx)
            # clip cross-shard ranges at this shard's fences
            shard_lo, shard_hi = plan.bounds(s)
            rmask = sub.kinds == OpKind.RANGE
            if np.any(rmask):
                sub = RequestBatch(
                    kinds=sub.kinds,
                    keys=np.where(rmask, np.maximum(sub.keys, shard_lo), sub.keys),
                    values=sub.values,
                    range_ends=np.where(
                        rmask, np.minimum(sub.range_ends, shard_hi), sub.range_ends
                    ),
                )
            out.append(RoutedSubBatch(shard=s, batch=sub, origin=idx))
        return out
