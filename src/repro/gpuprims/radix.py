"""LSD radix sort over 64-bit keys (the CUB ``DeviceRadixSort`` substitute).

Eirene sorts each request batch by (key, logical timestamp) before the
combining scan (§4.1.1, §7). Because a batch arrives in timestamp order, a
*stable* sort by key alone yields exactly the (key, ts) lexicographic order.

The sort's *cost* is modeled, not executed: :class:`RadixWork` charges one
onesweep pass (histogram, exclusive scan, stable scatter) per significant
8-bit digit, as CUB skips passes whose digits are uniformly zero. A stable
sort's permutation is unique, so the host may compute it any stable way:
it sorts each key packed with its index into one word, or, when the keys
leave no room for the index bits, uses numpy's stable argsort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: digit width in bits; 8 gives 8 passes over int64 keys, matching CUB's
#: default configuration.
DIGIT_BITS = 8


@dataclass
class RadixWork:
    """Work accounting for one radix-sort launch."""

    n: int = 0
    passes: int = 0
    element_moves: int = 0

    def merge(self, other: "RadixWork") -> None:
        self.n += other.n
        self.passes += other.passes
        self.element_moves += other.element_moves


def significant_passes(keys: np.ndarray) -> int:
    """Number of digit passes needed to cover the largest key.

    CUB skips passes whose digits are uniformly zero; we do the same so the
    charged cost tracks the key range actually in use.
    """
    if keys.size == 0:
        return 0
    hi = int(keys.max())
    if hi < 0:
        raise ValueError("radix sort requires non-negative keys")
    p = 1
    while hi >> (p * DIGIT_BITS):
        p += 1
    return p


def radix_argsort(keys: np.ndarray, work: RadixWork | None = None) -> np.ndarray:
    """Stable ascending argsort of non-negative int64 ``keys``.

    Returns the permutation such that ``keys[perm]`` is sorted, ties in
    input order (stability), and charges ``work`` one pass over all ``n``
    keys per significant digit.
    """
    keys = np.asarray(keys, dtype=np.int64)
    n = int(keys.size)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if keys.min() < 0:
        raise ValueError("radix sort requires non-negative keys")
    bits = (n - 1).bit_length()  # of an element index
    if int(keys.max()) >> (63 - bits):
        perm = np.argsort(keys, kind="stable")
    else:
        # key and index packed in one word: the words are distinct and
        # order as (key, index) pairs, so sorting them is a stable sort
        packed = (keys << bits) | np.arange(n)
        packed.sort()
        perm = packed & ((1 << bits) - 1)
    if work is not None:
        npasses = significant_passes(keys)
        work.merge(RadixWork(n=n, passes=npasses, element_moves=npasses * n))
    return perm

