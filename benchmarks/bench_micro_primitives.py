"""Micro-benchmarks of the substrate primitives (wall-clock, pytest-benchmark).

These time the *simulator's own* hot paths — radix sort, the combining
pass, batch traversal — so regressions in the reproduction
infrastructure are visible independently of the simulated device model.
"""

import numpy as np
import pytest

from repro.core.combining import combine_point_requests
from repro.gpuprims import radix_argsort
from repro.btree import BPlusTree, batch_find_leaf
from repro.config import TreeConfig
from repro.workloads import YcsbWorkload, build_key_pool

N = 2**14


@pytest.fixture(scope="module")
def keys():
    rng = np.random.default_rng(0)
    return rng.integers(0, 2**31, size=N)


@pytest.fixture(scope="module")
def tree_and_batch():
    rng = np.random.default_rng(1)
    pool, values = build_key_pool(2**14, rng)
    tree = BPlusTree.build(pool, values, TreeConfig(fanout=32))
    batch = YcsbWorkload(pool=pool).generate(2**13, rng)
    return tree, batch


def test_radix_argsort(benchmark, keys):
    perm = benchmark(radix_argsort, keys)
    assert np.all(np.diff(keys[perm]) >= 0)


def test_combining_pass(benchmark, tree_and_batch):
    _, batch = tree_and_batch
    plan = benchmark(combine_point_requests, batch)
    assert plan.n_runs >= 1


def test_batch_find_leaf(benchmark, tree_and_batch):
    tree, batch = tree_and_batch
    leaves = benchmark(batch_find_leaf, tree, batch.keys)
    assert leaves.size == batch.n
