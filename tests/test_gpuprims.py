"""Unit + property tests for the GPU primitives (radix sort, run detection)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpuprims import (
    RadixWork,
    radix_argsort,
    run_heads,
    run_lengths,
    significant_passes,
)

int_arrays = st.lists(st.integers(min_value=0, max_value=2**40), min_size=0, max_size=300)


class TestRadixSort:
    def test_sorted_output(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 2**32, size=1000)
        perm = radix_argsort(keys)
        assert np.all(np.diff(keys[perm]) >= 0)

    def test_stability(self):
        keys = np.array([5, 3, 5, 3, 5], dtype=np.int64)
        perm = radix_argsort(keys)
        # ties keep input order
        assert np.array_equal(perm, [1, 3, 0, 2, 4])

    def test_matches_numpy_stable_argsort(self):
        rng = np.random.default_rng(1)
        keys = rng.integers(0, 50, size=2000)  # many duplicates
        assert np.array_equal(radix_argsort(keys), np.argsort(keys, kind="stable"))

    @given(int_arrays)
    @settings(max_examples=60, deadline=None)
    def test_property_matches_numpy(self, xs):
        keys = np.array(xs, dtype=np.int64)
        assert np.array_equal(radix_argsort(keys), np.argsort(keys, kind="stable"))

    @given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_property_wide_keys_match_numpy(self, xs):
        keys = np.array(xs + xs[::2], dtype=np.int64)  # with duplicates
        assert np.array_equal(radix_argsort(keys), np.argsort(keys, kind="stable"))

    @pytest.mark.parametrize("top", [2**53 - 1, 2**53, 2**63 - 1])
    def test_keys_at_the_index_packing_limit(self, top):
        # 1024 keys need 10 index bits, which leave room for keys below 2**53
        rng = np.random.default_rng(top % 97)
        keys = rng.integers(top - 40, top, size=1024, endpoint=True)
        assert np.array_equal(radix_argsort(keys), np.argsort(keys, kind="stable"))

    def test_empty(self):
        assert radix_argsort(np.zeros(0, dtype=np.int64)).size == 0

    def test_negative_keys_rejected(self):
        with pytest.raises(ValueError):
            radix_argsort(np.array([-1, 2]))

    def test_significant_passes_skips_zero_digits(self):
        assert significant_passes(np.array([0, 255])) == 1
        assert significant_passes(np.array([256])) == 2
        assert significant_passes(np.array([2**32])) == 5

    def test_work_accounting(self):
        w = RadixWork()
        radix_argsort(np.arange(100) * 1000, w)
        assert w.n == 100
        assert w.passes == significant_passes(np.arange(100) * 1000)
        assert w.element_moves == w.passes * 100


class TestCompaction:
    def test_run_heads(self):
        heads = run_heads(np.array([1, 1, 2, 3, 3, 3]))
        assert np.array_equal(heads, [True, False, True, True, False, False])

    def test_run_lengths(self):
        heads = run_heads(np.array([1, 1, 2, 3, 3, 3]))
        starts, lengths = run_lengths(heads)
        assert np.array_equal(starts, [0, 2, 3])
        assert np.array_equal(lengths, [2, 1, 3])

    def test_run_lengths_empty(self):
        starts, lengths = run_lengths(np.zeros(0, dtype=bool))
        assert starts.size == 0 and lengths.size == 0

    @given(st.lists(st.integers(0, 8), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_property_runs_partition_sorted_input(self, xs):
        keys = np.sort(np.array(xs, dtype=np.int64))
        heads = run_heads(keys)
        starts, lengths = run_lengths(heads)
        assert int(lengths.sum()) == keys.size
        # each run holds exactly one distinct key
        for s, ln in zip(starts, lengths, strict=True):
            assert np.unique(keys[s : s + ln]).size == 1
        assert np.unique(keys).size == starts.size
