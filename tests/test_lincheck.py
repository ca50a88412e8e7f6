"""Unit tests for the sequential reference and the linearizability checker."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._types import NULL_VALUE, OpKind
from repro.errors import LinearizabilityViolation
from repro.lincheck import (
    SequentialReference,
    check_linearizable,
    compare_results,
    compare_state,
)
from repro.workloads import BatchResults, RequestBatch
from repro.workloads.requests import flatten_scans


def ref_with(keys=(1, 2, 3), values=(10, 20, 30)):
    return SequentialReference(np.array(keys), np.array(values))


class TestSequentialReference:
    def test_query_hit_and_miss(self):
        ref = ref_with()
        batch = RequestBatch.from_ops([(OpKind.QUERY, 2), (OpKind.QUERY, 9)])
        res = ref.execute(batch)
        assert res.values[0] == 20
        assert res.values[1] == NULL_VALUE

    def test_update_returns_old_value(self):
        ref = ref_with()
        batch = RequestBatch.from_ops(
            [(OpKind.UPDATE, 2, 99), (OpKind.QUERY, 2), (OpKind.UPDATE, 2, 100)]
        )
        res = ref.execute(batch)
        assert res.values[0] == 20
        assert res.values[1] == 99
        assert res.values[2] == 99

    def test_delete_then_query_is_null(self):
        ref = ref_with()
        batch = RequestBatch.from_ops([(OpKind.DELETE, 1), (OpKind.QUERY, 1)])
        res = ref.execute(batch)
        assert res.values[0] == 10
        assert res.values[1] == NULL_VALUE

    def test_insert_after_delete(self):
        ref = ref_with()
        batch = RequestBatch.from_ops(
            [(OpKind.DELETE, 1), (OpKind.INSERT, 1, 5), (OpKind.QUERY, 1)]
        )
        res = ref.execute(batch)
        assert res.values[1] == NULL_VALUE  # old value at insert time
        assert res.values[2] == 5

    def test_range_sees_midbatch_updates(self):
        ref = ref_with()
        batch = RequestBatch.from_ops(
            [(OpKind.UPDATE, 2, 99), (OpKind.RANGE, 1, 3), (OpKind.UPDATE, 3, 77)]
        )
        res = ref.execute(batch)
        rk, rv = res.range_result(1)
        assert np.array_equal(rk, [1, 2, 3])
        assert np.array_equal(rv, [10, 99, 30])  # sees the first, not the second

    def test_range_sees_inserts_and_deletes(self):
        ref = ref_with()
        batch = RequestBatch.from_ops(
            [
                (OpKind.INSERT, 4, 40),
                (OpKind.DELETE, 1),
                (OpKind.RANGE, 0, 10),
            ]
        )
        res = ref.execute(batch)
        rk, _ = res.range_result(2)
        assert np.array_equal(rk, [2, 3, 4])

    def test_items_reflect_final_state(self):
        ref = ref_with()
        ref.execute(RequestBatch.from_ops([(OpKind.DELETE, 2), (OpKind.INSERT, 7, 70)]))
        ks, vs = ref.items()
        assert np.array_equal(ks, [1, 3, 7])
        assert np.array_equal(vs, [10, 30, 70])


class DictReference:
    """The one-request-at-a-time replay over a dict that
    :class:`SequentialReference` must equal."""

    def __init__(self, keys, values) -> None:
        self.map = {int(k): int(v) for k, v in zip(keys, values, strict=True)}

    def execute(self, batch: RequestBatch) -> BatchResults:
        results = BatchResults.empty(batch.n)
        scans = []
        for i in range(batch.n):
            kind, key = batch.kinds[i], int(batch.keys[i])
            if kind == OpKind.QUERY:
                results.values[i] = self.map.get(key, NULL_VALUE)
            elif kind in (OpKind.UPDATE, OpKind.INSERT):
                results.values[i] = self.map.get(key, NULL_VALUE)
                self.map[key] = int(batch.values[i])
            elif kind == OpKind.DELETE:
                results.values[i] = self.map.pop(key, NULL_VALUE)
            else:
                rk = sorted(k for k in self.map if key <= k <= int(batch.range_ends[i]))
                scans.append((rk, [self.map[k] for k in rk]))
        results.set_range_results(
            np.flatnonzero(batch.kinds == OpKind.RANGE), *flatten_scans(scans)
        )
        return results

    def items(self):
        ks = sorted(self.map)
        return np.array(ks, dtype=np.int64), np.array([self.map[k] for k in ks], dtype=np.int64)


def assert_same_run(initial, batches) -> None:
    """Both references answer every batch and end in equal states."""
    ref, oracle = SequentialReference(*initial), DictReference(*initial)
    for batch in batches:
        got, want = ref.execute(batch), oracle.execute(batch)
        for name in ("values", "range_offsets", "range_keys", "range_values"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        for got_arr, want_arr in zip(ref.items(), oracle.items(), strict=True):
            assert np.array_equal(got_arr, want_arr)


#: a small key space, so same-key storms and ranges over fresh inserts and
#: deletes are common
KEY_SPACE = 24


@st.composite
def batches(draw):
    n = draw(st.integers(0, 40))
    kinds = draw(st.lists(st.sampled_from(list(OpKind)), min_size=n, max_size=n))
    keys = draw(st.lists(st.integers(0, KEY_SPACE), min_size=n, max_size=n))
    spans = draw(st.lists(st.integers(0, KEY_SPACE // 2), min_size=n, max_size=n))
    values = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n))
    kinds = np.array(kinds, dtype=np.int8)
    keys = np.array(keys, dtype=np.int64)
    return RequestBatch(
        kinds=kinds,
        keys=keys,
        values=np.array(values, dtype=np.int64),
        range_ends=np.where(kinds == OpKind.RANGE, keys + np.array(spans, dtype=np.int64), 0),
    )


class TestArrayStateMatchesDictReplay:
    @settings(max_examples=300, deadline=None)
    @given(
        initial_keys=st.lists(st.integers(0, KEY_SPACE), max_size=20),
        data=st.data(),
        run=st.lists(batches(), max_size=3),
    )
    def test_property_all_kinds(self, initial_keys, data, run):
        # duplicate initial keys are allowed: the last value wins
        values = data.draw(
            st.lists(st.integers(0, 10**6), min_size=len(initial_keys),
                     max_size=len(initial_keys))
        )
        assert_same_run((np.array(initial_keys, dtype=np.int64),
                         np.array(values, dtype=np.int64)), run)

    def test_duplicate_initial_keys_keep_last_value(self):
        ref = ref_with(keys=(5, 1, 5, 1), values=(50, 10, 51, 11))
        assert [a.tolist() for a in ref.items()] == [[1, 5], [11, 51]]

    def test_empty_map_and_empty_batch(self):
        empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert_same_run(empty, [RequestBatch.from_ops([])])
        assert_same_run(empty, [RequestBatch.from_ops(
            [(OpKind.RANGE, 0, 9), (OpKind.QUERY, 3), (OpKind.DELETE, 3)]
        )])

    def test_ranges_straddle_inserts_and_deletes(self):
        batch = RequestBatch.from_ops([
            (OpKind.RANGE, 0, 9), (OpKind.INSERT, 4, 40), (OpKind.QUERY, 4),
            (OpKind.RANGE, 2, 5), (OpKind.RANGE, 3, 4), (OpKind.DELETE, 2),
            (OpKind.DELETE, 4), (OpKind.INSERT, 4, 41), (OpKind.RANGE, 0, 9),
            (OpKind.UPDATE, 3, 33), (OpKind.QUERY, 3),
        ])
        assert_same_run((np.array([1, 2, 3]), np.array([10, 20, 30])), [batch])

    def test_same_key_storm(self):
        ops = [(OpKind.UPDATE, 7, v) if v % 3 else (OpKind.DELETE, 7) for v in range(60)]
        ops += [(OpKind.QUERY, 7), (OpKind.INSERT, 7, 1), (OpKind.RANGE, 7, 7)]
        assert_same_run((np.array([7]), np.array([70])), [RequestBatch.from_ops(ops)] * 2)


class TestChecker:
    def _batch_and_results(self):
        batch = RequestBatch.from_ops([(OpKind.QUERY, 1), (OpKind.RANGE, 1, 3)])
        ref = ref_with()
        expected = ref.execute(batch)
        return batch, expected

    def test_identical_results_pass(self):
        batch, expected = self._batch_and_results()
        rep = compare_results(batch, expected, expected)
        assert rep.ok
        assert rep.n_mismatches == 0

    def test_value_mismatch_detected(self):
        batch, expected = self._batch_and_results()
        got = BatchResults.empty(batch.n)
        got.values[:] = expected.values
        got.values[0] = 999
        got.range_offsets = expected.range_offsets
        got.range_keys = expected.range_keys
        got.range_values = expected.range_values
        rep = compare_results(batch, got, expected)
        assert not rep.ok
        assert rep.value_mismatches == [0]

    def test_range_mismatch_detected(self):
        batch, expected = self._batch_and_results()
        got = BatchResults.empty(batch.n)
        got.values[:] = expected.values
        got.set_range_results([1], [1], [1], [10])  # truncated
        rep = compare_results(batch, got, expected)
        assert not rep.ok
        assert rep.range_mismatches == [1]

    def test_shifted_range_boundary_detected(self):
        batch = RequestBatch.from_ops(
            [(OpKind.RANGE, 1, 2), (OpKind.QUERY, 1), (OpKind.RANGE, 3, 3), (OpKind.RANGE, 1, 3)]
        )
        expected = ref_with().execute(batch)
        assert expected.range_offsets.tolist() == [0, 2, 2, 3, 6]
        got = BatchResults.empty(batch.n)
        got.values[:] = expected.values
        # same flat rows, but key 2 moved from range 0 into range 2
        got.set_range_results(
            [0, 2, 3], [1, 2, 3], expected.range_keys, expected.range_values
        )
        assert np.array_equal(got.range_keys, expected.range_keys)
        rep = compare_results(batch, got, expected)
        assert not rep.ok
        assert rep.range_mismatches == [0, 2]
        assert rep.value_mismatches == []

    def test_range_row_value_mismatch_detected(self):
        batch, expected = self._batch_and_results()
        got = BatchResults.empty(batch.n)
        got.values[:] = expected.values
        got.set_range_results(
            [1], [3], expected.range_keys, expected.range_values + [0, 1, 0]
        )
        assert compare_results(batch, got, expected).range_mismatches == [1]

    def test_state_comparison(self):
        a = (np.array([1, 2]), np.array([10, 20]))
        b = (np.array([1, 2]), np.array([10, 21]))
        assert compare_state(a, a) is None
        assert "value divergence" in compare_state(a, b)
        c = (np.array([1]), np.array([10]))
        assert "size" in compare_state(a, c)

    def test_raise_on_fail(self):
        batch, expected = self._batch_and_results()
        got = BatchResults.empty(batch.n)
        got.values[0] = 999
        with pytest.raises(LinearizabilityViolation):
            check_linearizable(batch, got, expected, raise_on_fail=True)

    def test_describe_mentions_request(self):
        batch, expected = self._batch_and_results()
        got = BatchResults.empty(batch.n)
        got.range_offsets = expected.range_offsets
        got.range_keys = expected.range_keys
        got.range_values = expected.range_values
        got.values[0] = 5
        rep = compare_results(batch, got, expected)
        assert "QUERY" in rep.describe(batch)
