"""Unit tests for the sequential reference and the linearizability checker."""

import numpy as np
import pytest

from repro._types import NULL_VALUE, OpKind
from repro.errors import LinearizabilityViolation
from repro.lincheck import (
    SequentialReference,
    check_linearizable,
    compare_results,
    compare_state,
)
from repro.workloads import BatchResults, RequestBatch


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
