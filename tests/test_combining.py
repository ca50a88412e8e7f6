"""Unit + property tests for combining-based synchronization (§4.1).

The central invariant: executing only the issued requests and propagating
results through the dependence chain is indistinguishable from sequential
timestamp-order execution — for every mix of queries, updates, inserts,
deletes and range queries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._types import NULL_VALUE, OpKind
from repro.core.combining import combine_point_requests, propagate_results
from repro.core.range_combining import (
    apply_range_patches,
    plan_range_patches,
)
from repro.lincheck import SequentialReference, check_linearizable
from repro.workloads import BatchResults, RequestBatch
from repro.workloads.requests import flatten_scans

KINDS = [OpKind.QUERY, OpKind.UPDATE, OpKind.INSERT, OpKind.DELETE]


def simulate_issued(plan, init_state):
    """Execute only the issued requests against a dict; returns old values."""
    state = dict(init_state)
    old_vals = np.full(plan.n_runs, NULL_VALUE, dtype=np.int64)
    for r in range(plan.n_runs):
        k = int(plan.issued_keys[r])
        kind = int(plan.issued_kinds[r])
        old_vals[r] = state.get(k, NULL_VALUE)
        if kind in (OpKind.UPDATE, OpKind.INSERT):
            state[k] = int(plan.issued_values[r])
        elif kind == OpKind.DELETE:
            state.pop(k, None)
    return old_vals, state


def install_raw_scans(batch, init_state, results):
    """Range queries scan the PRE-batch state (the query kernel runs first)."""
    range_idx = np.flatnonzero(batch.kinds == OpKind.RANGE)
    scans = []
    for i in range_idx:
        lo, hi = int(batch.keys[i]), int(batch.range_ends[i])
        rk = np.array([k for k in sorted(init_state) if lo <= k <= hi], dtype=np.int64)
        scans.append((rk, np.array([init_state[int(k)] for k in rk], dtype=np.int64)))
    results.set_range_results(range_idx, *flatten_scans(scans))
    return {int(i): scan for i, scan in zip(range_idx, scans)}


def oracle_plan_range_patches(batch, plan):
    """Reference: one artificial query per (range, run), found by a
    per-range, per-run scan of the run's writes."""
    out_pos, out_key, out_val = [], [], []
    if plan.n_runs == 0:
        return out_pos, out_key, out_val
    run_keys = plan.sorted_keys[plan.run_start]
    for i in np.flatnonzero(batch.kinds == OpKind.RANGE):
        lo, hi = int(batch.keys[i]), int(batch.range_ends[i])
        for r in range(plan.n_runs):
            if not lo <= run_keys[r] <= hi:
                continue
            members = np.flatnonzero(plan.run_id == r)
            writes = [
                m for m in members
                if plan.sorted_kinds[m] != OpKind.QUERY and plan.sorted_orig[m] < i
            ]
            if not writes:
                continue  # no earlier write: old value, no patch
            w = writes[-1]
            out_pos.append(int(i))
            out_key.append(int(run_keys[r]))
            deleted = plan.sorted_kinds[w] == OpKind.DELETE
            out_val.append(NULL_VALUE if deleted else int(plan.sorted_values[w]))
    return out_pos, out_key, out_val


def oracle_apply_range_patches(raw, patches):
    """Reference: merge each range's patches into a dict of its raw scan."""
    out = {}
    for pos, (ks, vs) in raw.items():
        merged = {int(k): int(v) for k, v in zip(ks, vs)}
        for p, k, v in zip(*patches):
            if p != pos:
                continue
            if v == NULL_VALUE:
                merged.pop(k, None)
            else:
                merged[k] = v
        out[pos] = sorted(merged.items())
    return out


class TestCombineStructure:
    def test_paper_example_fig3(self):
        # Fig. 3: Q4@T2 U(4,a)@T3 Q4@T5 U(4,b)@T6, U(5,f)@T1 U(5,e)@T7,
        #         Q1@T4 Q1@T8  (timestamps = arrival order below)
        batch = RequestBatch.from_ops(
            [
                (OpKind.UPDATE, 5, 106),  # T1: U(5,f)
                (OpKind.QUERY, 4),        # T2: Q4
                (OpKind.UPDATE, 4, 101),  # T3: U(4,a)
                (OpKind.QUERY, 1),        # T4: Q1
                (OpKind.QUERY, 4),        # T5: Q4
                (OpKind.UPDATE, 4, 102),  # T6: U(4,b)
                (OpKind.UPDATE, 5, 105),  # T7: U(5,e)
                (OpKind.QUERY, 1),        # T8: Q1
            ]
        )
        plan = combine_point_requests(batch)
        assert plan.n_runs == 3
        # key 1: all queries -> last query issued (T8, index 7)
        # key 4: mixed -> last update issued (T6, index 5)
        # key 5: all updates -> last update issued (T7, index 6)
        issued = {int(k): int(o) for k, o in zip(plan.issued_keys, plan.issued_orig)}
        assert issued == {1: 7, 4: 5, 5: 6}

        init = {1: 11, 4: 40, 5: 50}
        old_vals, state = simulate_issued(plan, init)
        results = BatchResults.empty(batch.n)
        propagate_results(plan, old_vals, results)
        # Q4@T2 sees the old value; Q4@T5 sees U(4,a)'s value
        assert results.values[1] == 40
        assert results.values[4] == 101
        # both Q1 see the old value
        assert results.values[3] == results.values[7] == 11
        # final state: key4 -> b(102), key5 -> e(105)
        assert state == {1: 11, 4: 102, 5: 105}

    def test_all_query_run_issues_largest_timestamp(self):
        batch = RequestBatch.from_ops([(OpKind.QUERY, 9)] * 5)
        plan = combine_point_requests(batch)
        assert plan.n_runs == 1
        assert plan.issued_orig[0] == 4
        assert plan.n_combined == 4

    def test_all_update_run_issues_last_update(self):
        batch = RequestBatch.from_ops([(OpKind.UPDATE, 9, v) for v in (1, 2, 3)])
        plan = combine_point_requests(batch)
        assert plan.issued_values[0] == 3

    def test_delete_then_query_dependence(self):
        batch = RequestBatch.from_ops(
            [(OpKind.DELETE, 5), (OpKind.QUERY, 5), (OpKind.UPDATE, 5, 9)]
        )
        plan = combine_point_requests(batch)
        results = BatchResults.empty(3)
        propagate_results(plan, np.array([77]), results)  # old value was 77
        assert results.values[0] == 77  # delete returns the old value
        assert results.values[1] == NULL_VALUE  # query after delete
        assert results.values[2] == NULL_VALUE  # update after delete: old = null

    def test_one_issued_request_per_key(self):
        rng = np.random.default_rng(0)
        batch = RequestBatch.from_ops(
            [(OpKind.QUERY, int(k)) for k in rng.integers(0, 30, 300)]
        )
        plan = combine_point_requests(batch)
        assert np.unique(plan.issued_keys).size == plan.n_runs
        assert plan.n_runs == np.unique(batch.keys).size

    def test_empty_batch(self):
        batch = RequestBatch.from_ops([(OpKind.RANGE, 1, 5)])
        plan = combine_point_requests(batch)  # no point requests
        assert plan.n_point == 0
        assert plan.n_runs == 0
        propagate_results(plan, np.zeros(0, dtype=np.int64), BatchResults.empty(1))

    def test_sort_work_recorded(self):
        batch = RequestBatch.from_ops([(OpKind.QUERY, k) for k in range(100)])
        plan = combine_point_requests(batch)
        assert plan.work.sort.n == 100
        assert plan.work.sort.passes >= 1


@st.composite
def random_batches(draw):
    n = draw(st.integers(1, 80))
    n_keys = draw(st.integers(1, 10))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(KINDS + [OpKind.RANGE]))
        key = draw(st.integers(0, n_keys - 1))
        if kind in (OpKind.UPDATE, OpKind.INSERT):
            ops.append((kind, key, draw(st.integers(1, 99))))
        elif kind == OpKind.RANGE:
            hi = draw(st.integers(key, n_keys + 2))
            ops.append((kind, key, hi))
        else:
            ops.append((kind, key))
    init_keys = draw(st.lists(st.integers(0, n_keys - 1), unique=True, max_size=n_keys))
    return ops, init_keys


class TestLinearizabilityProperty:
    @given(random_batches())
    @settings(max_examples=120, deadline=None)
    def test_combining_equals_sequential_execution(self, data):
        ops, init_keys = data
        batch = RequestBatch.from_ops(ops)
        init_k = np.array(sorted(init_keys), dtype=np.int64)
        init_v = init_k * 100 + 7
        ref = SequentialReference(init_k, init_v)
        expected = ref.execute(batch)

        plan = combine_point_requests(batch)
        init_state = dict(zip(init_k.tolist(), init_v.tolist()))
        got = BatchResults.empty(batch.n)
        install_raw_scans(batch, init_state, got)
        old_vals, final_state = simulate_issued(plan, init_state)
        propagate_results(plan, old_vals, got)
        apply_range_patches(batch, plan_range_patches(batch, plan), got)

        rep = check_linearizable(batch, got, expected)
        assert rep.ok, rep.describe(batch)
        # final states agree too
        ek, ev = ref.items()
        gk = np.array(sorted(final_state), dtype=np.int64)
        gv = np.array([final_state[int(k)] for k in gk], dtype=np.int64)
        assert np.array_equal(gk, ek)
        assert np.array_equal(gv, ev)


class TestRangePatches:
    def test_paper_example_fig5(self):
        # U(4,b)@T1, R(3,6)@T2, Q3@T3, Q4@T4, U(4,e)@T5, U(6,a)@T6
        batch = RequestBatch.from_ops(
            [
                (OpKind.UPDATE, 4, 1002),  # b
                (OpKind.RANGE, 3, 6),
                (OpKind.QUERY, 3),
                (OpKind.QUERY, 4),
                (OpKind.UPDATE, 4, 1005),  # e
                (OpKind.UPDATE, 6, 1001),  # a
            ]
        )
        plan = combine_point_requests(batch)
        patches = plan_range_patches(batch, plan)
        # key 4 patched to U(4,b)'s value (the write before T2); key 6 has
        # no write before T2, so no patch (it keeps 6_val)
        assert patches.range_pos.tolist() == [1]
        assert patches.keys.tolist() == [4]
        assert patches.values.tolist() == [1002]

    def test_delete_patch_removes_key(self):
        batch = RequestBatch.from_ops(
            [(OpKind.DELETE, 2), (OpKind.RANGE, 1, 3)]
        )
        plan = combine_point_requests(batch)
        patches = plan_range_patches(batch, plan)
        results = BatchResults.empty(2)
        results.set_range_results([1], [3], [1, 2, 3], [10, 20, 30])
        apply_range_patches(batch, patches, results)
        rk, rv = results.range_result(1)
        assert np.array_equal(rk, [1, 3])

    def test_insert_patch_adds_key(self):
        batch = RequestBatch.from_ops(
            [(OpKind.INSERT, 2, 22), (OpKind.RANGE, 1, 3)]
        )
        plan = combine_point_requests(batch)
        patches = plan_range_patches(batch, plan)
        results = BatchResults.empty(2)
        results.set_range_results([1], [2], [1, 3], [10, 30])
        apply_range_patches(batch, patches, results)
        rk, rv = results.range_result(1)
        assert np.array_equal(rk, [1, 2, 3])
        assert rv[1] == 22

    def test_range_before_all_updates_needs_no_patch(self):
        batch = RequestBatch.from_ops(
            [(OpKind.RANGE, 1, 3), (OpKind.UPDATE, 2, 99)]
        )
        plan = combine_point_requests(batch)
        patches = plan_range_patches(batch, plan)
        assert patches.n == 0

    def test_no_ranges_no_patches(self):
        batch = RequestBatch.from_ops([(OpKind.UPDATE, 2, 9)])
        plan = combine_point_requests(batch)
        assert plan_range_patches(batch, plan).n == 0


@st.composite
def patch_batches(draw):
    """Batches stressing range patching: few hot keys (duplicate writes,
    delete-then-reinsert chains), overlapping ranges, ranges over key gaps
    with no run and ranges that arrive before every write."""
    n_keys = draw(st.integers(1, 12))
    hot = draw(st.lists(st.integers(0, n_keys), min_size=1, max_size=4, unique=True))
    ops = []
    for _ in range(draw(st.integers(1, 60))):
        kind = draw(st.sampled_from(KINDS + [OpKind.RANGE, OpKind.RANGE]))
        key = draw(st.sampled_from(hot)) if draw(st.booleans()) else draw(
            st.integers(0, n_keys)
        )
        if kind in (OpKind.UPDATE, OpKind.INSERT):
            ops.append((kind, key, draw(st.integers(1, 99))))
        elif kind == OpKind.RANGE:
            ops.append((kind, key, draw(st.integers(key, n_keys + 3))))
        else:
            ops.append((kind, key))
    if draw(st.booleans()):
        ops.insert(0, (OpKind.RANGE, 0, n_keys + 3))  # before every write
    init_keys = draw(st.lists(st.integers(0, n_keys), unique=True, max_size=n_keys + 1))
    return ops, init_keys


def check_against_oracle(ops, init_keys):
    batch = RequestBatch.from_ops(ops)
    plan = combine_point_requests(batch)
    init_state = {k: k * 100 + 7 for k in init_keys}
    results = BatchResults.empty(batch.n)
    raw = install_raw_scans(batch, init_state, results)

    patches = plan_range_patches(batch, plan)
    want = oracle_plan_range_patches(batch, plan)
    assert patches.range_pos.tolist() == want[0]
    assert patches.keys.tolist() == want[1]
    assert patches.values.tolist() == want[2]
    for arr in (patches.range_pos, patches.keys, patches.values):
        assert arr.dtype == np.int64

    apply_range_patches(batch, patches, results)
    merged = oracle_apply_range_patches(raw, want)
    counts = np.zeros(batch.n, dtype=np.int64)
    for pos, rows in merged.items():
        counts[pos] = len(rows)
    assert results.range_offsets.tolist() == [0] + np.cumsum(counts).tolist()
    rows = [row for pos in sorted(merged) for row in merged[pos]]
    assert results.range_keys.tolist() == [k for k, _ in rows]
    assert results.range_values.tolist() == [v for _, v in rows]


class TestRangePatchOracle:
    @given(patch_batches())
    @settings(max_examples=150, deadline=None)
    def test_plan_and_patched_csr_match_oracle(self, data):
        check_against_oracle(*data)

    @pytest.mark.parametrize(
        "ops, init_keys",
        [
            # duplicate writes to one key, overlapping ranges
            (
                [(OpKind.UPDATE, 3, 1), (OpKind.RANGE, 1, 5), (OpKind.UPDATE, 3, 2),
                 (OpKind.RANGE, 2, 3), (OpKind.RANGE, 3, 9), (OpKind.UPDATE, 4, 5)],
                [1, 3, 4],
            ),
            # ranges covering no run: between, below and above the written keys
            (
                [(OpKind.UPDATE, 2, 1), (OpKind.UPDATE, 8, 1), (OpKind.RANGE, 3, 7),
                 (OpKind.RANGE, 0, 1), (OpKind.RANGE, 9, 20)],
                [0, 5, 9],
            ),
            # ranges that come before every write
            (
                [(OpKind.RANGE, 0, 9), (OpKind.RANGE, 4, 4), (OpKind.DELETE, 4),
                 (OpKind.INSERT, 6, 60)],
                [4, 5],
            ),
            # delete-then-reinsert chains, a range after each step
            (
                [(OpKind.DELETE, 5), (OpKind.RANGE, 0, 9), (OpKind.INSERT, 5, 51),
                 (OpKind.RANGE, 5, 5), (OpKind.DELETE, 5), (OpKind.RANGE, 4, 6),
                 (OpKind.INSERT, 5, 52), (OpKind.QUERY, 5), (OpKind.RANGE, 0, 9)],
                [4, 5, 6],
            ),
        ],
        ids=["duplicates-overlap", "no-run", "before-writes", "delete-reinsert"],
    )
    def test_targeted_cases_match_oracle(self, ops, init_keys):
        check_against_oracle(ops, init_keys)
