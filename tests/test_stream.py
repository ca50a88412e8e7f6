"""Tests for the buffered request service (§7 front-end)."""

import numpy as np
import pytest

from repro import EMPTY_KEY, NULL_VALUE, build_key_pool, make_system, TreeConfig
from repro.core.stream import DEFAULT_BATCH_THRESHOLD, EireneService
from repro.errors import WorkloadError


@pytest.fixture
def service(rng):
    keys, values = build_key_pool(512, rng)
    sys_ = make_system("eirene", keys, values, tree_config=TreeConfig(fanout=8))
    return EireneService(sys_, batch_threshold=16), keys, values


class TestBuffering:
    def test_requests_buffer_until_threshold(self, service):
        svc, keys, _ = service
        tickets = [svc.submit_query(int(keys[i])) for i in range(15)]
        assert svc.pending == 15
        assert not tickets[0].done
        svc.submit_query(int(keys[0]))  # 16th: triggers the batch
        assert svc.pending == 0
        assert all(t.done for t in tickets)
        assert svc.batches_processed == 1

    def test_flush_processes_partial_batch(self, service):
        svc, keys, values = service
        t = svc.submit_query(int(keys[3]))
        assert svc.flush() is not None
        assert t.value() == int(values[3])

    def test_flush_empty_is_noop(self, service):
        svc, _, _ = service
        assert svc.flush() is None
        assert svc.batches_processed == 0

    def test_unresolved_ticket_raises(self, service):
        svc, keys, _ = service
        t = svc.submit_query(int(keys[0]))
        with pytest.raises(WorkloadError):
            t.value()


class TestSemantics:
    def test_update_returns_old_value(self, service):
        svc, keys, values = service
        k = int(keys[7])
        t1 = svc.submit_update(k, 999)
        t2 = svc.submit_query(k)
        t3 = svc.submit_update(k, 1000)
        svc.flush()
        assert t1.value() == int(values[7])
        assert t2.value() == 999  # sees the first update (timestamp order)
        assert t3.value() == 999

    def test_delete_then_query_in_one_batch(self, service):
        svc, keys, _ = service
        k = int(keys[2])
        td = svc.submit_delete(k)
        tq = svc.submit_query(k)
        svc.flush()
        assert td.value() != NULL_VALUE
        assert tq.value() == NULL_VALUE

    def test_insert_visible_across_batches(self, service):
        svc, keys, _ = service
        fresh = int(keys.max()) + 10
        svc.submit_insert(fresh, 42)
        svc.flush()
        t = svc.submit_query(fresh)
        svc.flush()
        assert t.value() == 42

    def test_range_ticket(self, service):
        svc, keys, values = service
        lo, hi = int(keys[10]), int(keys[14])
        t = svc.submit_range(lo, hi)
        svc.flush()
        ks, vs = t.range_items()
        ref = (keys >= lo) & (keys <= hi)
        assert np.array_equal(ks, keys[ref])
        assert np.array_equal(vs, values[ref])

    def test_range_sees_same_batch_update_before_it(self, service):
        svc, keys, _ = service
        k = int(keys[10])
        svc.submit_update(k, 7777)
        t = svc.submit_range(k, k)
        svc.flush()
        ks, vs = t.range_items()
        assert list(vs) == [7777]

    def test_point_ticket_rejects_range_accessors(self, service):
        svc, keys, _ = service
        tq = svc.submit_query(int(keys[0]))
        tr = svc.submit_range(int(keys[0]), int(keys[1]))
        svc.flush()
        with pytest.raises(WorkloadError):
            tq.range_items()
        with pytest.raises(WorkloadError):
            tr.value()

    def test_empty_range_rejected(self, service):
        svc, _, _ = service
        with pytest.raises(WorkloadError):
            svc.submit_range(10, 5)

    @pytest.mark.parametrize("key", [-1, EMPTY_KEY], ids=["minus-1", "empty-key"])
    def test_out_of_range_key_rejected_before_buffering(self, service, key):
        svc, keys, values = service
        earlier = [svc.submit_query(int(keys[i])) for i in range(3)]
        for submit in (svc.submit_query, svc.submit_delete,
                       lambda k: svc.submit_update(k, 1), lambda k: svc.submit_range(k, k)):
            with pytest.raises(WorkloadError):
                submit(key)
            assert svc.pending == 3
        assert svc.flush() is not None
        assert [t.value() for t in earlier] == values[:3].tolist()


class TestAccounting:
    def test_outcomes_accumulate(self, service):
        svc, keys, _ = service
        for i in range(40):  # crosses the threshold twice
            svc.submit_query(int(keys[i % keys.size]))
        svc.flush()
        assert svc.batches_processed >= 2
        assert svc.requests_processed == 40
        assert len(svc.outcomes) == svc.batches_processed

    def test_default_threshold(self, rng):
        keys, values = build_key_pool(128, rng)
        sys_ = make_system("eirene", keys, values, tree_config=TreeConfig(fanout=8))
        assert EireneService(sys_).batch_threshold == DEFAULT_BATCH_THRESHOLD
        with pytest.raises(WorkloadError):
            EireneService(sys_, batch_threshold=0)
