"""Unit tests for metrics (QoS stats, throughput)."""

import numpy as np
import pytest

from repro.metrics import (
    ResponseTimeStats,
    ThroughputResult,
    combine,
    response_time_stats,
)


class TestResponseTimeStats:
    def test_uniform_times_have_zero_variance(self):
        stats = response_time_stats(np.full(1000, 2e-9))
        assert stats.variance_fraction == pytest.approx(0.0)
        assert stats.avg_s == pytest.approx(2e-9)

    def test_variance_fraction_matches_paper_definition(self):
        # avg 1.0, max 1.4, min 0.9 -> variance = 40%
        t = np.concatenate([np.full(96, 1.0), [1.4, 1.4, 0.9, 0.9]])
        t = t * (100 / t.sum())  # keep mean 1.0
        stats = response_time_stats(t, trim=0.0)
        assert stats.variance_fraction == pytest.approx(0.4, abs=0.05)

    def test_trim_suppresses_single_outlier(self):
        t = np.full(2000, 1.0)
        t[0] = 100.0
        trimmed = response_time_stats(t, trim=0.005)
        raw = response_time_stats(t, trim=0.0)
        assert trimmed.variance_fraction < raw.variance_fraction

    def test_nan_and_empty_handled(self):
        stats = response_time_stats(np.array([np.nan, np.nan]))
        assert stats.n == 0
        assert stats.variance_fraction == 0.0

    def test_percentiles_ordered(self):
        rng = np.random.default_rng(0)
        stats = response_time_stats(rng.exponential(1e-9, size=5000))
        assert stats.min_s <= stats.p50_s <= stats.p99_s <= stats.max_s

    def test_describe_contains_variance(self):
        stats = response_time_stats(np.full(100, 1e-9))
        assert "variance" in stats.describe()


class TestThroughput:
    def test_per_second(self):
        t = ThroughputResult(requests=1000, seconds=0.5)
        assert t.per_second == 2000
        assert t.mops == pytest.approx(0.002)

    def test_zero_seconds(self):
        assert ThroughputResult(requests=10, seconds=0.0).per_second == 0.0

    def test_combine(self):
        total = combine(
            [ThroughputResult(100, 1.0), ThroughputResult(300, 1.0)]
        )
        assert total.requests == 400
        assert total.per_second == 200.0

    def test_describe(self):
        assert "Mreq/s" in ThroughputResult(10**6, 1.0).describe()

