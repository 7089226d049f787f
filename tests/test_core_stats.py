"""The shared latency-statistics helpers (``repro.core.stats``).

One percentile implementation now serves both the streaming model and the
serving subsystem; these tests pin its semantics — linear interpolation,
validation, the summary dataclass — and check the streaming report really
delegates to it (no silent fork of the math).
"""

import numpy as np
import pytest

from repro.core.stats import percentile, summarize_latencies
from repro.core.streaming import StreamingConfig, simulate_stream


class TestPercentile:
    def test_matches_numpy_linear_interpolation(self, seeded_rng):
        values = list(seeded_rng.exponential(1.0, size=200))
        for q in (0, 10, 50, 90, 95, 99, 100):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q)))

    def test_single_value_is_every_percentile(self):
        assert percentile([0.25], 1) == 0.25
        assert percentile([0.25], 99) == 0.25

    def test_empty_and_bad_quantiles_raise(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], -1)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_order_invariant(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(values, 50) == percentile(sorted(values), 50)


class TestLatencySummary:
    def test_summarize(self):
        s = summarize_latencies([0.1, 0.2, 0.3, 0.4])
        assert s.count == 4
        assert s.mean_s == pytest.approx(0.25)
        assert s.p50_s == pytest.approx(0.25)
        assert s.max_s == 0.4

    def test_meets_deadline_quantiles(self):
        # The deadline is judged at p99: a 3 % tail breaks it even though
        # the median and p95 sit far inside.
        values = [0.1] * 97 + [10.0] * 3
        s = summarize_latencies(values)
        assert s.p50_s <= 0.2 and s.p95_s <= 0.2
        assert 0.2 < s.p99_s <= 10.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize_latencies([])


class TestStreamingDelegates:
    """streaming.py keeps its public API but routes through core.stats."""

    def test_report_percentiles_match_shared_math(self):
        report = simulate_stream(StreamingConfig(
            arrival_rate_per_s=5.0, service_time_s=0.1,
            n_servers=2, duration_s=200.0, seed=1))
        assert report.p50 == percentile(report.latencies_s, 50)
        assert report.p99 == percentile(report.latencies_s, 99)

    def test_report_latency_summary(self):
        report = simulate_stream(StreamingConfig(
            arrival_rate_per_s=5.0, service_time_s=0.1,
            n_servers=2, duration_s=100.0, seed=2))
        s = summarize_latencies(report.latencies_s)
        assert s.count == len(report.latencies_s)
        assert s.p99_s == report.p99
