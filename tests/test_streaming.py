"""The (near) real-time RS pipeline (Fig. 3 A) on the DES engine."""

import numpy as np
import pytest

from repro.core import streaming
from repro.core.streaming import (
    StreamingConfig,
    capacity_for_deadline,
    simulate_stream,
)


def cfg(**kw):
    defaults = dict(arrival_rate_per_s=2.0, service_time_s=0.4,
                    n_servers=2, duration_s=500.0, seed=0)
    defaults.update(kw)
    return StreamingConfig(**defaults)


class TestConfig:
    def test_offered_load(self):
        assert cfg().offered_load == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            cfg(arrival_rate_per_s=0.0)
        with pytest.raises(ValueError):
            cfg(service_time_s=-1.0)
        with pytest.raises(ValueError):
            cfg(n_servers=0)
        with pytest.raises(ValueError):
            cfg(duration_s=0.0)


class TestSimulation:
    def test_completes_roughly_rate_times_duration(self):
        report = simulate_stream(cfg())
        expected = 2.0 * 500.0
        assert 0.85 * expected < report.n_completed < 1.15 * expected

    def test_latency_at_least_service_time(self, monkeypatch):
        monkeypatch.setattr(streaming, "SERVICE_JITTER", 0.0)
        report = simulate_stream(cfg())
        assert report.latencies_s.min() >= 0.4 - 1e-9

    def test_underloaded_system_has_low_latency(self):
        report = simulate_stream(cfg(n_servers=8))
        assert report.p50 < 0.6            # barely above one service time
        assert report.utilisation < 0.2

    def test_overloaded_system_queues_grow(self):
        light = simulate_stream(cfg(n_servers=4))
        heavy = simulate_stream(cfg(arrival_rate_per_s=12.0, n_servers=4))
        assert heavy.p99 > light.p99 * 2
        assert heavy.max_queue_depth > light.max_queue_depth

    def test_utilisation_tracks_offered_load(self):
        config = cfg(arrival_rate_per_s=3.0, n_servers=2,
                     duration_s=2000.0)
        report = simulate_stream(config)
        assert report.utilisation == pytest.approx(config.offered_load,
                                                   rel=0.15)

    def test_deterministic(self):
        a = simulate_stream(cfg())
        b = simulate_stream(cfg())
        np.testing.assert_array_equal(a.latencies_s, b.latencies_s)

    def test_more_servers_never_hurt_latency(self):
        p99s = [simulate_stream(cfg(arrival_rate_per_s=6.0,
                                    n_servers=n)).p99
                for n in (3, 6, 12)]
        assert p99s[0] >= p99s[1] >= p99s[2] * 0.9

    def test_percentiles_and_deadline(self):
        report = simulate_stream(cfg(n_servers=8))
        assert report.p50 <= report.p99
        assert report.meets_deadline(10.0)
        assert not report.meets_deadline(0.01)

    def test_empty_report_percentile_raises(self):
        report = simulate_stream(cfg(arrival_rate_per_s=1e-4,
                                     duration_s=1.0))
        if report.n_completed == 0:
            with pytest.raises(ValueError):
                report.p99


class TestCapacityPlanning:
    def test_finds_minimal_capacity(self):
        n, report = capacity_for_deadline(
            arrival_rate_per_s=5.0, service_time_s=0.5, deadline_s=1.5)
        assert n >= 3                      # λ·s = 2.5 is the hard floor
        assert report.meets_deadline(1.5)

    def test_tighter_deadline_needs_more_servers(self):
        loose, _ = capacity_for_deadline(5.0, 0.5, deadline_s=5.0)
        tight, _ = capacity_for_deadline(5.0, 0.5, deadline_s=0.8)
        assert tight >= loose

    def test_impossible_deadline_rejected(self):
        with pytest.raises(ValueError):
            capacity_for_deadline(1.0, 1.0, deadline_s=0.5)

    def test_capacity_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(streaming, "PLANNING_DURATION_S", 20.0)
        with pytest.raises(RuntimeError):
            # Jitter puts p99 service above 1.05 s on any pool size.
            capacity_for_deadline(20.0, 1.0, deadline_s=1.05)
