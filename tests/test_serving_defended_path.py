"""The defended dispatch path against its definition.

The hedge deadline is a percentile of the recent service-time window.
The engine keeps that window sorted as it slides
(:func:`repro.core.stats.slide_sorted`) and reads the percentile with
:func:`repro.core.stats.sorted_percentile`, which must equal
``np.percentile`` bit for bit on every window, ties included.

The digests pin whole runs — report text and batch log — of the
``serve_chaos`` benchmark's fault plan and of the three
``serving_hedged_tail`` legs; they were captured from the implementation
that called ``np.percentile`` on every dispatched batch and read the rare
defense counts back from the registry.
"""

import hashlib
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.cases import _defended_workload
from repro.core.presets import small_msa_system
from repro.core.stats import percentile, slide_sorted, sorted_percentile
from repro.resilience.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
)
from repro.serving import (
    ArrivalPattern,
    AutoscalerConfig,
    DefenseConfig,
    ServingConfig,
    ServingEngine,
    TraceConfig,
)
from repro.telemetry import MetricsRegistry
from tests.test_telemetry_core import metric_value

_QS = (0.5, 1.0, 25.0, 50.0, 95.0, 99.0, 100.0)


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


class TestSortedPercentile:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(min_value=1e-6, max_value=10.0),
                           min_size=1, max_size=64),
           q=st.one_of(st.sampled_from(_QS),
                       st.floats(min_value=0.0, max_value=100.0)))
    def test_equals_numpy_on_any_window(self, values, q):
        expected = percentile(values, q)
        assert _bits(sorted_percentile(sorted(values), q)) == _bits(expected)

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.sampled_from([1e-3, 2e-3, 2e-3, 0.5, 7.25]),
                           min_size=1, max_size=64),
           q=st.sampled_from(_QS))
    def test_equals_numpy_on_tied_windows(self, values, q):
        expected = percentile(values, q)
        assert _bits(sorted_percentile(sorted(values), q)) == _bits(expected)

    def test_every_window_length_and_rank(self):
        rng = np.random.default_rng(28)
        for n in range(1, 65):
            values = list(rng.lognormal(-4.0, 1.0, size=n))
            ordered = sorted(values)
            for q in _QS + tuple(rng.uniform(0.0, 100.0, size=8)):
                assert (_bits(sorted_percentile(ordered, float(q)))
                        == _bits(percentile(values, float(q))))


class TestSlideSorted:
    @settings(max_examples=200, deadline=None)
    @given(stream=st.lists(st.sampled_from([0.25, 0.5, 0.5, 1.0, 3.0]),
                           min_size=1, max_size=200),
           size=st.integers(min_value=1, max_value=64))
    def test_mirror_stays_the_sorted_window(self, stream, size):
        window: deque = deque()
        ordered: list[float] = []
        for i, value in enumerate(stream):
            slide_sorted(window, ordered, value, size)
            assert list(window) == stream[max(0, i + 1 - size):i + 1]
            assert ordered == sorted(window)
            for q in (50.0, 95.0):
                assert (_bits(sorted_percentile(ordered, q))
                        == _bits(percentile(list(window), q)))

    def test_evicting_a_value_held_twice_drops_one_copy(self):
        window: deque = deque()
        ordered: list[float] = []
        for value in (0.5, 0.5, 1.0):
            slide_sorted(window, ordered, value, 3)
        slide_sorted(window, ordered, 2.0, 3)
        assert list(window) == [0.5, 1.0, 2.0]
        assert ordered == [0.5, 1.0, 2.0]


# -- whole runs --------------------------------------------------------------
def _chaos_engine(seed: int, duration: float = 150.0,
                  registry=None) -> ServingEngine:
    """The ``serve_chaos`` benchmark pass: bursty traffic on two pinned
    replicas, a gray failure, a partition and a crash, defenses on."""
    d = duration
    plan = FaultPlan(seed=seed, specs=(
        FaultSpec(kind=FaultKind.GRAY_FAILURE, time=d * 0.15, module="esb",
                  node=0, duration=d * 0.35, magnitude=8.0, probability=0.6),
        FaultSpec(kind=FaultKind.NETWORK_PARTITION, time=d * 0.55,
                  duration=d * 0.12, probability=0.4),
        FaultSpec(kind=FaultKind.NODE_CRASH, time=d * 0.75, module="esb",
                  node=1, duration=d * 0.2),
    ))
    config = ServingConfig(
        trace=TraceConfig(pattern=ArrivalPattern.BURSTY, rate_per_s=200.0,
                          duration_s=d, seed=seed, samples_per_request=32,
                          bronze_fraction=0.25, burst_len_s=1.25,
                          gap_len_s=3.75),
        initial_replicas=2,
        cache_capacity=64,
        autoscaler=AutoscalerConfig(enabled=False),
        defense=DefenseConfig(enabled=True),
    )
    return ServingEngine(config, system=small_msa_system(),
                         fault_injector=FaultInjector(plan),
                         registry=registry)


def _run_digest(report) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(report.to_text().encode())
    h.update(repr(report.batch_log).encode())
    return h.hexdigest()


SERVE_CHAOS_DIGESTS = {
    0: "e46dfd3a2d0cfad624a2d0ba351e95b2",
    1: "2d3a83992c0424b265c99e6e7804cdf4",
    2: "d6cf2c24269f4ea20c854c4f9675cf96",
}

#: ``serving_hedged_tail`` legs at bench seed 0: (quick, defend, hedge).
HEDGED_TAIL_DIGESTS = {
    (True, False, False): "7aa804382b3d2787c5d401f95026f5a0",
    (True, True, False): "a1b2e361a68816472b1dbf69ca61f2b1",
    (True, True, True): "f93d16ef5f1f5d761946355d4964ad4f",
    (False, False, False): "0843d1e09d3b5d233c569fa62629303c",
    (False, True, False): "655755177002d0fd75b2144a16a81c12",
    (False, True, True): "6cb2e9c82c30b1425d929570145e88c9",
}


class TestPinnedRuns:
    @pytest.mark.parametrize("seed", sorted(SERVE_CHAOS_DIGESTS))
    def test_serve_chaos_run_is_pinned(self, seed):
        report = _chaos_engine(seed).run()
        assert report.metrics.hedges_issued > 0
        assert _run_digest(report) == SERVE_CHAOS_DIGESTS[seed]

    @pytest.mark.parametrize("leg", sorted(HEDGED_TAIL_DIGESTS))
    def test_hedged_tail_leg_is_pinned(self, leg):
        quick, defend, hedge = leg
        report = _defended_workload(quick, 0, defend=defend, hedge=hedge)
        assert _run_digest(report) == HEDGED_TAIL_DIGESTS[leg]

    def test_hedging_runs_no_numpy_percentile(self, monkeypatch):
        """Counted work: percentiling an unsorted window costs one
        ``np.percentile`` per dispatched unhedged batch (2 761 on this
        run); the sorted window reads the deadline with none."""
        engine = _chaos_engine(0)
        calls = []
        real = np.percentile

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "percentile", counting)
        report = engine.run()
        monkeypatch.undo()
        assert report.metrics.hedges_issued > 0
        assert len(calls) == 0


class TestRareCounts:
    def test_engines_sharing_a_registry_report_their_own_hedges(self):
        """Each defended report counts its own hedges and wasted seconds;
        the shared registry holds the sum."""
        alone = _chaos_engine(0, duration=40.0).run()
        registry = MetricsRegistry()
        first = _chaos_engine(0, duration=40.0, registry=registry).run()
        second = _chaos_engine(0, duration=40.0, registry=registry).run()
        m = alone.metrics
        assert m.hedges_issued > 0 and m.hedge_wasted_s > 0.0
        for report in (first, second):
            assert report.to_text() == alone.to_text()
            assert report.metrics.hedges_issued == m.hedges_issued
            assert report.duplicate_work_ratio == alone.duplicate_work_ratio
        assert (metric_value(registry, "serving_hedges_total")
                == 2 * m.hedges_issued)

    def test_disabled_registry_still_counts_hedges(self):
        plain = _chaos_engine(1, duration=40.0).run()
        dark = _chaos_engine(1, duration=40.0,
                             registry=MetricsRegistry(enabled=False)).run()
        assert dark.metrics.hedges_issued == plain.metrics.hedges_issued > 0
        assert dark.to_text() == plain.to_text()

    def test_families_exist_only_for_what_was_recorded(self):
        engine = _chaos_engine(2, duration=40.0)
        report = engine.run()
        m, reg = report.metrics, engine.metrics.registry
        assert metric_value(reg, "serving_hedges_total") == m.hedges_issued
        assert metric_value(reg, "serving_hedge_wins_total",
                            side="backup") == m.hedges_backup_won
        assert (metric_value(reg, "serving_hedge_wasted_seconds")
                == m.hedge_wasted_s)
        assert sum(m.breaker_transitions_to.values()) \
            == report.breaker_transitions
        assert sum(m.brownout_transitions_to.values()) \
            == len(report.brownout_path)
        for name in reg.names():
            assert all(inst.value for _, inst in reg.members(name)
                       if name.startswith(("serving_breaker",
                                           "serving_brownout",
                                           "serving_hedges",
                                           "serving_hedge_wins",
                                           "serving_duplicate")))
        assert "serving_duplicate_responses_total" not in reg.names()
