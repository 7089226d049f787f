"""End-to-end serving engine tests: determinism, SLOs, failover.

The acceptance criteria of the subsystem live here:

* same seed → **byte-identical** serving report,
* accounting conservation — nothing admitted is ever lost,
* a replica crash mid-run drains its in-flight requests to survivors
  (zero loss, honestly counted deadline misses),
* the autoscaler meets an SLO a pinned single replica misses,
* the cache and coalescer change latency, never correctness.
"""

import pytest

from repro.resilience.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
)
from repro.serving import (
    AdmissionPolicy,
    ArrivalPattern,
    AutoscalerConfig,
    DefenseConfig,
    ServingConfig,
    ServingEngine,
    ServingMetrics,
    TraceConfig,
    simulate_serving,
)
from repro.telemetry import MetricsRegistry

HEAVY = 32           # samples/request that puts 1 ESB replica near ~95 req/s


def _config(rate=120.0, duration=20.0, seed=0, samples=HEAVY, replicas=1,
            autoscale=True, max_replicas=8, cache=0, pattern="poisson",
            admission=None, defend=False):
    return ServingConfig(
        trace=TraceConfig(pattern=ArrivalPattern(pattern), rate_per_s=rate,
                          duration_s=duration, samples_per_request=samples,
                          seed=seed, key_universe=1 << 20),
        admission=admission if admission is not None else AdmissionPolicy(),
        autoscaler=AutoscalerConfig(enabled=autoscale, min_replicas=replicas,
                                    max_replicas=max_replicas),
        initial_replicas=replicas,
        cache_capacity=cache,
        defense=DefenseConfig(enabled=defend),
    )


def _crash_plan(*times, module="esb", repair=5.0):
    return FaultPlan(seed=0, specs=tuple(
        FaultSpec(kind=FaultKind.NODE_CRASH, time=t, module=module,
                  node=i, duration=repair)
        for i, t in enumerate(times)))


class TestDeterminism:
    @pytest.mark.parametrize("pattern", ["poisson", "diurnal", "bursty"])
    def test_same_seed_byte_identical_report(self, make_small_system,
                                             pattern):
        cfg = _config(pattern=pattern, seed=7, cache=256)
        a = simulate_serving(cfg, system=make_small_system())
        b = simulate_serving(cfg, system=make_small_system())
        assert a.to_text() == b.to_text()
        assert a.batch_log == b.batch_log
        assert a.scale_events == b.scale_events

    def test_same_seed_identical_under_faults(self, make_small_system):
        cfg = _config(seed=3, replicas=2)
        runs = []
        for _ in range(2):
            runs.append(simulate_serving(
                cfg, system=make_small_system(),
                fault_injector=FaultInjector(_crash_plan(4.0, 9.0))))
        assert runs[0].to_text() == runs[1].to_text()
        assert runs[0].failover_events == runs[1].failover_events

    def test_different_seed_different_outcome(self, make_small_system):
        a = simulate_serving(_config(seed=1), system=make_small_system())
        b = simulate_serving(_config(seed=2), system=make_small_system())
        assert a.to_text() != b.to_text()

    def test_engine_runs_exactly_once(self, small_system):
        engine = ServingEngine(_config(duration=5.0), system=small_system)
        engine.run()
        with pytest.raises(RuntimeError):
            engine.run()


class TestLiveEventsOnly:
    def test_pending_events_stay_far_below_the_trace_length(self,
                                                            small_system):
        # Arrivals stream through Simulator.timeout_series: the heap
        # holds the next arrival plus in-flight work, never the trace.
        eng = ServingEngine(_config(rate=300.0, duration=20.0, samples=1,
                                    cache=128), system=small_system)
        n = len(eng.requests)
        assert n >= 5000
        peaks = []
        on_arrival = eng._on_arrival

        def sampling(evt):
            peaks.append(eng.sim.pending)
            on_arrival(evt)

        eng._on_arrival = sampling
        report = eng.run()
        assert len(peaks) == n == report.metrics.offered
        assert max(peaks) <= n // 10


class TestAccounting:
    def test_conservation_no_faults(self, small_system):
        rep = simulate_serving(_config(seed=5), system=small_system)
        m = rep.metrics
        assert m.offered > 0
        assert m.offered == m.admitted + m.rate_limited + m.shed
        assert m.completed == m.admitted
        assert m.on_time == m.completed - m.deadline_misses

    def test_rejections_are_counted_not_lost(self, small_system):
        cfg = _config(rate=200.0, duration=15.0,
                      admission=AdmissionPolicy(rate_limit_per_s=80.0,
                                                burst=20.0,
                                                max_queue_depth=64))
        rep = simulate_serving(cfg, system=small_system)
        m = rep.metrics
        assert m.rate_limited > 0
        assert m.offered == m.admitted + m.rate_limited + m.shed
        assert m.completed == m.admitted

    @pytest.mark.parametrize("faults", [(), (3.0,)], ids=["clean", "crash"])
    def test_batch_log_partitions_the_completed_requests(
            self, make_small_system, faults):
        """Each completed request was computed in exactly one batch, a
        failed-over one included: a replay of ``batch_log`` serves every
        request once."""
        cfg = ServingConfig(
            trace=TraceConfig(pattern=ArrivalPattern.BURSTY, rate_per_s=80.0,
                              duration_s=10.0, samples_per_request=4,
                              seed=12, key_universe=1 << 20),
            autoscaler=AutoscalerConfig(enabled=True, min_replicas=1,
                                        max_replicas=4),
            initial_replicas=1, cache_capacity=0)
        injector = FaultInjector(_crash_plan(*faults, repair=2.0))
        rep = simulate_serving(cfg, system=make_small_system(),
                               fault_injector=injector)
        m = rep.metrics
        assert len(rep.failover_events) == len(faults)
        ids = [i for _, batch in rep.batch_log for i in batch]
        assert sum(len(batch) for _, batch in rep.batch_log) == m.completed
        assert len(ids) == len(set(ids))
        assert m.completed == m.offered
        assert set(ids) == set(range(m.offered))

    def test_engines_sharing_a_registry_report_their_own_counts(
            self, make_small_system):
        """Each report counts its own run; the shared registry holds the
        sum, and a later run does not rewrite an earlier report."""
        cfg = _config(rate=60.0, duration=4.0, seed=3)
        alone = simulate_serving(cfg, system=make_small_system())
        registry = MetricsRegistry()
        first = simulate_serving(cfg, system=make_small_system(),
                                 registry=registry)
        text = first.to_text()
        second = simulate_serving(cfg, system=make_small_system(),
                                  registry=registry)
        assert first.to_text() == text == second.to_text() == alone.to_text()
        n = alone.metrics.offered
        assert n > 0 and first.metrics.offered == n
        assert registry.value("serving_requests_total",
                              outcome="offered") == 2 * n
        latency = registry.histogram("serving_latency_seconds")
        assert latency.values == alone.metrics.latencies_s * 2

    def test_publishing_twice_adds_nothing(self, small_system):
        eng = ServingEngine(_config(rate=60.0, duration=4.0),
                            system=small_system)
        rep = eng.run()
        before = eng.metrics.registry.to_prometheus()
        rep.metrics.publish()
        assert eng.metrics.registry.to_prometheus() == before

    def test_disabled_registry_still_counts_and_checks(self,
                                                       make_small_system):
        cfg = _config(rate=60.0, duration=4.0, seed=3)
        plain = simulate_serving(cfg, system=make_small_system())
        dark = simulate_serving(cfg, system=make_small_system(),
                                registry=MetricsRegistry(enabled=False))
        assert dark.metrics.offered == plain.metrics.offered > 0
        assert dark.to_text() == plain.to_text()
        leaky = ServingMetrics(duration_s=1.0,
                               registry=MetricsRegistry(enabled=False))
        leaky.record_admission()
        with pytest.raises(AssertionError, match="completion leak"):
            leaky.check_conservation()

    def test_goodput_excludes_late_completions(self, small_system):
        # One pinned replica at 2x its capacity: everything completes,
        # but most of it far past the deadline.
        rep = simulate_serving(_config(rate=200.0, duration=15.0,
                                       autoscale=False),
                               system=small_system)
        m = rep.metrics
        assert m.completed == m.admitted
        assert m.deadline_misses > 0
        assert m.on_time < m.completed
        assert rep.goodput_per_s < m.completed / rep.config.trace.duration_s


class TestAutoscaling:
    def test_autoscaled_meets_slo_fixed_misses(self, make_small_system):
        fixed = simulate_serving(_config(rate=150.0, duration=30.0,
                                         autoscale=False),
                                 system=make_small_system())
        auto = simulate_serving(_config(rate=150.0, duration=30.0),
                                system=make_small_system())
        assert not fixed.meets_slo()
        assert auto.meets_slo()
        assert auto.peak_replicas > 1
        assert auto.goodput_per_s > fixed.goodput_per_s

    def test_scale_up_and_back_down(self, small_system):
        # A burst forces scale-up; the quiet tail lets the pool shrink.
        rep = simulate_serving(
            _config(rate=100.0, duration=60.0, pattern="bursty", seed=4),
            system=small_system)
        deltas = {ev.delta for ev in rep.scale_events}
        assert any(d > 0 for d in deltas)
        assert any(d < 0 for d in deltas)
        assert rep.final_replicas < rep.peak_replicas

    def test_replicas_prefer_the_booster(self, small_system):
        rep = simulate_serving(_config(rate=240.0, duration=20.0),
                               system=small_system)
        assert set(rep.module_replica_seconds) == {"esb"}


class TestFailover:
    def test_crash_drains_inflight_to_survivors(self, make_small_system):
        """The drill: kill a busy replica's node; zero admitted loss."""
        cfg = _config(rate=150.0, duration=25.0, replicas=2, seed=11)
        rep = simulate_serving(cfg, system=make_small_system(),
                               fault_injector=FaultInjector(
                                   _crash_plan(5.0)))
        m = rep.metrics
        assert m.failovers == 1
        assert m.requests_failed_over > 0          # the replica was busy
        assert m.completed == m.admitted           # nothing lost
        assert rep.failover_events[0].requests_drained == \
            m.requests_failed_over
        assert rep.failover_events[0].backoff_s > 0

    def test_double_crash_still_zero_loss(self, make_small_system):
        cfg = _config(rate=150.0, duration=30.0, replicas=2, seed=11)
        rep = simulate_serving(cfg, system=make_small_system(),
                               fault_injector=FaultInjector(
                                   _crash_plan(5.0, 6.0)))
        assert rep.metrics.failovers == 2
        assert rep.metrics.completed == rep.metrics.admitted

    def test_crash_on_unused_node_is_benign(self, make_small_system):
        plan = FaultPlan(seed=0, specs=(FaultSpec(
            kind=FaultKind.NODE_CRASH, time=5.0, module="esb", node=7,
            duration=5.0),))
        cfg = _config(rate=60.0, duration=15.0, seed=2, autoscale=False)
        rep = simulate_serving(cfg, system=make_small_system(),
                               fault_injector=FaultInjector(plan))
        assert rep.metrics.failovers == 0
        assert rep.metrics.completed == rep.metrics.admitted

    def test_failover_latency_is_visible_in_the_tail(self, make_small_system):
        """Honest reporting: the drill may cost latency, never requests."""
        cfg = _config(rate=150.0, duration=25.0, replicas=2, seed=11)
        clean = simulate_serving(cfg, system=make_small_system())
        faulty = simulate_serving(cfg, system=make_small_system(),
                                  fault_injector=FaultInjector(
                                      _crash_plan(5.0)))
        assert faulty.metrics.completed == clean.metrics.completed
        assert faulty.p99 >= clean.p99


def _overloaded_crash_run(make_small_system, rate, defend=False, seed=0):
    """Two pinned ESB replicas, crashes on their nodes at t=2 and t=3.

    Returns ``(report, engine, deadlines)`` where ``deadlines[t]`` lists
    the absolute deadlines of the requests the crash at ``t`` drained.
    """
    cfg = _config(rate=rate, duration=6.0, replicas=2, autoscale=False,
                  seed=seed, defend=defend)
    eng = ServingEngine(cfg, system=make_small_system(),
                        fault_injector=FaultInjector(
                            _crash_plan(2.0, 3.0, repair=2.0)))
    deadlines = {}
    crash = eng.pool.crash

    def spy(replica, node, now):
        drained = crash(replica, node, now)
        deadlines[now] = [r.deadline_s for r in drained]
        return drained

    eng.pool.crash = spy
    return eng.run(), eng, deadlines


class TestFailoverBackoff:
    """One backoff for both arms: the policy's delay, clamped so a drained
    request never sleeps past its own deadline."""

    @pytest.mark.parametrize("rate", [400.0, 800.0])
    def test_overloaded_undefended_backoff_is_deadline_clamped(
            self, make_small_system, rate):
        rep, eng, deadlines = _overloaded_crash_run(make_small_system, rate)
        assert rep.metrics.requests_failed_over > 0
        assert rep.metrics.completed == rep.metrics.admitted
        clamped = 0
        for event in rep.failover_events:
            assert event.requests_drained == len(deadlines[event.time])
            if not event.requests_drained:
                continue
            slack = min(deadlines[event.time]) - event.time
            assert event.backoff_s <= max(0.0, slack)
            clamped += event.backoff_s < eng.retry.delay(
                1, key=f"replica-{event.replica_id}")
        assert clamped      # the regime the test is named for was reached

    def test_overloaded_run_is_byte_identical(self, make_small_system):
        a, _, _ = _overloaded_crash_run(make_small_system, 400.0)
        b, _, _ = _overloaded_crash_run(make_small_system, 400.0)
        assert a.to_text() == b.to_text()
        assert a.failover_events == b.failover_events
        assert a.batch_log == b.batch_log

    def test_both_arms_back_off_alike_when_the_clamp_does_not_bind(
            self, make_small_system):
        plain, eng, deadlines = _overloaded_crash_run(make_small_system, 150.0)
        defended, _, _ = _overloaded_crash_run(make_small_system, 150.0,
                                               defend=True)
        assert [e.backoff_s for e in plain.failover_events] == \
            [e.backoff_s for e in defended.failover_events]
        for event in plain.failover_events:
            assert event.requests_drained > 0
            delay = eng.retry.delay(1, key=f"replica-{event.replica_id}")
            assert delay < min(deadlines[event.time]) - event.time
            assert event.backoff_s == delay


class TestFaultKindsHandled:
    """A plan naming a clock-driven fault the engine has no handler for is
    a config error at construction, not a silently empty drill."""

    @pytest.mark.parametrize("kind, extra", [
        (FaultKind.STRAGGLER, {"magnitude": 2.0}),
        (FaultKind.LINK_DEGRADE, {"magnitude": 2.0}),
    ])
    def test_unhandled_kind_rejected(self, small_system, kind, extra):
        plan = FaultPlan(seed=0, specs=(FaultSpec(
            kind=kind, time=1.0, module="esb", node=0, **extra),))
        with pytest.raises(FaultPlanError, match=kind.value):
            ServingEngine(_config(duration=2.0), system=small_system,
                          fault_injector=FaultInjector(plan))

    def test_data_faults_are_not_the_engines_business(self, small_system,
                                                      data_fault_plan):
        rep = simulate_serving(_config(rate=30.0, duration=2.0),
                               system=small_system,
                               fault_injector=FaultInjector(data_fault_plan))
        assert rep.metrics.completed == rep.metrics.admitted

    def test_cli_prints_the_error_and_exits_non_zero(self, capsys):
        from repro.cli import main

        rc = main(["serve", "--duration", "2", "--faults",
                   "seed=1,straggler=esb:3,degrade=esb:2"])
        captured = capsys.readouterr()
        assert rc != 0
        assert "straggler" in captured.err and "link-degrade" in captured.err
        assert "serving report" not in captured.out


class TestCache:
    def test_cache_cuts_replica_work(self, make_small_system):
        cold = simulate_serving(
            _config(rate=120.0, duration=20.0, seed=6, cache=0),
            system=make_small_system())
        warm_cfg = ServingConfig(
            trace=TraceConfig(rate_per_s=120.0, duration_s=20.0,
                              samples_per_request=HEAVY, seed=6,
                              key_universe=64),
            autoscaler=AutoscalerConfig(enabled=True, min_replicas=1,
                                        max_replicas=8),
            initial_replicas=1, cache_capacity=256)
        warm = simulate_serving(warm_cfg, system=make_small_system())
        assert warm.cache_hit_rate > 0.5
        assert warm.metrics.batched_requests < cold.metrics.batched_requests
        assert warm.metrics.completed == warm.metrics.admitted

    def test_coalescing_single_flight(self, make_small_system):
        """A hot cold-key burst computes once; duplicates attach to it."""
        cfg = ServingConfig(
            trace=TraceConfig(rate_per_s=200.0, duration_s=10.0,
                              samples_per_request=HEAVY, seed=8,
                              key_universe=4),
            autoscaler=AutoscalerConfig(enabled=False, min_replicas=1),
            initial_replicas=1, cache_capacity=16)
        rep = simulate_serving(cfg, system=make_small_system())
        assert rep.cache_coalesced > 0
        assert rep.metrics.completed == rep.metrics.admitted
        # Replicas only ever saw the distinct keys' first requests.
        assert rep.metrics.batched_requests == rep.cache_misses

    def test_cache_determinism(self, make_small_system):
        cfg = ServingConfig(
            trace=TraceConfig(rate_per_s=150.0, duration_s=15.0,
                              samples_per_request=HEAVY, seed=9,
                              key_universe=32),
            autoscaler=AutoscalerConfig(enabled=True, min_replicas=1,
                                        max_replicas=4),
            initial_replicas=1, cache_capacity=8)
        a = simulate_serving(cfg, system=make_small_system())
        b = simulate_serving(cfg, system=make_small_system())
        assert a.to_text() == b.to_text()
        assert (a.cache_hits, a.cache_misses, a.cache_coalesced) == \
            (b.cache_hits, b.cache_misses, b.cache_coalesced)
