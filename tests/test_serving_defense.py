"""Serving-plane defenses: breakers, hedging policy, brownout ladder,
and the defended engine end to end.
"""

import pytest

from repro.resilience.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
)
from repro.serving import (
    AutoscalerConfig,
    ServingConfig,
    TraceConfig,
    simulate_serving,
)
from repro.serving.defense import (
    BREAKER_FAILURE_THRESHOLD,
    BREAKER_OPEN_S,
    BREAKER_PROBE_PROBABILITY,
    BREAKER_SUCCESS_TO_CLOSE,
    BROWNOUT_BREAKER_OPEN_FRACTION,
    BROWNOUT_ESCALATE_TICKS,
    BROWNOUT_RECOVER_TICKS,
    BROWNOUT_STRETCH_FACTOR,
    BreakerState,
    BrownoutController,
    BrownoutLevel,
    CircuitBreaker,
    DefenseConfig,
    HedgePolicy,
)


class TestCircuitBreaker:
    """Driven through the module constants: three missed probes trip a
    breaker, it stays open 0.5 s, and two half-open successes close it."""

    def test_trips_after_consecutive_failures(self):
        assert BREAKER_FAILURE_THRESHOLD == 3
        br = CircuitBreaker("esb:0", seed=0)
        br.record_failure(0.0)
        br.record_failure(0.1)
        assert br.state(0.1) is BreakerState.CLOSED
        br.record_failure(0.2)
        assert br.state(0.2) is BreakerState.OPEN
        assert not br.allows_dispatch(0.2)

    def test_success_resets_failure_streak(self):
        br = CircuitBreaker("esb:0", seed=0)
        br.record_failure(0.0)
        br.record_failure(0.1)
        br.record_success(0.2)
        br.record_failure(0.3)
        br.record_failure(0.4)
        assert br.state(0.4) is BreakerState.CLOSED

    def test_lazy_half_open_after_cooldown(self):
        br = _tripped(at=1.0)
        assert br.state(1.0 + BREAKER_OPEN_S - 0.1) is BreakerState.OPEN
        # No timer event: the decay happens inside state().
        assert br.state(1.0 + BREAKER_OPEN_S) is BreakerState.HALF_OPEN

    def test_half_open_probe_admission_is_seeded(self):
        assert 0.0 < BREAKER_PROBE_PROBABILITY < 1.0

        def draws(seed):
            br = _tripped(at=0.0, seed=seed)
            return [br.allows_dispatch(1.0) for _ in range(32)]

        assert draws(7) == draws(7)          # deterministic per seed
        assert any(draws(7)) and not all(draws(7))
        assert draws(7) != draws(8)          # seed actually matters

    def test_closes_after_successes_in_half_open(self):
        assert BREAKER_SUCCESS_TO_CLOSE == 2
        br = _tripped(at=0.0)
        br.record_success(BREAKER_OPEN_S + 0.1)
        assert br.state(BREAKER_OPEN_S + 0.1) is BreakerState.HALF_OPEN
        br.record_success(BREAKER_OPEN_S + 0.2)
        assert br.state(BREAKER_OPEN_S + 0.2) is BreakerState.CLOSED
        assert [(f, t) for _, f, t in br.transitions] == [
            ("closed", "open"), ("open", "half-open"),
            ("half-open", "closed")]

    def test_half_open_failure_reopens(self):
        br = _tripped(at=0.0)
        now = BREAKER_OPEN_S + 0.1
        assert br.state(now) is BreakerState.HALF_OPEN
        # A single miss in half-open trips immediately — no new streak of
        # BREAKER_FAILURE_THRESHOLD required.
        br.record_failure(now)
        assert br.state(now) is BreakerState.OPEN


def _tripped(at: float, seed: int = 0) -> CircuitBreaker:
    """A breaker opened by a streak of missed probes at time ``at``."""
    br = CircuitBreaker("esb:0", seed=seed)
    for _ in range(BREAKER_FAILURE_THRESHOLD):
        br.record_failure(at)
    assert br.state(at) is BreakerState.OPEN
    return br


class TestHedgePolicy:
    def test_no_deadline_below_min_samples(self):
        policy = HedgePolicy()
        assert policy.deadline([0.01] * (HedgePolicy.MIN_SAMPLES - 1)) is None

    def test_deadline_is_median_times_multiplier(self):
        policy = HedgePolicy()
        assert (HedgePolicy.PERCENTILE, HedgePolicy.MULTIPLIER) == (50.0, 3.0)
        window = [0.010] * 9 + [1.0]     # one gray outlier
        # The median ignores the outlier entirely.
        assert policy.deadline(window) == pytest.approx(0.030, rel=1e-6)

    def test_min_deadline_floor(self):
        policy = HedgePolicy()
        assert policy.deadline([1e-5] * HedgePolicy.MIN_SAMPLES) \
            == HedgePolicy.MIN_DEADLINE_S


class TestBrownoutController:
    """Driven through the module constants: three hot ticks escalate one
    rung, six calm ticks recover one."""

    def _hot_kwargs(self):
        return dict(queue_depth=100, n_up=1, budget_overdraft=False)

    def _calm_kwargs(self):
        return dict(queue_depth=0, n_up=1, budget_overdraft=False)

    def test_escalates_one_rung_after_hot_ticks(self):
        assert BROWNOUT_ESCALATE_TICKS == 3
        ctl = BrownoutController()
        assert ctl.tick(0.0, **self._hot_kwargs()) is None
        assert ctl.tick(1.0, **self._hot_kwargs()) is None
        moved = ctl.tick(2.0, **self._hot_kwargs())
        assert moved == (BrownoutLevel.NORMAL, BrownoutLevel.STRETCH_BATCH)
        # One rung per escalation window, never a jump.
        assert ctl.level is BrownoutLevel.STRETCH_BATCH

    def test_ladder_caps_at_cache_only(self):
        ctl = BrownoutController()
        for t in range(5 * BROWNOUT_ESCALATE_TICKS):
            ctl.tick(float(t), **self._hot_kwargs())
        assert ctl.level is BrownoutLevel.CACHE_ONLY

    def test_recovery_retraces_one_rung_at_a_time(self):
        assert BROWNOUT_RECOVER_TICKS == 6
        ctl = BrownoutController()
        t = 0.0
        for _ in range(2 * BROWNOUT_ESCALATE_TICKS):
            ctl.tick(t, **self._hot_kwargs())
            t += 1.0
        assert ctl.level is BrownoutLevel.SHED_BRONZE
        for _ in range(BROWNOUT_RECOVER_TICKS - 1):
            assert ctl.tick(t, **self._calm_kwargs()) is None
            t += 1.0
        moved = ctl.tick(t, **self._calm_kwargs())
        assert moved == (BrownoutLevel.SHED_BRONZE,
                         BrownoutLevel.STRETCH_BATCH)
        for _ in range(BROWNOUT_RECOVER_TICKS):
            t += 1.0
            ctl.tick(t, **self._calm_kwargs())
        assert ctl.level is BrownoutLevel.NORMAL
        assert [(f, t) for _, f, t in ctl.transitions] == [
            (0, 1), (1, 2), (2, 1), (1, 0)]

    def test_hot_and_calm_counters_reset_each_other(self):
        ctl = BrownoutController()
        ctl.tick(0.0, **self._hot_kwargs())
        ctl.tick(1.0, **self._hot_kwargs())
        ctl.tick(2.0, **self._calm_kwargs())     # streak broken
        ctl.tick(3.0, **self._hot_kwargs())
        ctl.tick(4.0, **self._hot_kwargs())
        assert ctl.level is BrownoutLevel.NORMAL

    def test_tripped_breaker_fraction_counts_as_hot(self):
        assert BROWNOUT_BREAKER_OPEN_FRACTION == 0.5
        ctl = BrownoutController()
        moves = [ctl.tick(float(t), queue_depth=0, n_up=3,
                          budget_overdraft=False, breakers_open=2,
                          breakers_total=3)
                 for t in range(BROWNOUT_ESCALATE_TICKS)]
        assert moves[-1] == (BrownoutLevel.NORMAL,
                             BrownoutLevel.STRETCH_BATCH)

    def test_budget_overdraft_counts_as_hot(self):
        ctl = BrownoutController()
        moves = [ctl.tick(float(t), queue_depth=0, n_up=3,
                          budget_overdraft=True)
                 for t in range(BROWNOUT_ESCALATE_TICKS)]
        assert moves[-1] is not None

    def test_wait_stretch_tracks_level(self):
        assert BROWNOUT_STRETCH_FACTOR == 4.0
        ctl = BrownoutController()
        assert ctl.wait_stretch == 1.0
        ctl.level = BrownoutLevel.STRETCH_BATCH
        assert ctl.wait_stretch == 4.0
        ctl.level = BrownoutLevel.CACHE_ONLY
        assert ctl.wait_stretch == 4.0


# -- the defended engine end to end -------------------------------------------
def _gray_scenario(defend: bool, hedging: bool = True, seed: int = 11):
    """One gray-failed replica out of three, pinned capacity."""
    duration = 6.0
    plan = FaultPlan(seed=seed, specs=(
        FaultSpec(kind=FaultKind.GRAY_FAILURE, time=1.5, module="esb",
                  node=0, duration=3.0, magnitude=8.0, probability=0.6),
    ))
    config = ServingConfig(
        trace=TraceConfig(rate_per_s=120.0, duration_s=duration, seed=seed),
        initial_replicas=3,
        autoscaler=AutoscalerConfig(enabled=False),
        defense=DefenseConfig(enabled=defend, hedging_enabled=hedging),
    )
    return simulate_serving(config, fault_injector=FaultInjector(plan))


class TestDefendedEngine:
    def test_hedging_cuts_gray_tail(self):
        undefended = _gray_scenario(defend=False)
        defended = _gray_scenario(defend=True)
        assert defended.metrics.p99 < undefended.metrics.p99
        assert defended.metrics.hedges_issued > 0
        assert defended.metrics.hedges_backup_won > 0

    def test_conservation_holds_under_chaos(self):
        for defend in (False, True):
            report = _gray_scenario(defend=defend)
            m = report.metrics
            assert m.offered == m.admitted + m.rate_limited + m.shed
            assert m.admitted == m.completed

    def test_defense_disabled_leaves_counters_dark(self):
        report = _gray_scenario(defend=False)
        assert report.suspicion_events == 0
        assert report.breaker_transitions == 0
        assert report.metrics.hedges_issued == 0
        assert report.brownout_path == ()
        assert report.duplicate_work_ratio == 0.0

    def test_hedging_can_be_disabled_independently(self):
        report = _gray_scenario(defend=True, hedging=False)
        assert report.metrics.hedges_issued == 0
        # The rest of the defense plane still runs.
        assert report.breaker_transitions > 0

    def test_duplicate_work_stays_bounded(self):
        report = _gray_scenario(defend=True)
        assert 0.0 <= report.duplicate_work_ratio < 0.15

    def test_report_text_is_deterministic(self):
        a = _gray_scenario(defend=True).to_text()
        b = _gray_scenario(defend=True).to_text()
        assert a == b
        assert "hedging" in a and "brownout" in a

    def test_defense_off_is_byte_identical_to_legacy(self):
        """DefenseConfig(enabled=False) must not perturb existing runs."""
        config = ServingConfig(
            trace=TraceConfig(rate_per_s=80.0, duration_s=4.0, seed=3),
            initial_replicas=2,
            autoscaler=AutoscalerConfig(enabled=False),
        )
        defended_off = ServingConfig(
            trace=TraceConfig(rate_per_s=80.0, duration_s=4.0, seed=3),
            initial_replicas=2,
            autoscaler=AutoscalerConfig(enabled=False),
            defense=DefenseConfig(enabled=False),
        )
        assert (simulate_serving(config).to_text()
                == simulate_serving(defended_off).to_text())
