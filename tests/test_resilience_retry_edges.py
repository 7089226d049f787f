"""Edge cases of the retry policy: boundary attempts, jitter bounds, caps.

The headline regression here: ``delay()`` for a huge attempt number used
to raise ``OverflowError`` (the float exponential blows past 1e308 before
``min(..., max_delay_s)`` could cap it); it must return the cap instead.
"""

import pytest

from repro.resilience.retry import (
    BUDGET_BURST,
    BUDGET_FLOOR,
    BUDGET_RATIO,
    RetryBudget,
    RetryPolicy,
)


def delays(policy: RetryPolicy, key: str = "") -> list[float]:
    """The full backoff schedule of one job."""
    return [policy.delay(a, key) for a in range(1, policy.max_retries + 1)]


class TestShouldRetry:
    def test_boundary_at_max(self):
        policy = RetryPolicy(max_retries=3)
        assert policy.should_retry(3)
        assert not policy.should_retry(4)

    def test_zero_attempts_always_allowed(self):
        assert RetryPolicy(max_retries=0).should_retry(0)

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy().should_retry(-1)

    def test_no_retry_policy(self):
        no_retry = RetryPolicy(max_retries=0)
        assert not no_retry.should_retry(1)
        assert delays(no_retry) == []


class TestDelayBoundaries:
    def test_attempt_must_be_one_based(self):
        policy = RetryPolicy()
        with pytest.raises(ValueError):
            policy.delay(0)
        with pytest.raises(ValueError):
            policy.delay(-5)

    def test_huge_attempt_returns_cap_not_overflow(self):
        policy = RetryPolicy()
        assert policy.delay(10_000) == policy.max_delay_s
        assert policy.delay(1 << 20) == policy.max_delay_s

    def test_cap_is_exact_at_crossover(self):
        policy = RetryPolicy(base_delay_s=1.0, max_delay_s=1000.0)
        # 2**9 = 512 < 1000 < 2**10 = 1024; jitter adds up to 25 %.
        assert 512.0 <= policy.delay(10) < 640.0
        assert policy.delay(11) == 1000.0
        assert policy.delay(100) == 1000.0


class TestJitterBounds:
    def test_delay_within_jitter_envelope(self):
        policy = RetryPolicy(max_retries=8, base_delay_s=2.0, seed=3)
        for attempt in range(1, 9):
            raw = 2.0 * 2.0 ** (attempt - 1)
            d = policy.delay(attempt, key="job-a")
            assert raw <= d < raw * 1.25
            assert d <= policy.max_delay_s

    def test_deterministic_per_seed_and_key(self):
        a = delays(RetryPolicy(seed=7), key="job")
        b = delays(RetryPolicy(seed=7), key="job")
        c = delays(RetryPolicy(seed=8), key="job")
        d = delays(RetryPolicy(seed=7), key="other")
        assert a == b
        assert a != c and a != d

    def test_delays_non_decreasing(self):
        policy = RetryPolicy(max_retries=12, seed=11, max_delay_s=500.0)
        schedule = delays(policy, key="j")
        assert schedule == sorted(schedule)
        assert len(schedule) == 12


class TestValidation:
    def test_zero_base_delay_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=0.0)

    def test_negative_base_delay_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1.0)

    def test_zero_max_delay_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_delay_s=0.0)


class TestRetryBudget:
    """Driven through the module constants: five starting tokens, 0.2
    earned per admitted request, at most 50 held."""

    def test_starts_at_floor(self):
        budget = RetryBudget()
        assert budget.tokens == BUDGET_FLOOR == 5.0
        assert budget.tokens >= 1.0

    def test_requests_earn_ratio_capped_at_burst(self):
        budget = RetryBudget()
        for _ in range(10):
            budget.note_request()
        assert budget.tokens == pytest.approx(BUDGET_FLOOR + 10 * BUDGET_RATIO)
        for _ in range(1000):
            budget.note_request()
        assert budget.tokens == BUDGET_BURST   # burst cap, not 205

    def test_try_spend_refuses_when_dry(self):
        budget = RetryBudget()
        for _ in range(int(BUDGET_FLOOR)):
            assert budget.try_spend()
        assert budget.tokens < 1.0
        assert not budget.try_spend()     # pool dry: optional work refused
        assert budget.refused == 1
        assert budget.spent == BUDGET_FLOOR
        assert budget.tokens == 0.0       # a refusal costs nothing

    def test_spend_forced_overdrafts(self):
        budget = RetryBudget()
        budget.spend_forced(BUDGET_FLOOR + 2.0)   # mandatory: never refused
        assert budget.tokens == -2.0
        assert budget.in_overdraft
        assert budget.forced_overdraft == 2.0
        # The high-water mark sticks even after the budget recovers.
        for _ in range(1000):
            budget.note_request()
        assert not budget.in_overdraft
        assert budget.forced_overdraft == 2.0

    def test_earning_restores_refused_spending(self):
        budget = RetryBudget()
        for _ in range(int(BUDGET_FLOOR)):
            budget.try_spend()
        assert not budget.try_spend()
        for _ in range(10):               # 10 x 0.2 = two tokens
            budget.note_request()
        assert budget.try_spend()
        assert budget.refused == 1 and budget.spent == BUDGET_FLOOR + 1.0
