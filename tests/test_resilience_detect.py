"""The phi-accrual failure detector: bootstrap, flapping, suspicion
transitions, and a seeded property sweep.

Edge cases this file pins:

* **simulation start** — an endpoint that registers but never heartbeats
  must still grow suspicious against the declared
  :data:`~repro.resilience.detect.EXPECTED_INTERVAL_S` (no observed gaps
  exist yet to model),
* **flapping** — a burst of heartbeats faster than
  :data:`~repro.resilience.detect.MIN_INTERVAL_S`
  must not make the detector hair-triggered: the modelled mean is
  floored, so sub-millisecond bursts cannot turn a normal gap into a
  phi-8 alarm,
* **clock discipline** — a heartbeat earlier than the previous one is a
  bug in the caller, not a gap of negative length; it raises.
"""

import math

import numpy as np
import pytest

from repro import telemetry
from repro.resilience.detect import (
    EXPECTED_INTERVAL_S,
    LN10,
    MIN_INTERVAL_S,
    PHI_CEILING,
    THRESHOLD,
    WINDOW,
    ComponentHealth,
    PhiAccrualDetector,
)
from tests.test_telemetry_core import metric_value


class TestBootstrap:
    """Heartbeat gaps at simulation start: no history yet."""

    def test_registered_but_silent_grows_suspicious(self):
        det = PhiAccrualDetector()
        det.register("r0", now=0.0)
        assert det.phi("r0", 0.0) == 0.0
        # With no observed gaps the declared expectation is the model:
        # phi = silence / (expected * ln 10).
        assert det.phi("r0", 0.2) == pytest.approx(
            0.2 / (EXPECTED_INTERVAL_S * LN10))
        assert det.suspect("r0", 100.0)

    def test_single_beat_still_uses_expected_interval(self):
        det = PhiAccrualDetector()
        det.register("r0", now=0.0)
        det.heartbeat("r0", 0.1)
        # One beat -> zero intervals observed; the bootstrap mean holds.
        assert det.mean_interval("r0") == EXPECTED_INTERVAL_S

    def test_register_is_idempotent(self):
        det = PhiAccrualDetector()
        det.register("r0", now=0.0)
        det.heartbeat("r0", 1.0)
        det.register("r0", now=5.0)       # must not reset history
        ep_phi = det.phi("r0", 1.0)
        assert ep_phi == 0.0

    def test_unknown_endpoint_raises(self):
        det = PhiAccrualDetector()
        with pytest.raises(KeyError):
            det.phi("ghost", 1.0)


class TestPhiShape:
    def test_phi_zero_at_beat_and_linear_in_silence(self):
        det = PhiAccrualDetector()
        det.register("r0", now=0.0)
        for t in (1.0, 2.0, 3.0):
            det.heartbeat("r0", t)
        assert det.phi("r0", 3.0) == 0.0
        one = det.phi("r0", 4.0)
        two = det.phi("r0", 5.0)
        assert one == pytest.approx(1.0 / LN10)
        assert two == pytest.approx(2.0 * one)

    def test_phi_capped_at_ceiling(self):
        det = PhiAccrualDetector()
        det.register("r0", now=0.0)
        assert det.phi("r0", 1e9) == PHI_CEILING

    def test_clock_backwards_raises(self):
        det = PhiAccrualDetector()
        det.heartbeat("r0", 5.0)
        with pytest.raises(ValueError):
            det.heartbeat("r0", 4.0)

    def test_window_bounds_history(self):
        det = PhiAccrualDetector()
        det.register("r0", now=0.0)
        # Long gaps first, then short ones that push them out.
        t = 0.0
        for gap in [10.0] * WINDOW + [1.0] * WINDOW:
            t += gap
            det.heartbeat("r0", t)
        assert det.mean_interval("r0") == pytest.approx(1.0)


class TestFlapping:
    def test_rapid_beats_cannot_hair_trigger(self):
        det = PhiAccrualDetector()
        det.register("r0", now=0.0)
        # A flapping endpoint beats 100x faster than expected…
        t = 0.0
        for _ in range(50):
            t += 1e-6
            det.heartbeat("r0", t)
        # …but the floored mean keeps one expected-interval of silence
        # far below the suspicion threshold.
        assert det.mean_interval("r0") == MIN_INTERVAL_S
        assert not det.suspect("r0", t + 0.005)

    def test_suspicion_clears_on_next_beat(self):
        det = PhiAccrualDetector()
        det.register("r0", now=0.0)
        det.heartbeat("r0", 0.1)
        det.heartbeat("r0", 0.2)
        assert det.suspect("r0", 10.0)
        det.heartbeat("r0", 10.0)
        assert not det.suspect("r0", 10.0)
        # The 9.8 s gap is now *in* the window, widening the modelled
        # mean — so re-suspicion needs a proportionally longer silence.
        assert det.suspect("r0", 100.0)
        # Each suspect *transition* logs exactly once.
        assert len(det.suspicion_log) == 2

    def test_continued_silence_logs_once(self):
        det = PhiAccrualDetector()
        det.register("r0", now=0.0)
        det.heartbeat("r0", 0.1)
        det.heartbeat("r0", 0.2)
        for t in (5.0, 6.0, 7.0):
            assert det.suspect("r0", t)
        assert len(det.suspicion_log) == 1


class TestInventory:
    def test_forget_removes_endpoint(self):
        det = PhiAccrualDetector()
        det.register("a", 0.0)
        det.register("b", 0.0)
        det.forget("a")
        with pytest.raises(KeyError):
            det.phi("a", 1.0)
        assert det.phi("b", 1.0) > 0.0

    def test_suspects_sorted_and_thresholded(self):
        det = PhiAccrualDetector()
        for key in ("b", "a", "c"):
            det.register(key, 0.0)
        det.heartbeat("c", 99.99)
        assert [k for k in ("a", "b", "c")
                if det.suspect(k, 100.0)] == ["a", "b"]


class TestComponentHealth:
    def test_publish_gauges(self):
        health = ComponentHealth(component="pfs:x", ok=True, degraded=True,
                                 detail="1 OST out", suspicion=2.5)
        with telemetry.capture() as (_, registry):
            health.publish(registry, now=0.0)
            assert metric_value(registry, "component_health_ok",
                                component="pfs:x") == 1.0
            assert metric_value(registry, "component_health_degraded",
                                component="pfs:x") == 1.0
            assert metric_value(registry, "health_suspicion_phi",
                                component="pfs:x", endpoint="state") == 2.5


def _detector_properties(seed: int) -> None:
    """Invariants that must hold for every heartbeat schedule."""
    rng = np.random.default_rng(seed)
    det = PhiAccrualDetector()
    det.register("ep", now=0.0)
    t = 0.0
    for _ in range(int(rng.integers(2, 40))):
        t += float(rng.exponential(EXPECTED_INTERVAL_S))
        det.heartbeat("ep", t)
        # Phi is exactly zero at the beat and non-negative always.
        assert det.phi("ep", t) == 0.0
    # Monotone in silence.
    silences = np.sort(rng.uniform(0.0, 100.0, size=8))
    phis = [det.phi("ep", t + s) for s in silences]
    assert all(b >= a for a, b in zip(phis, phis[1:]))
    assert all(0.0 <= p <= PHI_CEILING for p in phis)
    # The mean never models below the floor, so phi is bounded above by
    # silence / (floor * ln 10).
    for s, p in zip(silences, phis):
        assert p <= s / (MIN_INTERVAL_S * math.log(10.0)) + 1e-9
    # suspect() agrees with phi-vs-threshold at every probe point.
    for s in silences:
        assert det.suspect("ep", t + s) == (det.phi("ep", t + s)
                                            > THRESHOLD)


@pytest.mark.parametrize("seed", range(30))
def test_detector_properties(seed):
    _detector_properties(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(30, 250))
def test_detector_properties_sweep(seed):
    _detector_properties(seed)
