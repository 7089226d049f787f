"""Request traces against their definition.

A Poisson trace is *defined* by the scalar loop kept below as
:func:`_oracle_poisson_times`: draw one exponential gap at a time and stop
at the first running sum that reaches the horizon.  The production draw
is one vector call plus ``cumsum``; the property test requires the same
arrival bytes and the same generator state afterwards, since the Zipf keys
and tiers are drawn from that state next.  The digests pin whole traces
(arrival, key, tier) for one config of each arrival pattern; they were
captured from the scalar-loop implementation.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.serving import ArrivalPattern, TraceConfig, generate_trace
from repro.serving.request import Request, _poisson_times


def _oracle_poisson_times(rng: np.random.Generator, rate: float,
                          duration: float) -> list[float]:
    times: list[float] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate))
        if t >= duration:
            return times
        times.append(t)


def _trace_digest(trace) -> str:
    h = hashlib.blake2b(digest_size=8)
    h.update(np.array([r.arrival_s for r in trace]).tobytes())
    h.update(np.array([r.key for r in trace], dtype=np.int64).tobytes())
    h.update("".join(r.tier[0] for r in trace).encode())
    return h.hexdigest()


class TestPoissonTimes:
    @settings(max_examples=60, deadline=None)
    @given(rate=st.floats(min_value=1.0, max_value=2000.0),
           duration=st.floats(min_value=1e-3, max_value=10.0),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_the_scalar_loop(self, rate, duration, seed):
        oracle_rng = np.random.default_rng(seed)
        rng = np.random.default_rng(seed)
        expected = _oracle_poisson_times(oracle_rng, rate, duration)
        got = _poisson_times(rng, rate, duration)
        assert np.array(got).tobytes() == np.array(expected).tobytes()
        assert all(type(t) is float for t in got)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_overdraw_that_falls_short_is_redrawn(self):
        # At 0.05 expected arrivals the first guess is one draw; seed 25's
        # first gap lands inside the horizon, so the draw must double.
        oracle_rng = np.random.default_rng(25)
        rng = np.random.default_rng(25)
        expected = _oracle_poisson_times(oracle_rng, 1.0, 0.05)
        assert len(expected) >= 1
        assert _poisson_times(rng, 1.0, 0.05) == expected
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


#: One config per arrival pattern, each with tier draws; digests captured
#: from the scalar-loop trace builder.
PINNED = [
    (TraceConfig(rate_per_s=400.0, duration_s=30.0, seed=3,
                 key_universe=4096, bronze_fraction=0.25),
     "dfd67b58c7e9fbc5"),
    (TraceConfig(pattern=ArrivalPattern.DIURNAL, rate_per_s=120.0,
                 duration_s=60.0, seed=5, bronze_fraction=0.1),
     "b34d8f7cd1bf9a80"),
    (TraceConfig(pattern=ArrivalPattern.BURSTY, rate_per_s=200.0,
                 duration_s=40.0, seed=7, samples_per_request=32,
                 bronze_fraction=0.25, burst_len_s=1.25, gap_len_s=3.75),
     "e41180e42eedd301"),
]


class TestGenerateTrace:
    @pytest.mark.parametrize("cfg, digest", PINNED,
                             ids=[c.pattern.value for c, _ in PINNED])
    def test_trace_digest_is_pinned(self, cfg, digest):
        assert _trace_digest(generate_trace(cfg)) == digest

    @pytest.mark.parametrize("cfg", [c for c, _ in PINNED],
                             ids=[c.pattern.value for c, _ in PINNED])
    def test_requests_are_fully_resolved(self, cfg):
        trace = generate_trace(cfg)
        assert [r.req_id for r in trace] == list(range(len(trace)))
        for r in trace:
            assert type(r.arrival_s) is float and type(r.key) is int
            assert r.deadline_s == r.arrival_s + cfg.slo_deadline_s
            assert r.n_samples == cfg.samples_per_request
        assert {r.tier for r in trace} == {"gold", "bronze"}

    def test_default_traffic_is_all_gold(self):
        trace = generate_trace(TraceConfig(duration_s=5.0, seed=1))
        assert {r.tier for r in trace} == {"gold"}

    def test_request_keywords_and_defaults(self):
        r = Request(req_id=4, arrival_s=1.0, deadline_s=1.5, key=9)
        assert (r.n_samples, r.tier) == (1, "gold")
        assert r == Request(4, 1.0, 1.5, 9, 1, "gold")
