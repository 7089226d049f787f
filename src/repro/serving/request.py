"""The request frontend: seeded arrival processes and request traces.

The paper's RS application list opens with "(near) real-time processing in
case of earth disasters" — scenes arrive continuously and must be
classified within a latency bound.  At production scale the arrival
process is never a clean Poisson stream: traffic breathes with the day and
spikes when a disaster actually happens.  This module generates all three
shapes as **fully resolved traces**: like :class:`~repro.resilience.faults.FaultPlan`,
every random draw is spent at construction from one seed, so a trace
replays identically however many times the engine consumes it.

Requests carry a ``key`` drawn from a Zipf-like popularity distribution —
the handle the result cache deduplicates on (the same scene tile gets
re-requested by many downstream consumers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import NamedTuple

import numpy as np


class ArrivalPattern(str, Enum):
    """Shape of the offered load."""

    POISSON = "poisson"        # stationary rate
    DIURNAL = "diurnal"        # sinusoidal day/night swing
    BURSTY = "bursty"          # on/off Markov-modulated spikes


class Request(NamedTuple):
    """One inference request as the frontend sees it (DESIGN §17)."""

    req_id: int
    arrival_s: float
    deadline_s: float          # absolute SLO deadline (arrival + budget)
    key: int                   # cache/dedup key (scene tile id)
    n_samples: int = 1         # samples (patches) bundled in this request
    model: str = "default"     # served model (batches never mix models)
    #: Traffic tier: "gold" is protected; "bronze" is the best-effort
    #: tier the brownout controller sheds first under overload.
    tier: str = "gold"


@dataclass(frozen=True)
class TraceConfig:
    """A fully specified arrival scenario."""

    pattern: ArrivalPattern = ArrivalPattern.POISSON
    rate_per_s: float = 50.0           # mean arrival rate
    duration_s: float = 60.0
    slo_deadline_s: float = 0.5        # per-request latency budget
    samples_per_request: int = 1
    seed: int = 0
    #: Distinct cache keys in circulation; popularity is Zipf(s≈1.1).
    key_universe: int = 512
    #: DIURNAL: peak/trough rate swing as a fraction of the mean (0..1).
    diurnal_swing: float = 0.6
    #: DIURNAL: one full day compressed into this many simulated seconds.
    diurnal_period_s: float = 60.0
    #: BURSTY: rate multiplier while a burst is on.
    burst_factor: float = 5.0
    #: BURSTY: mean burst / gap lengths (exponential).
    burst_len_s: float = 5.0
    gap_len_s: float = 15.0
    #: Fraction of requests in the sheddable "bronze" tier (0 = all gold).
    bronze_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.rate_per_s <= 0 or self.duration_s <= 0:
            raise ValueError("rate and duration must be positive")
        if self.slo_deadline_s <= 0:
            raise ValueError("SLO deadline must be positive")
        if self.samples_per_request < 1:
            raise ValueError("samples_per_request must be >= 1")
        if self.key_universe < 1:
            raise ValueError("key_universe must be >= 1")
        if not (0.0 <= self.diurnal_swing < 1.0):
            raise ValueError("diurnal_swing must be in [0, 1)")
        if self.burst_factor < 1.0:
            raise ValueError("burst_factor must be >= 1")
        if self.burst_len_s <= 0 or self.gap_len_s <= 0:
            raise ValueError("burst/gap lengths must be positive")
        if not (0.0 <= self.bronze_fraction <= 1.0):
            raise ValueError("bronze_fraction must be in [0, 1]")


def _zipf_keys(rng: np.random.Generator, n: int, universe: int) -> np.ndarray:
    """Zipf-ranked key draws truncated to ``universe`` (heavy head)."""
    probs = 1.0 / np.arange(1, universe + 1) ** 1.1
    probs /= probs.sum()
    return rng.choice(universe, size=n, p=probs)


def _poisson_times(rng: np.random.Generator, rate: float,
                   duration: float) -> list[float]:
    """Running sums of exponential gaps, up to the first one >= duration.

    Bit for bit the loop ``t += rng.exponential(1/rate)`` that stops at
    that first sum, and it leaves ``rng`` where that loop does: a vector
    draw is the scalar draws in sequence and ``cumsum`` adds left to
    right.  Overdraw, rewind, then spend exactly the loop's k + 1 draws.
    """
    scale = 1.0 / rate
    state = rng.bit_generator.state
    n = int(rate * duration + 4.0 * math.sqrt(rate * duration)) + 1
    while True:
        times = np.cumsum(rng.exponential(scale, size=n))
        rng.bit_generator.state = state
        if times[-1] >= duration:
            break
        n *= 2
    k = int(np.searchsorted(times, duration))
    rng.exponential(scale, size=k + 1)
    return times[:k].tolist()


def _diurnal_times(rng: np.random.Generator, cfg: TraceConfig) -> list[float]:
    """Non-homogeneous Poisson via thinning against the peak rate."""
    peak = cfg.rate_per_s * (1.0 + cfg.diurnal_swing)
    times: list[float] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / peak))
        if t >= cfg.duration_s:
            return times
        rate_t = cfg.rate_per_s * (
            1.0 + cfg.diurnal_swing
            * np.sin(2.0 * np.pi * t / cfg.diurnal_period_s))
        if float(rng.uniform()) < rate_t / peak:
            times.append(t)


def _bursty_times(rng: np.random.Generator, cfg: TraceConfig) -> list[float]:
    """On/off modulated Poisson: quiet base rate, ``burst_factor``× bursts.

    The mean rate over a full on/off cycle is held at ``rate_per_s`` so
    bursty and Poisson scenarios offer the same total load — only its
    distribution in time differs.
    """
    cycle = cfg.burst_len_s + cfg.gap_len_s
    mean_factor = (cfg.burst_len_s * cfg.burst_factor + cfg.gap_len_s) / cycle
    base = cfg.rate_per_s / mean_factor
    times: list[float] = []
    t = 0.0
    burst_on = False
    phase_end = float(rng.exponential(cfg.gap_len_s))
    while t < cfg.duration_s:
        rate = base * (cfg.burst_factor if burst_on else 1.0)
        t += float(rng.exponential(1.0 / rate))
        while t >= phase_end:
            burst_on = not burst_on
            mean = cfg.burst_len_s if burst_on else cfg.gap_len_s
            phase_end += float(rng.exponential(mean))
        if t < cfg.duration_s:
            times.append(t)
    return times


def generate_trace(cfg: TraceConfig) -> tuple[Request, ...]:
    """Resolve a :class:`TraceConfig` into its deterministic request trace."""
    rng = np.random.default_rng(cfg.seed)
    if cfg.pattern is ArrivalPattern.POISSON:
        times = _poisson_times(rng, cfg.rate_per_s, cfg.duration_s)
    elif cfg.pattern is ArrivalPattern.DIURNAL:
        times = _diurnal_times(rng, cfg)
    elif cfg.pattern is ArrivalPattern.BURSTY:
        times = _bursty_times(rng, cfg)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown arrival pattern {cfg.pattern!r}")
    keys = _zipf_keys(rng, len(times), cfg.key_universe)
    # Tier draws happen only when bronze traffic is configured, so the
    # rng stream — and therefore every existing trace — is untouched at
    # the default bronze_fraction of 0.
    if cfg.bronze_fraction > 0.0:
        bronze = rng.uniform(size=len(times)) < cfg.bronze_fraction
        tiers = ["bronze" if b else "gold" for b in bronze.tolist()]
    else:
        tiers = repeat("gold")
    slo, samples = cfg.slo_deadline_s, cfg.samples_per_request
    return tuple(Request(i, t, t + slo, k, samples, "default", tier)
                 for i, (t, k, tier) in enumerate(zip(times, keys.tolist(),
                                                      tiers)))
