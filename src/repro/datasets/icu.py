"""Synthetic MIMIC-III-like ICU time series with ARDS episodes.

The ARDS case study (Sec. IV-B) uses MIMIC-III vitals: "many time-series of
varying lengths ... noisy and often has many missing values".  The
generator reproduces those statistics:

* multivariate vitals with physiological coupling (SpO2 follows PaO2/FiO2;
  heart rate rises as oxygenation falls; respiratory rate couples to both),
* mean-reverting (Ornstein-Uhlenbeck) baseline dynamics + circadian rhythm,
* ARDS episodes: the P/F ratio (PaO2/FiO2) declines below the Berlin
  definition's 300 mmHg threshold over hours, with severity bands
  (mild < 300, moderate < 200, severe < 100),
* measurement noise, MCAR missingness plus bursty sensor dropouts,
* varying record lengths.

Helpers build (window → next value) tensors for the GRU/1-D-CNN
missing-value prediction task.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

#: Channel order of the vitals matrix.
VITAL_CHANNELS = ("heart_rate", "spo2", "resp_rate", "map_bp", "fio2", "pao2")

#: Healthy set-points and plausible physiological bounds per channel.
_SETPOINTS = {
    "heart_rate": (80.0, (30.0, 200.0)),
    "spo2": (97.0, (50.0, 100.0)),
    "resp_rate": (16.0, (4.0, 60.0)),
    "map_bp": (85.0, (30.0, 160.0)),
    "fio2": (0.30, (0.21, 1.0)),
    "pao2": (95.0, (30.0, 500.0)),
}


#: Share of patients who develop ARDS (enriched vs the 1-2 % ICU incidence).
ARDS_FRACTION = 0.35
#: MCAR per-sample missingness.
MISSING_RATE = 0.12
#: Per-hour chance a sensor drops out, and the longest dropout in hours.
DROPOUT_BURST_RATE, DROPOUT_BURST_HOURS = 0.01, 4


@dataclass(frozen=True)
class IcuConfig:
    n_patients: int = 40
    min_hours: int = 24
    max_hours: int = 96
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_patients < 1:
            raise ValueError("need at least one patient")
        if self.min_hours < 8 or self.max_hours < self.min_hours:
            raise ValueError("need min_hours >= 8 and max_hours >= min_hours")


@dataclass
class PatientRecord:
    """One ICU stay: hourly vitals, observation mask, ARDS ground truth."""

    patient_id: int
    vitals: np.ndarray              # (T, n_channels), NaN where unobserved
    mask: np.ndarray                # (T, n_channels) bool, True = observed
    truth: np.ndarray               # (T, n_channels) noise-free, fully dense
    has_ards: bool
    ards_onset_hour: Optional[int]  # None if no ARDS

    @property
    def n_hours(self) -> int:
        return self.vitals.shape[0]

    def pf_ratio(self) -> np.ndarray:
        """PaO2/FiO2 in mmHg from the ground truth (the Berlin quantity)."""
        pao2 = self.truth[:, VITAL_CHANNELS.index("pao2")]
        fio2 = self.truth[:, VITAL_CHANNELS.index("fio2")]
        return pao2 / fio2


def berlin_severity(pf_ratio: float) -> str:
    """Berlin definition severity bands [28]."""
    if pf_ratio < 0:
        raise ValueError("P/F ratio must be non-negative")
    if pf_ratio < 100:
        return "severe"
    if pf_ratio < 200:
        return "moderate"
    if pf_ratio < 300:
        return "mild"
    return "none"


class IcuCohort:
    """Deterministic cohort generator."""

    def __init__(self, config: IcuConfig) -> None:
        self.config = config

    def _simulate_patient(self, rng: np.random.Generator, pid: int) -> PatientRecord:
        cfg = self.config
        hours = int(rng.integers(cfg.min_hours, cfg.max_hours + 1))
        nch = len(VITAL_CHANNELS)
        has_ards = rng.random() < ARDS_FRACTION
        onset = int(rng.integers(6, max(7, hours - 8))) if has_ards else None

        truth = np.zeros((hours, nch))
        # Per-patient baselines around the set-points.
        base = np.array([
            _SETPOINTS[c][0] * rng.uniform(0.92, 1.08) for c in VITAL_CHANNELS
        ])
        # OU parameters: mean reversion + diffusion per channel.
        theta = np.array([0.25, 0.35, 0.3, 0.2, 0.5, 0.3])
        sigma = np.array([3.0, 0.6, 1.2, 3.0, 0.005, 3.0])

        # ARDS trajectory: PaO2 declines, FiO2 is escalated by staff.
        pao2_target = np.full(hours, base[VITAL_CHANNELS.index("pao2")])
        fio2_target = np.full(hours, base[VITAL_CHANNELS.index("fio2")])
        if has_ards:
            t = np.arange(hours)
            ramp = np.clip((t - onset) / 12.0, 0.0, 1.0)   # 12 h decline
            severity = rng.uniform(0.45, 0.8)              # how far P/F falls
            pao2_target = pao2_target * (1.0 - severity * ramp)
            fio2_target = fio2_target + 0.5 * ramp          # staff raise FiO2

        x = base.copy()
        circadian_phase = rng.uniform(0, 2 * np.pi)
        for t in range(hours):
            target = base.copy()
            target[VITAL_CHANNELS.index("pao2")] = pao2_target[t]
            target[VITAL_CHANNELS.index("fio2")] = fio2_target[t]
            # Physiological coupling: SpO2 tracks oxygenation; HR and RR
            # compensate as SpO2 falls.
            pf = x[VITAL_CHANNELS.index("pao2")] / max(
                x[VITAL_CHANNELS.index("fio2")], 0.21)
            spo2_drive = 100.0 * (1.0 - np.exp(-pf / 120.0))
            target[VITAL_CHANNELS.index("spo2")] = min(spo2_drive, 100.0)
            hypoxia = max(0.0, 94.0 - x[VITAL_CHANNELS.index("spo2")])
            target[VITAL_CHANNELS.index("heart_rate")] += 2.5 * hypoxia
            target[VITAL_CHANNELS.index("resp_rate")] += 0.8 * hypoxia
            # Circadian modulation of HR/BP.
            circ = np.sin(2 * np.pi * t / 24.0 + circadian_phase)
            target[VITAL_CHANNELS.index("heart_rate")] += 4.0 * circ
            target[VITAL_CHANNELS.index("map_bp")] += 3.0 * circ
            # OU step.
            x = x + theta * (target - x) + sigma * rng.normal(size=nch)
            for c, name in enumerate(VITAL_CHANNELS):
                lo, hi = _SETPOINTS[name][1]
                x[c] = float(np.clip(x[c], lo, hi))
            truth[t] = x

        # Observation process: measurement noise + missingness.
        meas_noise = sigma * 0.5
        vitals = truth + rng.normal(size=truth.shape) * meas_noise
        mask = rng.random(truth.shape) >= MISSING_RATE
        # Bursty sensor dropouts.
        for c in range(nch):
            t = 0
            while t < hours:
                if rng.random() < DROPOUT_BURST_RATE:
                    span = int(rng.integers(1, DROPOUT_BURST_HOURS + 1))
                    mask[t:t + span, c] = False
                    t += span
                else:
                    t += 1
        vitals = np.where(mask, vitals, np.nan)
        return PatientRecord(
            patient_id=pid, vitals=vitals, mask=mask, truth=truth,
            has_ards=has_ards, ards_onset_hour=onset,
        )

    def generate(self) -> list[PatientRecord]:
        rng = np.random.default_rng(self.config.seed)
        return [
            self._simulate_patient(rng, pid)
            for pid in range(self.config.n_patients)
        ]


def make_imputation_windows(
    records: list[PatientRecord],
    window: int = 8,
    target_channel: int = 0,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Build (X, y) for next-value prediction of one vital channel.

    For every position where the *next* hour's target value exists in the
    ground truth, emit the preceding ``window`` hours of all channels
    (missing entries zero-filled after normalisation, which the GRU learns
    to see as 'absent') and the next true value as the label.  Returns the
    normalisation statistics so predictions can be un-scaled.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if not records:
        raise ValueError("need at least one record")
    nch = records[0].vitals.shape[1]
    if not (0 <= target_channel < nch):
        raise ValueError("target_channel out of range")

    # Channel statistics over observed values, for normalisation.
    observed = np.concatenate([
        np.where(r.mask, r.vitals, np.nan) for r in records
    ])
    mean = np.nanmean(observed, axis=0)
    std = np.nanstd(observed, axis=0)
    std = np.where(std < 1e-9, 1.0, std)

    xs, ys = [], []
    for rec in records:
        filled = np.where(rec.mask, rec.vitals, np.nan)
        filled = np.nan_to_num((filled - mean) / std, nan=0.0)
        target = rec.truth[:, target_channel]
        target_n = (target - mean[target_channel]) / std[target_channel]
        for t in range(window, rec.n_hours):
            xs.append(filled[t - window:t])
            ys.append(target_n[t])
    X = np.asarray(xs)
    y = np.asarray(ys)[:, None]
    stats = {
        "mean": mean, "std": std, "target_channel": target_channel,
        "window": window,
    }
    return X, y, stats
