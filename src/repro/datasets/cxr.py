"""Synthetic COVIDx: chest radiographs with class-conditional opacities.

COVIDx [25] aggregates CXR images in three classes.  The paper's clinical
premise: "patients present abnormalities in chest radiography images that
are characteristic of those infected with COVID-19".  The generator encodes
the characteristic radiological patterns:

* **normal** — clear (dark) lung fields inside a bright thorax,
* **pneumonia** — a focal consolidation: one bright blob in a single lung,
* **covid19** — bilateral, peripheral ground-glass opacities: several
  soft-edged blobs near the outer margins of both lungs.

Classes are separable only through those spatial patterns (global intensity
statistics are matched), so a classifier's accuracy measures real pattern
learning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CXR_CLASSES = ("normal", "pneumonia", "covid19")
#: Side of a radiograph in pixels (real COVIDx is 480+).
IMAGE_SIZE = 32


@dataclass(frozen=True)
class CxrConfig:
    n_samples: int = 300
    noise_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples >= 1 required")
        if not (self.noise_sigma >= 0):          # NaN fails too
            raise ValueError("noise_sigma must be non-negative")


class SyntheticCovidx:
    """Deterministic CXR generator over the three COVIDx classes."""

    def __init__(self, config: CxrConfig) -> None:
        self.config = config

    # -- anatomy ------------------------------------------------------------
    def _thorax(self, rng: np.random.Generator, hw: int) -> np.ndarray:
        """Bright body, two dark elliptical lung fields."""
        yy, xx = np.mgrid[0:hw, 0:hw] / (hw - 1)
        img = np.full((hw, hw), 0.75)
        for cx in (0.32, 0.68):
            cy = 0.52 + rng.normal(0, 0.02)
            rx = 0.16 + rng.normal(0, 0.01)
            ry = 0.30 + rng.normal(0, 0.015)
            lung = ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2 <= 1.0
            img[lung] = 0.25
        # Mediastinum / spine stripe.
        img[:, int(hw * 0.47):int(hw * 0.53)] = np.maximum(
            img[:, int(hw * 0.47):int(hw * 0.53)], 0.8)
        return img

    @staticmethod
    def _blob(img: np.ndarray, cx: float, cy: float, radius: float,
              amplitude: float) -> None:
        hw = img.shape[0]
        yy, xx = np.mgrid[0:hw, 0:hw] / (hw - 1)
        d2 = (xx - cx) ** 2 + (yy - cy) ** 2
        img += amplitude * np.exp(-d2 / (2 * radius ** 2))

    # -- pathology ------------------------------------------------------------
    def _apply_pneumonia(self, rng: np.random.Generator, img: np.ndarray) -> None:
        """One focal consolidation in a single lung."""
        side = 0.32 if rng.random() < 0.5 else 0.68
        cy = rng.uniform(0.38, 0.66)
        self._blob(img, side + rng.normal(0, 0.03), cy,
                   radius=rng.uniform(0.07, 0.10),
                   amplitude=rng.uniform(0.35, 0.5))

    def _apply_covid(self, rng: np.random.Generator, img: np.ndarray) -> None:
        """Bilateral peripheral ground-glass opacities."""
        for side, outer in ((0.32, 0.20), (0.68, 0.80)):
            n_blobs = int(rng.integers(2, 4))
            for _ in range(n_blobs):
                cx = outer + rng.normal(0, 0.03)
                cy = rng.uniform(0.35, 0.72)
                self._blob(img, cx, cy,
                           radius=rng.uniform(0.05, 0.08),
                           amplitude=rng.uniform(0.12, 0.22))

    # -- generation ----------------------------------------------------------------
    def generate(self) -> tuple[np.ndarray, np.ndarray]:
        """Returns (X, y): X (N, 1, H, W) in [0, ~1.3], y class ids."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        hw = IMAGE_SIZE
        y = rng.integers(0, len(CXR_CLASSES), size=cfg.n_samples)
        X = np.empty((cfg.n_samples, 1, hw, hw))
        for i in range(cfg.n_samples):
            img = self._thorax(rng, hw)
            cls = CXR_CLASSES[int(y[i])]
            if cls == "pneumonia":
                self._apply_pneumonia(rng, img)
            elif cls == "covid19":
                self._apply_covid(rng, img)
            X[i, 0] = img
        X += rng.normal(0.0, cfg.noise_sigma, size=X.shape)
        return X, y.astype(np.int64)

    def generate_external_validation(
        self, n_samples: int) -> tuple[np.ndarray, np.ndarray]:
        """An 'unseen hospital' distribution shift: new seed, slightly
        different acquisition (contrast/noise) — the pharma-collaboration
        validation set of Sec. IV-A."""
        cfg = CxrConfig(
            n_samples=n_samples,
            noise_sigma=self.config.noise_sigma * 1.5,
            seed=self.config.seed + 104729,     # an unrelated stream
        )
        X, y = SyntheticCovidx(cfg).generate()
        # Different detector calibration: a mild gain/offset shift.  Kept
        # mild deliberately — the paper's claim is that COVID-Net
        # generalises to the unseen hospital, so the shift must change the
        # acquisition, not the pathology signal.
        X = X * 1.03 + 0.01
        return X, y
