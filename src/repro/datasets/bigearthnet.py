"""Synthetic BigEarthNet: multispectral land-cover patches.

BigEarthNet [19] is 590k Sentinel-2 patches annotated with CORINE land
cover classes.  The synthetic generator reproduces the properties the
experiments rely on:

* 12 spectral bands with class-conditional signatures (vegetation has the
  red-edge/NIR bump, water absorbs NIR/SWIR, urban is spectrally flat and
  bright, ...),
* spatial texture (smooth fields, speckled forest, blocky urban),
* single-label (dominant class) annotation,
* controllable difficulty via noise and mixing.

A :class:`~repro.ml.models.resnet.ResNet` reaches high accuracy on it only
by actually learning the spectral-spatial structure — random guessing sits
at 1/n_classes — which is what the distributed-training invariance
experiment (E3) needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Sentinel-2 band names (the 12 bands BigEarthNet ships).
SENTINEL2_BANDS = (
    "B01", "B02", "B03", "B04", "B05", "B06",
    "B07", "B08", "B8A", "B09", "B11", "B12",
)

#: A compact CORINE-style class nomenclature.
LAND_COVER_CLASSES = (
    "urban-fabric",
    "industrial",
    "arable-land",
    "pasture",
    "broadleaf-forest",
    "coniferous-forest",
    "natural-grassland",
    "moors-heathland",
    "water-body",
    "coastal-wetland",
)

#: Class-conditional spectral signatures, one reflectance per band, derived
#: from textbook spectral curves (vegetation red edge, water absorption...).
_SIGNATURES = {
    "urban-fabric":      [0.18, 0.20, 0.22, 0.24, 0.25, 0.26, 0.27, 0.28, 0.28, 0.26, 0.30, 0.28],
    "industrial":        [0.25, 0.28, 0.30, 0.32, 0.32, 0.33, 0.33, 0.34, 0.34, 0.32, 0.36, 0.35],
    "arable-land":       [0.08, 0.09, 0.12, 0.10, 0.18, 0.30, 0.34, 0.36, 0.37, 0.30, 0.22, 0.14],
    "pasture":           [0.07, 0.08, 0.11, 0.08, 0.20, 0.36, 0.42, 0.45, 0.46, 0.36, 0.24, 0.13],
    "broadleaf-forest":  [0.05, 0.06, 0.09, 0.06, 0.16, 0.34, 0.42, 0.46, 0.47, 0.38, 0.20, 0.10],
    "coniferous-forest": [0.04, 0.05, 0.07, 0.05, 0.11, 0.22, 0.27, 0.30, 0.31, 0.26, 0.14, 0.07],
    "natural-grassland": [0.08, 0.09, 0.13, 0.11, 0.19, 0.30, 0.34, 0.36, 0.37, 0.30, 0.26, 0.17],
    "moors-heathland":   [0.07, 0.08, 0.10, 0.10, 0.14, 0.20, 0.23, 0.25, 0.25, 0.22, 0.20, 0.14],
    "water-body":        [0.06, 0.07, 0.06, 0.04, 0.03, 0.02, 0.02, 0.01, 0.01, 0.01, 0.01, 0.01],
    "coastal-wetland":   [0.07, 0.08, 0.09, 0.07, 0.09, 0.13, 0.15, 0.16, 0.16, 0.13, 0.08, 0.04],
}

#: Per-class spatial texture amplitude (urban blocky, forest speckled...).
_TEXTURE = {
    "urban-fabric": 0.08, "industrial": 0.06, "arable-land": 0.02,
    "pasture": 0.02, "broadleaf-forest": 0.05, "coniferous-forest": 0.05,
    "natural-grassland": 0.03, "moors-heathland": 0.03,
    "water-body": 0.005, "coastal-wetland": 0.02,
}


@dataclass(frozen=True)
class BigEarthNetConfig:
    """Generator parameters."""

    n_samples: int = 512
    patch_size: int = 16            # real patches are 120x120; tests shrink
    n_classes: int = 10
    noise_sigma: float = 0.02
    seed: int = 0

    def __post_init__(self) -> None:
        if not (1 <= self.n_classes <= len(LAND_COVER_CLASSES)):
            raise ValueError(f"n_classes must be in [1, {len(LAND_COVER_CLASSES)}]")
        if self.n_samples < 1 or self.patch_size < 4:
            raise ValueError("n_samples >= 1 and patch_size >= 4 required")
        if not (self.noise_sigma >= 0):          # NaN fails too
            raise ValueError("noise_sigma must be non-negative")


class SyntheticBigEarthNet:
    """Deterministic multispectral patch generator."""

    def __init__(self, config: BigEarthNetConfig) -> None:
        self.config = config
        self.classes = LAND_COVER_CLASSES[: self.config.n_classes]
        self.signatures = np.array([_SIGNATURES[c] for c in self.classes])
        self.n_bands = len(SENTINEL2_BANDS)

    def _class_patch(self, rng: np.random.Generator, class_idx: int) -> np.ndarray:
        """(bands, H, W) patch of one class with texture + illumination."""
        cfg = self.config
        hw = cfg.patch_size
        name = self.classes[class_idx]
        sig = self.signatures[class_idx]
        # Base reflectance per band, broadcast to the patch.
        patch = np.broadcast_to(sig[:, None, None], (self.n_bands, hw, hw)).copy()
        # Spatially correlated texture: smooth a white-noise field.
        texture = rng.normal(0.0, 1.0, size=(hw + 4, hw + 4))
        kernel = np.ones((5, 5)) / 25.0
        smooth = np.zeros((hw, hw))
        for i in range(5):
            for j in range(5):
                smooth += kernel[i, j] * texture[i:i + hw, j:j + hw]
        patch += _TEXTURE[name] * smooth[None, :, :]
        # Global illumination factor (sun angle / atmosphere).
        patch *= rng.uniform(0.85, 1.15)
        return patch

    def generate(self) -> tuple[np.ndarray, np.ndarray]:
        """Returns (X, y): X (N, 12, H, W) float, y (N,) int labels."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        y = rng.integers(0, cfg.n_classes, size=cfg.n_samples)
        X = np.empty((cfg.n_samples, self.n_bands, cfg.patch_size, cfg.patch_size))
        for i in range(cfg.n_samples):
            X[i] = self._class_patch(rng, int(y[i]))
        X += rng.normal(0.0, cfg.noise_sigma, size=X.shape)
        return X, y.astype(np.int64)

    def pixels(self, n_pixels: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-pixel spectra (n_pixels, bands) + class ids — autoencoder food."""
        rng = np.random.default_rng(self.config.seed)
        y = rng.integers(0, self.config.n_classes, size=n_pixels)
        spectra = self.signatures[y]
        spectra = spectra * rng.uniform(0.85, 1.15, size=(n_pixels, 1))
        spectra = spectra + rng.normal(0.0, self.config.noise_sigma,
                                       size=spectra.shape)
        return spectra, y.astype(np.int64)
