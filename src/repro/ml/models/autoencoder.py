"""Autoencoder for non-linear remote-sensing data compression.

The paper (Sec. III-B, ref [7] Haut et al.) describes a cloud/Spark
implementation of a DL network for non-linear RS data compression "known as
AutoEncoder".  :class:`SpectralAutoencoder` compresses per-pixel spectra
(hyperspectral/multispectral band vectors) through a bottleneck; the E5
bench runs it inside the Spark-like engine on DAM-tier memory.
"""

from __future__ import annotations

import numpy as np

from repro.ml.layers import Dense, Module
from repro.ml.tensor import Tensor


class SpectralAutoencoder(Module):
    """Dense encoder/decoder over spectral vectors (N, bands)."""

    #: Width of the one hidden layer on each side of the bottleneck.
    HIDDEN = 16

    def __init__(self, n_bands: int, bottleneck: int, seed: int = 0) -> None:
        super().__init__()
        if bottleneck >= n_bands:
            raise ValueError("bottleneck must compress (be < n_bands)")
        rng = np.random.default_rng(seed)
        hidden = self.HIDDEN
        self.enc1 = Dense(n_bands, hidden, rng=rng)
        self.enc2 = Dense(hidden, bottleneck, rng=rng)
        self.dec1 = Dense(bottleneck, hidden, rng=rng)
        self.dec2 = Dense(hidden, n_bands, rng=rng)
        self.n_bands = n_bands
        self.bottleneck = bottleneck

    def encode(self, x: Tensor) -> Tensor:
        return self.enc2(self.enc1(x).relu())

    def decode(self, z: Tensor) -> Tensor:
        return self.dec2(self.dec1(z).relu())

    def forward(self, x: Tensor) -> Tensor:
        return self.decode(self.encode(x))

    @property
    def compression_ratio(self) -> float:
        return self.n_bands / self.bottleneck

    def reconstruction_error(self, x: np.ndarray) -> float:
        """Mean squared reconstruction error on a raw batch."""
        rec = self.predict(x)
        return float(((rec - x) ** 2).mean())
