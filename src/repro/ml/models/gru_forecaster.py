"""ARDS time-series models (Sec. IV-B).

The paper's GRU: *"two GRU layers with 32 units each, with dropout values
of 0.2 and both kernel and recurrent regularization, followed by an output
layer (Dense layer of size 1)"*, trained with MAE loss and ADAM at lr 1e-4.
:class:`GruForecaster` is that model verbatim (sizes configurable so tests
can shrink it); :class:`Cnn1dForecaster` is the One-Dimensional CNN the
paper reports as equally promising for missing-value prediction.
"""

from __future__ import annotations

import numpy as np

from repro.ml.layers import Conv1D, Dense, Dropout, Module
from repro.ml.rnn import GRU
from repro.ml.tensor import Tensor

#: The paper's dropout after each GRU layer, and the 1-D CNN's kernel
#: width and channels.
DROPOUT, CNN_KERNEL, CNN_CHANNELS = 0.2, 5, 16
#: The channel the baselines predict: SpO2 of the ICU vitals.
BASELINE_CHANNEL = 1


class GruForecaster(Module):
    """2×GRU(32) + dropout(0.2) + Dense(1): next-value prediction.

    Input (N, T, D) windows of vitals; output (N, 1) — the next value of
    the target channel, used to impute missing entries.
    """

    def __init__(self, n_features: int, hidden: int = 32,
                 seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.gru1 = GRU(n_features, hidden, return_sequences=True, rng=rng)
        self.drop1 = Dropout(DROPOUT, seed=seed + 1)
        self.gru2 = GRU(hidden, hidden, return_sequences=False, rng=rng)
        self.drop2 = Dropout(DROPOUT, seed=seed + 2)
        self.out = Dense(hidden, 1, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        h = self.gru1(x)
        h = self.drop1(h)
        h = self.gru2(h)
        h = self.drop2(h)
        return self.out(h)

    def regularised_parameters(self):
        """Kernel + recurrent weights — the paper regularises both."""
        return [self.gru1.cell.W, self.gru1.cell.U,
                self.gru2.cell.W, self.gru2.cell.U]


class Cnn1dForecaster(Module):
    """1-D CNN alternative the paper highlights as promising."""

    def __init__(self, n_features: int, seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.conv1 = Conv1D(n_features, CNN_CHANNELS, CNN_KERNEL, rng=rng)
        self.conv2 = Conv1D(CNN_CHANNELS, CNN_CHANNELS, CNN_KERNEL, rng=rng)
        self.out = Dense(CNN_CHANNELS, 1, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        # (N, T, D) -> (N, D, T) for convolution over time.
        h = x.transpose(0, 2, 1)
        h = self.conv1(h).relu()
        h = self.conv2(h).relu()
        h = h.mean(axis=2)          # global average over time
        return self.out(h)


def locf_baseline(windows: np.ndarray) -> np.ndarray:
    """Last-observation-carried-forward: predict the window's last value
    of :data:`BASELINE_CHANNEL`.

    The clinical-practice baseline the DL imputers must beat.
    """
    return windows[:, -1, BASELINE_CHANNEL:BASELINE_CHANNEL + 1]


def mean_baseline(windows: np.ndarray) -> np.ndarray:
    """Predict the window mean of :data:`BASELINE_CHANNEL`."""
    return windows[:, :, BASELINE_CHANNEL].mean(axis=1, keepdims=True)
