"""A plain multi-layer perceptron baseline."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.ml.layers import Dense, Module
from repro.ml.tensor import Tensor


class MLP(Module):
    """Fully connected ReLU network: sizes[0] -> ... -> sizes[-1]."""

    def __init__(self, sizes: Sequence[int], seed: int = 0) -> None:
        super().__init__()
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        rng = np.random.default_rng(seed)
        self.layers = [
            Dense(a, b, rng=rng) for a, b in zip(sizes[:-1], sizes[1:])
        ]

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers[:-1]:
            x = layer(x).relu()
        return self.layers[-1](x)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return super().predict(x).argmax(axis=1)
