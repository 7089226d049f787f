"""The SVM kernel, fully vectorised: the paper's RBF kernel."""

from __future__ import annotations

from typing import Callable

import numpy as np

Kernel = Callable[[np.ndarray, np.ndarray], np.ndarray]


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float = 1.0) -> np.ndarray:
    """K(a, b) = exp(-γ ||a - b||²), computed via the expansion trick."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    a2 = (A ** 2).sum(axis=1)[:, None]
    b2 = (B ** 2).sum(axis=1)[None, :]
    d2 = np.maximum(a2 + b2 - 2.0 * (A @ B.T), 0.0)
    return np.exp(-gamma * d2)
