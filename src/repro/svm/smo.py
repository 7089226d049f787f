"""Sequential Minimal Optimization (Platt) from scratch.

Binary soft-margin SVC solving the dual

.. math::
    \\max_α Σα_i - ½ ΣΣ α_i α_j y_i y_j K(x_i, x_j)
    \\quad 0 ≤ α_i ≤ C, \\; Σ α_i y_i = 0

with the simplified-SMO pair-update loop (KKT-violating first index, random
second) — robust at the dataset sizes the experiments use, and the training
cost is superlinear in n, which is exactly why the cascade parallelisation
of ref [16] pays off.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

import numpy as np

from repro.svm.kernels import Kernel, rbf_kernel


class SVC:
    """Binary soft-margin SVM with labels in {-1, +1} and an RBF kernel of
    width ``gamma``."""

    #: The soft-margin penalty.
    C = 1.0
    #: KKT tolerance of the pair-update loop.
    TOL = 1e-3
    #: Sweeps without a change that end training.
    MAX_PASSES = 5

    def __init__(self, gamma: float = 1.0, seed: int = 0) -> None:
        self.gamma = gamma
        self.kernel: Kernel = partial(rbf_kernel, gamma=gamma)
        self.seed = seed
        # Fitted state.
        self.support_vectors_: Optional[np.ndarray] = None
        self.support_alpha_y_: Optional[np.ndarray] = None
        self.b_: float = 0.0
        self.n_iter_: int = 0

    # -- training ----------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "SVC":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if set(np.unique(y)) - {-1.0, 1.0}:
            raise ValueError("labels must be in {-1, +1}")
        if len(np.unique(y)) < 2:
            raise ValueError("need both classes present")
        n = X.shape[0]
        rng = np.random.default_rng(self.seed)
        K = self.kernel(X, X)
        alpha = np.zeros(n)
        b = 0.0

        def f(i: int) -> float:
            return float((alpha * y) @ K[:, i] + b)

        # SMO's pair-update count grows with n; the default cap keeps total
        # cost O(n²) (each update is O(n)), matching observed SMO scaling —
        # the superlinearity the cascade parallelisation exploits.
        max_iter = 25 * n
        passes = 0
        it = 0
        while passes < self.MAX_PASSES and it < max_iter:
            changed = 0
            for i in range(n):
                it += 1
                Ei = f(i) - y[i]
                if (y[i] * Ei < -self.TOL and alpha[i] < self.C) or \
                   (y[i] * Ei > self.TOL and alpha[i] > 0):
                    j = int(rng.integers(0, n - 1))
                    if j >= i:
                        j += 1
                    Ej = f(j) - y[j]
                    ai_old, aj_old = alpha[i], alpha[j]
                    if y[i] != y[j]:
                        L = max(0.0, aj_old - ai_old)
                        H = min(self.C, self.C + aj_old - ai_old)
                    else:
                        L = max(0.0, ai_old + aj_old - self.C)
                        H = min(self.C, ai_old + aj_old)
                    if L >= H:
                        continue
                    eta = 2.0 * K[i, j] - K[i, i] - K[j, j]
                    if eta >= 0:
                        continue
                    aj = aj_old - y[j] * (Ei - Ej) / eta
                    aj = float(np.clip(aj, L, H))
                    if abs(aj - aj_old) < 1e-7:
                        continue
                    ai = ai_old + y[i] * y[j] * (aj_old - aj)
                    alpha[i], alpha[j] = ai, aj
                    b1 = b - Ei - y[i] * (ai - ai_old) * K[i, i] \
                        - y[j] * (aj - aj_old) * K[i, j]
                    b2 = b - Ej - y[i] * (ai - ai_old) * K[i, j] \
                        - y[j] * (aj - aj_old) * K[j, j]
                    if 0 < ai < self.C:
                        b = b1
                    elif 0 < aj < self.C:
                        b = b2
                    else:
                        b = 0.5 * (b1 + b2)
                    changed += 1
            passes = passes + 1 if changed == 0 else 0

        sv = alpha > 1e-8
        self.support_vectors_ = X[sv]
        self.support_alpha_y_ = (alpha * y)[sv]
        self.b_ = b
        self.n_iter_ = it
        return self

    # -- inference ------------------------------------------------------------------
    def decision_function(self, X: np.ndarray) -> np.ndarray:
        if self.support_vectors_ is None:
            raise RuntimeError("fit before predicting")
        if self.support_vectors_.shape[0] == 0:
            return np.full(len(X), self.b_)
        K = self.kernel(np.asarray(X, dtype=np.float64), self.support_vectors_)
        return K @ self.support_alpha_y_ + self.b_

    def predict(self, X: np.ndarray) -> np.ndarray:
        scores = self.decision_function(X)
        out = np.where(scores >= 0, 1.0, -1.0)
        return out

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        return float((self.predict(X) == np.asarray(y)).mean())

    def clone_unfitted(self) -> "SVC":
        return SVC(gamma=self.gamma, seed=self.seed)
