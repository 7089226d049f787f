"""Quantum SVM on the annealer (Willsch et al.; the paper's refs [10][11]).

SVM training is cast as a QUBO: each dual coefficient α_i is encoded with
``N_BITS`` binary variables base ``BASE`` (α_i = Σ_k BASE^k a_{iK+k});
minimising

.. math::
    E = ½ Σ_{ij} α_i α_j y_i y_j (K(x_i,x_j) + 2ξ) - Σ_i α_i

(the ξ term softly enforces Σ α_i y_i = 0) over binary a is exactly an
annealer problem.  The encoded problem is *fully connected*, so the device
clique capacity caps the training-set size per anneal — 2000 qubits ≈ 32
samples at 2 bits, the Advantage ≈ 90 — reproducing the paper's "binary
classification only + sub-sampling + ensembles" lesson.  The decision
function averages the ``n_solutions`` lowest-energy samples, as Willsch
et al. do.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

import numpy as np

from repro.quantum.annealer import EmbeddingError, SimulatedQuantumAnnealer
from repro.quantum.qubo import Qubo
from repro.svm.kernels import Kernel, rbf_kernel


class QuantumSVM:
    """Binary SVM trained by quantum annealing (labels in {-1, +1}), with
    an RBF kernel of width ``gamma``."""

    #: Binary variables per dual coefficient, and their base.
    N_BITS = 2
    BASE = 2
    #: Weight of the penalty that softly enforces Σ α_i y_i = 0.
    XI = 1.0

    def __init__(
        self,
        annealer: SimulatedQuantumAnnealer,
        gamma: float = 1.0,
        n_solutions: int = 5,
        seed: int = 0,
    ) -> None:
        self.annealer = annealer
        self.kernel: Kernel = partial(rbf_kernel, gamma=gamma)
        self.n_solutions = n_solutions
        self.seed = seed
        # Fitted state.
        self.X_: Optional[np.ndarray] = None
        self.y_: Optional[np.ndarray] = None
        self.alphas_: Optional[np.ndarray] = None   # (n_solutions, n)
        self.biases_: Optional[np.ndarray] = None

    # -- capacity ---------------------------------------------------------------
    def max_training_samples(self) -> int:
        """Largest training set one anneal can hold on this device."""
        return self.annealer.device.max_clique // self.N_BITS

    def build_qubo(self, X: np.ndarray, y: np.ndarray) -> Qubo:
        n = X.shape[0]
        K = self.kernel(X, X)
        weights = np.array([float(self.BASE) ** k for k in range(self.N_BITS)])
        nv = n * self.N_BITS
        # Pair coefficient matrix over encoded bits.
        yy = np.outer(y, y)
        core = yy * (K + 2.0 * self.XI)                        # (n, n)
        W = np.kron(core, np.outer(weights, weights))          # (nv, nv)
        lin = np.kron(np.ones(n), weights)
        # E = ½ Σ_{uv} W_uv a_u a_v − Σ_u lin_u a_u with binary a (a²=a):
        # off-diagonal pairs keep ½W (folded to W_uv on the upper triangle
        # by Qubo's canonicalisation), the quadratic diagonal ½W_uu merges
        # with the linear term.
        Q = 0.5 * W
        diag = 0.5 * np.diag(W) - lin
        Q[np.arange(nv), np.arange(nv)] = diag
        return Qubo(Q=Q)

    def _decode(self, bits: np.ndarray, n: int) -> np.ndarray:
        weights = np.array([float(self.BASE) ** k for k in range(self.N_BITS)])
        return bits.reshape(n, self.N_BITS) @ weights

    def fit(self, X: np.ndarray, y: np.ndarray) -> "QuantumSVM":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if set(np.unique(y)) - {-1.0, 1.0}:
            raise ValueError("labels must be in {-1, +1}")
        n = X.shape[0]
        if n > self.max_training_samples():
            raise EmbeddingError(
                f"{n} samples × {self.N_BITS} bits exceed device clique "
                f"capacity {self.annealer.device.max_clique} — sub-sample"
            )
        qubo = self.build_qubo(X, y)
        result = self.annealer.sample(qubo, seed=self.seed)
        solutions = result.lowest(self.n_solutions)
        alphas = np.stack([self._decode(sol, n) for sol in solutions])

        K = self.kernel(X, X)
        biases = []
        c_max = float(sum(self.BASE ** k for k in range(self.N_BITS)))
        for a in alphas:
            margin = (a > 0) & (a < c_max)
            idx = np.where(margin)[0] if margin.any() else np.where(a > 0)[0]
            if idx.size == 0:
                biases.append(0.0)
                continue
            f = (a * y) @ K[:, idx]
            biases.append(float(np.mean(y[idx] - f)))
        self.X_, self.y_ = X, y
        self.alphas_ = alphas
        self.biases_ = np.asarray(biases)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        if self.alphas_ is None:
            raise RuntimeError("fit before predicting")
        K = self.kernel(np.asarray(X, dtype=np.float64), self.X_)
        scores = [
            K @ (a * self.y_) + b
            for a, b in zip(self.alphas_, self.biases_)
        ]
        return np.mean(scores, axis=0)


class QSvmEnsemble:
    """QSVMs over class-balanced sub-samples, decision-averaged (ref [11])."""

    #: Members of the ensemble.
    N_MEMBERS = 4

    def __init__(self, annealer: SimulatedQuantumAnnealer,
                 **qsvm_kwargs) -> None:
        self.annealer = annealer
        self.qsvm_kwargs = qsvm_kwargs
        self.members_: list[QuantumSVM] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "QSvmEnsemble":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        rng = np.random.default_rng(0)
        probe = QuantumSVM(self.annealer, seed=0, **self.qsvm_kwargs)
        cap = probe.max_training_samples()
        size = min(cap, X.shape[0])
        self.members_ = []
        attempts = 0
        while len(self.members_) < self.N_MEMBERS:
            attempts += 1
            if attempts > 20 * self.N_MEMBERS:
                raise RuntimeError("could not draw class-balanced sub-samples")
            idx = rng.choice(X.shape[0], size=size, replace=False)
            if len(np.unique(y[idx])) < 2:
                continue
            member = QuantumSVM(
                self.annealer, seed=len(self.members_),
                **self.qsvm_kwargs,
            )
            member.fit(X[idx], y[idx])
            self.members_.append(member)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        if not self.members_:
            raise RuntimeError("fit before predicting")
        return np.mean([m.decision_function(X) for m in self.members_], axis=0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.where(self.decision_function(X) >= 0, 1.0, -1.0)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        return float((self.predict(X) == np.asarray(y)).mean())
