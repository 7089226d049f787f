"""Quantum SVM on the annealer (Willsch et al.; the paper's refs [10][11]).

SVM training is cast as a QUBO: each dual coefficient α_i is encoded with
``n_bits`` binary variables base ``base`` (α_i = Σ_k base^k a_{iK+k});
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

from typing import Optional

import numpy as np

from repro.quantum.annealer import EmbeddingError, SimulatedQuantumAnnealer
from repro.quantum.qubo import Qubo
from repro.svm.kernels import Kernel, make_kernel


class QuantumSVM:
    """Binary SVM trained by quantum annealing (labels in {-1, +1})."""

    def __init__(
        self,
        annealer: SimulatedQuantumAnnealer,
        kernel: str = "rbf",
        n_bits: int = 2,
        base: int = 2,
        xi: float = 1.0,
        num_reads: int = 30,
        n_solutions: int = 5,
        seed: int = 0,
        **kernel_params,
    ) -> None:
        if n_bits < 1 or base < 2:
            raise ValueError("n_bits >= 1 and base >= 2 required")
        self.annealer = annealer
        self.kernel_name = kernel
        self.kernel: Kernel = make_kernel(kernel, **kernel_params)
        self.n_bits = n_bits
        self.base = base
        self.xi = xi
        self.num_reads = num_reads
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
        return self.annealer.device.max_clique // self.n_bits

    def build_qubo(self, X: np.ndarray, y: np.ndarray) -> Qubo:
        n = X.shape[0]
        K = self.kernel(X, X)
        weights = np.array([float(self.base) ** k for k in range(self.n_bits)])
        nv = n * self.n_bits
        # Pair coefficient matrix over encoded bits.
        yy = np.outer(y, y)
        core = yy * (K + 2.0 * self.xi)                        # (n, n)
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
        weights = np.array([float(self.base) ** k for k in range(self.n_bits)])
        return bits.reshape(n, self.n_bits) @ weights

    def fit(self, X: np.ndarray, y: np.ndarray) -> "QuantumSVM":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if set(np.unique(y)) - {-1.0, 1.0}:
            raise ValueError("labels must be in {-1, +1}")
        n = X.shape[0]
        if n > self.max_training_samples():
            raise EmbeddingError(
                f"{n} samples × {self.n_bits} bits exceed device clique "
                f"capacity {self.annealer.device.max_clique} — sub-sample"
            )
        qubo = self.build_qubo(X, y)
        result = self.annealer.sample(qubo, num_reads=self.num_reads,
                                      seed=self.seed)
        solutions = result.lowest(self.n_solutions)
        alphas = np.stack([self._decode(sol, n) for sol in solutions])

        K = self.kernel(X, X)
        biases = []
        c_max = float(sum(self.base ** k for k in range(self.n_bits)))
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

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.where(self.decision_function(X) >= 0, 1.0, -1.0)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        return float((self.predict(X) == np.asarray(y)).mean())


class QSvmEnsemble:
    """QSVMs over class-balanced sub-samples, decision-averaged (ref [11])."""

    def __init__(self, annealer: SimulatedQuantumAnnealer,
                 n_members: int = 5, **qsvm_kwargs) -> None:
        if n_members < 1:
            raise ValueError("need at least one member")
        self.annealer = annealer
        self.n_members = n_members
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
        while len(self.members_) < self.n_members:
            attempts += 1
            if attempts > 20 * self.n_members:
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
