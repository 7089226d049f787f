"""QUBO and Ising problem containers.

A QUBO minimises ``x^T Q x`` over binary x; an Ising model minimises
``Σ h_i s_i + Σ J_ij s_i s_j`` over spins s ∈ {-1, +1}.  The two are
related by ``x = (s + 1) / 2``; annealers natively speak Ising, ML
formulations are naturally QUBO.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Qubo:
    """A QUBO instance with a dense upper-triangular coefficient matrix."""

    Q: np.ndarray
    offset: float = 0.0

    def __post_init__(self) -> None:
        Q = np.asarray(self.Q, dtype=np.float64)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be square")
        # Canonicalise: fold into upper triangle (x_i x_j = x_j x_i).
        upper = np.triu(Q) + np.tril(Q, -1).T
        self.Q = upper

    @property
    def n_variables(self) -> int:
        return self.Q.shape[0]

    @property
    def n_interactions(self) -> int:
        off_diag = np.triu(self.Q, 1)
        return int(np.count_nonzero(off_diag))

    def energy(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_variables,):
            raise ValueError("assignment length mismatch")
        if not np.isin(x, (0.0, 1.0)).all():
            raise ValueError("QUBO variables must be binary")
        return float(x @ self.Q @ x + self.offset)

    def energies(self, X: np.ndarray) -> np.ndarray:
        """Vectorised energies for a batch of assignments (m, n)."""
        X = np.asarray(X, dtype=np.float64)
        return np.einsum("mi,ij,mj->m", X, self.Q, X) + self.offset

    def energy_deltas(self, x: np.ndarray) -> np.ndarray:
        """ΔE of flipping each bit of ``x`` — the annealer's inner loop.

        For bit k: ΔE = (1 - 2 x_k) · (Q_kk + Σ_{j≠k} (Q_kj + Q_jk) x_j).
        """
        x = np.asarray(x, dtype=np.float64)
        sym = self.Q + self.Q.T          # doubles the diagonal
        diag = np.diag(self.Q)
        field = sym @ x - 2.0 * diag * x + diag
        return (1.0 - 2.0 * x) * field

    def to_ising(self) -> "IsingModel":
        """Exact transformation to h/J spin coefficients."""
        Q = self.Q
        n = self.n_variables
        J = np.triu(Q, 1) / 4.0
        h = np.diag(Q) / 2.0 + (np.triu(Q, 1).sum(axis=1)
                                + np.triu(Q, 1).sum(axis=0)) / 4.0
        offset = self.offset + np.diag(Q).sum() / 2.0 + np.triu(Q, 1).sum() / 4.0
        return IsingModel(h=h, J=J, offset=offset)


@dataclass
class IsingModel:
    """Ising spins: E(s) = h·s + Σ_{i<j} J_ij s_i s_j + offset."""

    h: np.ndarray
    J: np.ndarray
    offset: float = 0.0

    def __post_init__(self) -> None:
        self.h = np.asarray(self.h, dtype=np.float64)
        self.J = np.triu(np.asarray(self.J, dtype=np.float64), 1)
        if self.J.shape != (self.h.shape[0], self.h.shape[0]):
            raise ValueError("J must be (n, n) matching h")

    @property
    def n_spins(self) -> int:
        return self.h.shape[0]

    def energy(self, s: np.ndarray) -> float:
        s = np.asarray(s, dtype=np.float64)
        if not np.isin(s, (-1.0, 1.0)).all():
            raise ValueError("spins must be ±1")
        return float(self.h @ s + s @ self.J @ s + self.offset)

    def to_qubo(self) -> Qubo:
        """Inverse transformation (x = (s+1)/2)."""
        n = self.n_spins
        Jsym = self.J
        Q = np.zeros((n, n))
        Q += 4.0 * Jsym
        diag = 2.0 * self.h - 2.0 * (Jsym.sum(axis=1) + Jsym.sum(axis=0))
        Q[np.arange(n), np.arange(n)] += diag
        offset = self.offset - self.h.sum() + Jsym.sum()
        return Qubo(Q=Q, offset=offset)
