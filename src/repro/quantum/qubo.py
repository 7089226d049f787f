"""The QUBO problem container.

A QUBO minimises ``x^T Q x`` over binary x.  Annealers natively speak
Ising (spins s ∈ {-1, +1}, ``x = (s + 1) / 2``); ML formulations are
naturally QUBO, and the simulated annealer samples the QUBO directly.
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

    def energy_deltas(self, x: np.ndarray) -> np.ndarray:
        """ΔE of flipping each bit of ``x`` — the annealer's inner loop.

        For bit k: ΔE = (1 - 2 x_k) · (Q_kk + Σ_{j≠k} (Q_kj + Q_jk) x_j).
        """
        x = np.asarray(x, dtype=np.float64)
        sym = self.Q + self.Q.T          # doubles the diagonal
        diag = np.diag(self.Q)
        field = sym @ x - 2.0 * diag * x + diag
        return (1.0 - 2.0 * x) * field

