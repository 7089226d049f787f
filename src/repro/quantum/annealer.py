"""Simulated quantum annealer with hardware budget enforcement.

Samples low-energy states of a QUBO with simulated annealing (geometric
temperature schedule, single-bit Metropolis flips using incremental ΔE),
honouring a :class:`~repro.quantum.topology.DeviceTopology`: dense problems
larger than the device's clique capacity are rejected exactly as a real
D-Wave embedding would fail — forcing the sub-sample/ensemble workflow the
paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.quantum.qubo import Qubo
from repro.quantum.topology import DeviceTopology


#: Independent anneals per submission.
NUM_READS = 10


class EmbeddingError(RuntimeError):
    """Problem does not fit the device topology."""


@dataclass
class AnnealResult:
    """Samples returned by one anneal submission, best-first."""

    samples: np.ndarray          # (NUM_READS, n) binary, sorted by energy
    energies: np.ndarray         # (NUM_READS,)
    n_variables: int
    chain_length: int
    physical_qubits: int

    def lowest(self, k: int) -> np.ndarray:
        """The k lowest-energy distinct samples."""
        seen: set[bytes] = set()
        out = []
        for row in self.samples:
            key = row.tobytes()
            if key not in seen:
                seen.add(key)
                out.append(row)
            if len(out) == k:
                break
        return np.asarray(out)


class SimulatedQuantumAnnealer:
    """A QA device simulator.

    >>> annealer = SimulatedQuantumAnnealer.for_device(DWAVE_2000Q)
    >>> result = annealer.sample(qubo)
    """

    def __init__(self, n_qubits: int = 5000, n_couplers: int = 35000,
                 topology_family: str = "pegasus",
                 sweeps: int = 400) -> None:
        max_clique = 64 if topology_family == "chimera" else 180
        self.device = DeviceTopology(
            name=f"sim-{topology_family}", family=topology_family,
            n_qubits=n_qubits, n_couplers=n_couplers, max_clique=max_clique,
        )
        self.sweeps = sweeps

    @classmethod
    def for_device(cls, device: DeviceTopology,
                   sweeps: int = 400) -> "SimulatedQuantumAnnealer":
        inst = cls(n_qubits=device.n_qubits, n_couplers=device.n_couplers,
                   topology_family=device.family, sweeps=sweeps)
        inst.device = device
        return inst

    # -- budget checks -----------------------------------------------------------
    def _check_embeddable(self, qubo: Qubo) -> int:
        n = qubo.n_variables
        density = qubo.n_interactions / max(1, n * (n - 1) // 2)
        if density > 0.5:
            # Dense problem: needs a clique embedding.
            if not self.device.fits_dense_problem(n):
                raise EmbeddingError(
                    f"{self.device.name}: K_{n} exceeds clique capacity "
                    f"{self.device.max_clique} — sub-sample the data"
                )
            chain = self.device.chain_length_for_clique(n)
        else:
            # Sparse problem: qubit/coupler budget is the binding limit.
            chain = 1
            if n > self.device.n_qubits:
                raise EmbeddingError(f"{n} variables exceed "
                                     f"{self.device.n_qubits} qubits")
            if qubo.n_interactions > self.device.n_couplers:
                raise EmbeddingError("interaction count exceeds couplers")
        physical = n * chain
        if physical > self.device.n_qubits:
            raise EmbeddingError(
                f"embedding needs {physical} physical qubits, device has "
                f"{self.device.n_qubits}"
            )
        return chain

    # -- sampling --------------------------------------------------------------------
    def sample(self, qubo: Qubo, seed: Optional[int] = None) -> AnnealResult:
        """Anneal :data:`NUM_READS` independent runs, return sorted
        samples."""
        chain = self._check_embeddable(qubo)
        rng = np.random.default_rng(0 if seed is None else seed)
        n = qubo.n_variables

        # Temperature schedule spanning the coefficient scale.
        scale = max(np.abs(qubo.Q).max(), 1e-12)
        t_hot, t_cold = 2.0 * scale * n ** 0.5, 1e-3 * scale
        temps = np.geomspace(t_hot, t_cold, self.sweeps)

        samples = np.empty((NUM_READS, n))
        energies = np.empty(NUM_READS)
        for read in range(NUM_READS):
            x = rng.integers(0, 2, size=n).astype(np.float64)
            for T in temps:
                deltas = qubo.energy_deltas(x)
                # Metropolis sweep in a random order, vectorised acceptance
                # draw; flips applied sequentially via delta refresh every
                # few bits would be exact — one refresh per sweep is the
                # standard fast approximation, but we keep exactness by
                # flipping greedily-stochastically one bit at a time.
                order = rng.permutation(n)
                u = rng.random(n)
                for idx, bit in enumerate(order):
                    d = deltas[bit]
                    if d <= 0 or u[idx] < np.exp(-d / T):
                        # flip and update deltas incrementally
                        x_old = x[bit]
                        x[bit] = 1.0 - x_old
                        sym_col = qubo.Q[bit, :] + qubo.Q[:, bit]
                        sign = 1.0 - 2.0 * x_old   # +1 if turning on
                        deltas += (1.0 - 2.0 * x) * sym_col * sign
                        deltas[bit] = -d
            samples[read] = x
            energies[read] = qubo.energy(x)

        order = np.argsort(energies, kind="stable")
        return AnnealResult(
            samples=samples[order],
            energies=energies[order],
            n_variables=n,
            chain_length=chain,
            physical_qubits=n * chain,
        )
