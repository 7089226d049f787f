"""Quantum annealer hardware budgets (Chimera / Pegasus families).

The device budget drives the paper's key QSVM constraint: dense ML
problems must be minor-embedded, and a Chimera C16 (the 2000Q) can embed a
complete graph of only ~65 logical variables, the Pegasus-based Advantage
(5000 qubits, 35000 couplers) ~180.  That is why the paper's QSVM
"requires ... sub-sampl[ing] from large quantities of data and using
ensemble methods" — the experiments validate exactly this capacity gap.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DeviceTopology:
    """An annealer's hardware budget."""

    name: str
    family: str
    n_qubits: int
    n_couplers: int
    #: Largest complete graph minor-embeddable (vendor-published capacity).
    max_clique: int

    def fits_dense_problem(self, n_variables: int) -> bool:
        """Can a fully-connected problem of this size be embedded?"""
        return 1 <= n_variables <= self.max_clique

    def chain_length_for_clique(self, n_variables: int) -> int:
        """Approximate embedding chain length for a K_n minor.

        Chimera's TRIAD embedding uses chains of ~n/4 qubits; Pegasus'
        higher connectivity shortens chains to ~n/12 (K_177 embeds with
        chains of ~15 physical qubits on the Advantage).
        """
        if not self.fits_dense_problem(n_variables):
            raise ValueError(
                f"{self.name} cannot embed K_{n_variables} "
                f"(max clique {self.max_clique})"
            )
        denom = 4 if self.family == "chimera" else 12
        return max(1, -(-n_variables // denom))


#: D-Wave 2000Q: Chimera C16, 2048 qubits, ~6016 couplers, K_64-ish cliques.
DWAVE_2000Q = DeviceTopology(
    name="DW-2000Q", family="chimera",
    n_qubits=2048, n_couplers=6016, max_clique=64,
)

#: D-Wave Advantage (the paper: 5000 qubits, 35000 couplers via JUNIQ/Leap).
DWAVE_ADVANTAGE = DeviceTopology(
    name="Advantage", family="pegasus",
    n_qubits=5000, n_couplers=35000, max_clique=180,
)
