"""Quantum annealer hardware topologies (Chimera / Pegasus).

The device budget drives the paper's key QSVM constraint: dense ML
problems must be minor-embedded, and a Chimera C16 (the 2000Q) can embed a
complete graph of only ~65 logical variables, the Pegasus-based Advantage
(5000 qubits, 35000 couplers) ~180.  That is why the paper's QSVM
"requires ... sub-sampl[ing] from large quantities of data and using
ensemble methods" — the experiments validate exactly this capacity gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx


def chimera_graph(m: int, n: int | None = None, t: int = 4) -> nx.Graph:
    """The Chimera graph C_{m,n,t}: an m×n grid of K_{t,t} unit cells.

    Within a cell, left spins connect to right spins (complete bipartite);
    right spins connect horizontally between column-adjacent cells, left
    spins vertically between row-adjacent cells.  C_{16,16,4} is the
    D-Wave 2000Q working graph (2048 qubits).
    """
    n = m if n is None else n
    if m < 1 or n < 1 or t < 1:
        raise ValueError("all Chimera dimensions must be >= 1")
    g = nx.Graph()
    def node(i, j, side, k):
        return (i, j, side, k)

    for i in range(m):
        for j in range(n):
            for k in range(t):
                g.add_node(node(i, j, 0, k))
                g.add_node(node(i, j, 1, k))
            # complete bipartite inside the cell
            for k1 in range(t):
                for k2 in range(t):
                    g.add_edge(node(i, j, 0, k1), node(i, j, 1, k2))
    for i in range(m):
        for j in range(n):
            for k in range(t):
                if i + 1 < m:   # vertical couplers on side 0
                    g.add_edge(node(i, j, 0, k), node(i + 1, j, 0, k))
                if j + 1 < n:   # horizontal couplers on side 1
                    g.add_edge(node(i, j, 1, k), node(i, j + 1, 1, k))
    return g


def pegasus_like_graph(size: int = 16) -> nx.Graph:
    """A Pegasus-degree proxy: Chimera connectivity densified to degree ~15.

    The exact Pegasus construction is intricate; for budget modelling we
    need node count (~5000), coupler count (~35000) and clique capacity
    (~(K next-nearest) — achieved here by adding odd-couplers between
    neighbouring cells, raising the average degree from 6 to ~14).
    """
    g = chimera_graph(size, size, 4)
    # Add intra-cell same-side ("odd") couplers and diagonal cell links.
    for i in range(size):
        for j in range(size):
            for k in range(0, 4, 2):
                g.add_edge((i, j, 0, k), (i, j, 0, k + 1))
                g.add_edge((i, j, 1, k), (i, j, 1, k + 1))
            if i + 1 < size and j + 1 < size:
                for k in range(4):
                    g.add_edge((i, j, 0, k), (i + 1, j + 1, 0, k))
                    g.add_edge((i, j, 1, k), (i + 1, j + 1, 1, k))
    return g


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


def graph_for(device: DeviceTopology) -> nx.Graph:
    """Construct the (approximate) hardware graph of a device."""
    if device.family == "chimera":
        return chimera_graph(16, 16, 4)
    if device.family == "pegasus":
        return pegasus_like_graph(16)
    raise ValueError(f"unknown family {device.family!r}")
