"""MSA modules (Fig. 1 of the paper).

Each module is a parallel clustered system with its own fabric, tailored to
a class of workloads:

* **CM** — Cluster Module: fat multi-core CPUs, fast single-thread, limited
  scalability, good memory; for computationally expensive low/medium-scale
  codes,
* **ESB** — Extreme Scale Booster: many-core (here: GPU-dense) nodes for
  highly scalable regular codes, with the FPGA Global Collective Engine in
  its fabric,
* **DAM** — Data Analytics Module: GPU+FPGA nodes with very large
  DDR+HBM+NVM memory for Spark-style analytics and DL,
* **SSSM** — Scalable Storage Service Module: parallel filesystem
  (Lustre/GPFS),
* **NAM** — Network Attached Memory: network-shared dataset staging,
* **QM** — Quantum Module: a quantum annealer (D-Wave-class) used as an
  optimisation accelerator.

Modules expose node inventory, a free-node allocator, a fabric cost model,
and capability scores used by the scheduler's matchmaking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.simnet.costs import CommCostModel
from repro.simnet.link import LinkKind
from repro.simnet.topology import Topology, fat_tree
from repro.core.hardware import NodeSpec


class ModuleKind(str, Enum):
    CLUSTER = "CM"
    BOOSTER = "ESB"
    DATA_ANALYTICS = "DAM"
    STORAGE = "SSSM"
    NAM = "NAM"
    QUANTUM = "QM"


class AllocationError(RuntimeError):
    """Raised when a module cannot satisfy a node request."""


@dataclass
class ComputeModule:
    """A parallel clustered system: homogeneous nodes + module fabric."""

    name: str
    kind: ModuleKind
    node_spec: NodeSpec
    n_nodes: int
    fabric_kind: LinkKind = LinkKind.INFINIBAND_EDR
    _free: set = field(default_factory=set, repr=False)
    _down: set = field(default_factory=set, repr=False)
    _topology: Optional[Topology] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.n_nodes < 0:
            raise ValueError("n_nodes must be non-negative")
        self._free = set(range(self.n_nodes))
        self._down = set()

    # -- inventory -----------------------------------------------------------
    @property
    def total_cpu_cores(self) -> int:
        return self.n_nodes * self.node_spec.cpu_cores

    @property
    def total_gpus(self) -> int:
        return self.n_nodes * self.node_spec.gpu_count

    @property
    def total_fpgas(self) -> int:
        return self.n_nodes * len(self.node_spec.fpgas)

    @property
    def total_memory_GB(self) -> float:
        return self.n_nodes * self.node_spec.memory.total_GB

    @property
    def total_nvm_GB(self) -> float:
        return self.n_nodes * self.node_spec.memory.nvm_GB

    @property
    def peak_flops(self) -> float:
        return self.n_nodes * self.node_spec.peak_flops

    # -- fabric ----------------------------------------------------------------
    @property
    def topology(self) -> Topology:
        if self._topology is None:
            self._topology = fat_tree(
                max(self.n_nodes, 1), self.fabric_kind,
                name=f"{self.name}-fabric",
            )
        return self._topology

    @property
    def cost_model(self) -> CommCostModel:
        return CommCostModel.of_kind(self.fabric_kind)

    # -- allocation ---------------------------------------------------------------
    @property
    def free_nodes(self) -> int:
        return len(self._free)

    @property
    def down_nodes(self) -> set[int]:
        """Nodes currently failed/under repair (not allocatable)."""
        return set(self._down)

    def allocate(self, n: int, avoid: Optional[set[int]] = None) -> list[int]:
        """Take ``n`` free nodes (lowest ids first, deterministic).

        ``avoid`` marks suspect nodes (e.g. recently repaired after a
        crash): they are used only when no clean node remains, so failure-
        aware placement steers work away from flaky hardware without
        shrinking capacity.
        """
        if n < 0:
            raise ValueError("cannot allocate a negative node count")
        if n > len(self._free):
            raise AllocationError(
                f"{self.name}: requested {n} nodes, only {len(self._free)} free"
            )
        if avoid:
            taken = sorted(self._free, key=lambda i: (i in avoid, i))[:n]
        else:
            taken = sorted(self._free)[:n]
        self._free.difference_update(taken)
        return taken

    def release(self, nodes: list[int]) -> None:
        for node in nodes:
            if node in self._free:
                raise AllocationError(f"{self.name}: node {node} released twice")
            if not (0 <= node < self.n_nodes):
                raise AllocationError(f"{self.name}: node {node} out of range")
        self._free.update(n for n in nodes if n not in self._down)

    # -- failure/repair -------------------------------------------------------
    def mark_down(self, node: int) -> None:
        """Take a node out of service (crash); busy nodes go down too."""
        if not (0 <= node < self.n_nodes):
            raise AllocationError(f"{self.name}: node {node} out of range")
        self._down.add(node)
        self._free.discard(node)

    def mark_up(self, node: int) -> None:
        """Return a repaired node to the free pool."""
        if node not in self._down:
            raise AllocationError(f"{self.name}: node {node} is not down")
        self._down.discard(node)
        self._free.add(node)


def ClusterModule(name: str, node_spec: NodeSpec, n_nodes: int,
                  fabric: LinkKind = LinkKind.INFINIBAND_EDR) -> ComputeModule:
    """The general-purpose Cluster Module (CM)."""
    return ComputeModule(name, ModuleKind.CLUSTER, node_spec, n_nodes, fabric_kind=fabric)


@dataclass
class BoosterModule(ComputeModule):
    """Extreme Scale Booster with the FPGA Global Collective Engine."""

    def __init__(self, name: str, node_spec: NodeSpec, n_nodes: int,
                 fabric: LinkKind = LinkKind.INFINIBAND_HDR) -> None:
        super().__init__(name, ModuleKind.BOOSTER, node_spec, n_nodes, fabric_kind=fabric)


def DataAnalyticsModule(name: str, node_spec: NodeSpec,
                        n_nodes: int) -> ComputeModule:
    """The large-memory Data Analytics Module (DAM), on EXTOLL."""
    return ComputeModule(name, ModuleKind.DATA_ANALYTICS, node_spec, n_nodes,
                         fabric_kind=LinkKind.EXTOLL)


@dataclass
class StorageModule:
    """Scalable Storage Service Module: front-end to the parallel filesystem."""

    name: str
    capacity_PB: float
    n_targets: int = 32                  # object storage targets (OSTs)
    target_GBps: float = 5.0             # per-OST streaming bandwidth
    kind: ModuleKind = ModuleKind.STORAGE

    @property
    def aggregate_GBps(self) -> float:
        return self.n_targets * self.target_GBps


@dataclass
class NamModule:
    """Network Attached Memory: shared dataset staging over the fabric."""

    name: str
    capacity_GB: float = 1024.0
    read_GBps: float = 10.0
    write_GBps: float = 8.0
    kind: ModuleKind = ModuleKind.NAM


@dataclass
class QuantumModule:
    """Quantum Module: a quantum annealer integrated as an accelerator.

    The paper reports using a D-Wave 2000Q (2000 qubits) and later the
    Advantage system (5000 qubits, 35000 couplers) through JUNIQ.
    """

    name: str
    n_qubits: int = 5000
    n_couplers: int = 35000
    topology_family: str = "pegasus"
    kind: ModuleKind = ModuleKind.QUANTUM
