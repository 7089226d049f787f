"""An MSA system: modules joined by the network federation (Fig. 1)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.simnet.topology import Topology, federated
from repro.core.module import (
    ComputeModule,
    NamModule,
    QuantumModule,
    StorageModule,
)

AnyModule = Union[ComputeModule, StorageModule, NamModule, QuantumModule]


@dataclass
class MSASystem:
    """A modular supercomputer: heterogeneous modules + federated network.

    >>> from repro.core import deep_system
    >>> deep = deep_system()
    >>> deep.module("dam").total_gpus
    16
    """

    name: str
    _modules: dict[str, AnyModule] = field(default_factory=dict)
    _federation: Optional[Topology] = field(default=None, repr=False)
    _revision: int = field(default=0, repr=False, compare=False)

    # -- composition ------------------------------------------------------------
    def add_module(self, key: str, module: AnyModule) -> "MSASystem":
        if key in self._modules:
            raise ValueError(f"module key {key!r} already present")
        self._modules[key] = module
        self._federation = None
        self._revision += 1
        return self

    @property
    def revision(self) -> int:
        """Bumped by every :meth:`add_module`; holders of a module snapshot
        (the scheduler) compare it instead of re-reading the inventory."""
        return self._revision

    def module(self, key: str) -> AnyModule:
        try:
            return self._modules[key]
        except KeyError:
            raise KeyError(
                f"{self.name} has no module {key!r}; available: {sorted(self._modules)}"
            ) from None

    @property
    def modules(self) -> dict[str, AnyModule]:
        return dict(self._modules)

    def compute_modules(self) -> dict[str, ComputeModule]:
        return {
            k: m for k, m in self._modules.items() if isinstance(m, ComputeModule)
        }

    # -- aggregates (the paper quotes these for JUWELS) ----------------------------
    @property
    def total_cpu_cores(self) -> int:
        return sum(m.total_cpu_cores for m in self.compute_modules().values())

    @property
    def total_gpus(self) -> int:
        return sum(m.total_gpus for m in self.compute_modules().values())

    @property
    def total_nodes(self) -> int:
        return sum(m.n_nodes for m in self.compute_modules().values())

    @property
    def peak_flops(self) -> float:
        return sum(m.peak_flops for m in self.compute_modules().values())

    # -- federation ---------------------------------------------------------------
    @property
    def federation(self) -> Topology:
        """Federated topology over all compute-module fabrics."""
        if self._federation is None:
            fabrics = {k: m.topology for k, m in self.compute_modules().items()}
            if not fabrics:
                raise ValueError(f"{self.name} has no compute modules")
            self._federation = federated(
                fabrics, name=f"{self.name}-federation")
        return self._federation

    def inter_module_transfer_time(
        self, src_module: str, dst_module: str, nbytes: float
    ) -> float:
        """Time to move ``nbytes`` between two modules across the federation."""
        if src_module == dst_module:
            return 0.0
        topo = self.federation
        src = (src_module, ("node", 0))
        dst = (dst_module, ("node", 0))
        return topo.transfer_time(src, dst, nbytes)

    def placement(self, rank_module: Sequence[str]) -> "RankPlacement":
        """The message costs of SPMD ranks placed on these modules, one
        module key per rank: pass it to ``run_spmd`` as ``cost_model``."""
        return RankPlacement(self, tuple(rank_module))

    # -- reporting ------------------------------------------------------------------
    def inventory(self) -> list[dict]:
        """One row per module — the Table-I-style system inventory."""
        rows = []
        for key, mod in self._modules.items():
            if isinstance(mod, ComputeModule):
                rows.append({
                    "key": key,
                    "kind": mod.kind.value,
                    "nodes": mod.n_nodes,
                    "cpu_cores": mod.total_cpu_cores,
                    "gpus": mod.total_gpus,
                    "fpgas": mod.total_fpgas,
                    "memory_GB": round(mod.total_memory_GB, 1),
                    "nvm_GB": round(mod.total_nvm_GB, 1),
                    "peak_tflops": round(mod.peak_flops / 1e12, 1),
                })
            elif isinstance(mod, StorageModule):
                rows.append({
                    "key": key, "kind": mod.kind.value,
                    "capacity_PB": mod.capacity_PB,
                    "aggregate_GBps": mod.aggregate_GBps,
                })
            elif isinstance(mod, NamModule):
                rows.append({
                    "key": key, "kind": mod.kind.value,
                    "capacity_GB": mod.capacity_GB,
                })
            else:
                rows.append({
                    "key": key, "kind": mod.kind.value,
                    "qubits": mod.n_qubits, "couplers": mod.n_couplers,
                })
        return rows

    def describe(self) -> str:
        lines = [f"MSA system {self.name!r}"]
        for row in self.inventory():
            detail = ", ".join(f"{k}={v}" for k, v in row.items() if k != "key")
            lines.append(f"  [{row['key']}] {detail}")
        return "\n".join(lines)


@dataclass(frozen=True)
class RankPlacement:
    """SPMD ranks placed on compute modules of one :class:`MSASystem`.

    A view with no α or β of its own: a message within a module costs that
    module's fabric (``ComputeModule.cost_model``), one across modules
    :meth:`MSASystem.inter_module_transfer_time`, the scheduler's figure
    for the same bytes.
    """

    system: MSASystem
    rank_module: tuple[str, ...]

    def __post_init__(self) -> None:
        unknown = set(self.rank_module) - set(self.system.compute_modules())
        if unknown:
            raise ValueError(f"{self.system.name} has no compute module "
                             f"{sorted(unknown)}")

    def ptp_between(self, src: int, dst: int, nbytes: float) -> float:
        """Cost of one message between two world ranks."""
        a, b = self.rank_module[src], self.rank_module[dst]
        if a == b:
            return self.system.module(a).cost_model.ptp(nbytes)
        return self.system.inter_module_transfer_time(a, b, nbytes)
