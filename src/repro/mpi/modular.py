"""Cross-module MPI: ranks distributed over MSA modules.

Fig. 1's defining property is that each module has its own fabric while a
high-performance federation joins them.  For jobs whose ranks span modules
(the paper's 'combinations of MSA module resources'), point-to-point cost
depends on *which* modules the endpoints live in:

* same module → the module fabric's α-β,
* different modules → module fabric out + federation hop + fabric in
  (higher latency, federation-bottlenecked bandwidth).

:class:`ModularCostModel` is a drop-in replacement for
:class:`~repro.simnet.costs.CommCostModel` that the communicator consults
per message; :func:`run_modular_spmd` launches an SPMD world with a
rank→module map.  The E12 bench uses this to show why Horovod jobs are
placed *within* the booster rather than across modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.simnet.costs import CommCostModel
from repro.simnet.link import LinkKind


@dataclass(frozen=True)
class ModularCostModel:
    """Pairwise α-β costs over a rank→module placement.

    Presents the :class:`CommCostModel` interface (``alpha``/``beta``/
    ``ptp``) for homogeneous use, *plus* ``ptp_between`` which the
    communicator prefers when present.  ``alpha``/``beta`` reflect the
    worst (inter-module) path so analytic collective bounds stay safe.
    """

    rank_module: tuple[str, ...]
    module_models: dict[str, CommCostModel]
    federation: CommCostModel

    def __post_init__(self) -> None:
        for module in self.rank_module:
            if module not in self.module_models:
                raise ValueError(f"no fabric model for module {module!r}")

    @classmethod
    def build(
        cls,
        rank_module: Sequence[str],
        module_fabrics: dict[str, LinkKind],
    ) -> "ModularCostModel":
        models = {
            module: CommCostModel.of_kind(
                module_fabrics.get(module, LinkKind.INFINIBAND_EDR))
            for module in set(rank_module)
        }
        return cls(
            rank_module=tuple(rank_module),
            module_models=models,
            federation=CommCostModel.of_kind(LinkKind.FEDERATION),
        )

    # -- CommCostModel-compatible surface ----------------------------------
    @property
    def alpha(self) -> float:
        """Worst-case per-message latency (the inter-module path)."""
        worst_local = max(m.alpha for m in self.module_models.values())
        if len(set(self.rank_module)) > 1:
            return 2 * worst_local + self.federation.alpha
        return worst_local

    @property
    def beta(self) -> float:
        """Worst-case inverse bandwidth (federation bottleneck if spanned)."""
        worst_local = max(m.beta for m in self.module_models.values())
        if len(set(self.rank_module)) > 1:
            return max(worst_local, self.federation.beta)
        return worst_local

    def ptp(self, nbytes: float) -> float:
        return self.alpha + nbytes * self.beta

    # -- the modular part ------------------------------------------------------
    def ptp_between(self, src: int, dst: int, nbytes: float) -> float:
        """Cost of one message between two world ranks."""
        m_src = self.rank_module[src]
        m_dst = self.rank_module[dst]
        if m_src == m_dst:
            return self.module_models[m_src].ptp(nbytes)
        # Out through the source fabric, across the federation, in through
        # the destination fabric; bandwidth bottlenecked by the slowest leg.
        a = (self.module_models[m_src].alpha + self.federation.alpha
             + self.module_models[m_dst].alpha)
        b = max(self.module_models[m_src].beta, self.federation.beta,
                self.module_models[m_dst].beta)
        return a + nbytes * b


def run_modular_spmd(
    fn: Callable,
    rank_module: Sequence[str],
    module_fabrics: dict[str, LinkKind],
):
    """``run_spmd`` with ranks placed on named MSA modules."""
    from repro.mpi.runtime import run_spmd

    model = ModularCostModel.build(rank_module, module_fabrics)
    return run_spmd(fn, len(rank_module), cost_model=model)
