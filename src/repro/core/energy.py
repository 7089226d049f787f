"""Energy accounting for MSA systems.

The paper's headline constraint triple is *minimal energy consumption,
minimal time to solution, minimal system cost*; Fig. 2's argument is that
running each application part on the matching module improves both time to
solution **and** energy.  This module provides the power model behind that
claim: nodes draw idle power while allocated-but-underused and load power
proportional to the components a phase exercises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.hardware import NodeSpec
from repro.core.jobs import JobPhase


@dataclass(frozen=True)
class PowerModel:
    """Power draw of one node under a given phase."""

    node: NodeSpec
    #: Draw of an allocated node with nothing running, and the board power
    #: of one FPGA (the catalogue's FPGAs all draw the same), watts.
    idle_watts, fpga_tdp_watts = 100.0, 120.0

    def load_watts(self, phase: Optional[JobPhase]) -> float:
        """Draw while running ``phase`` (idle if None).

        CPUs always burn (they host the run); GPUs burn at TDP only when the
        phase uses them, otherwise at ~10% leakage; same for FPGAs.
        """
        if phase is None:
            return self.idle_watts
        watts = self.idle_watts + self.node.cpu.tdp_watts * self.node.cpu_sockets
        gpu_tdp = sum(g.tdp_watts for g in self.node.gpus)
        fpga_tdp = self.fpga_tdp_watts * len(self.node.fpgas)
        watts += gpu_tdp if phase.uses_gpu else 0.10 * gpu_tdp
        watts += 0.10 * fpga_tdp  # FPGAs idle unless a GCE/offload phase runs
        return watts

    def energy_joules(self, phase: Optional[JobPhase], seconds: float) -> float:
        if seconds < 0:
            raise ValueError("duration must be non-negative")
        return self.load_watts(phase) * seconds


@dataclass
class EnergyAccountant:
    """Accumulates energy per module across a schedule."""

    _busy_joules: dict[str, float] = field(default_factory=dict)
    _idle_joules: dict[str, float] = field(default_factory=dict)

    def charge_phase(
        self, module_key: str, node: NodeSpec, phase: JobPhase,
        n_nodes: int, seconds: float,
    ) -> float:
        pm = PowerModel(node)
        joules = pm.energy_joules(phase, seconds) * n_nodes
        self._busy_joules[module_key] = self._busy_joules.get(module_key, 0.0) + joules
        return joules

    def credit_phase(
        self, module_key: str, node: NodeSpec, phase: JobPhase,
        n_nodes: int, seconds: float,
    ) -> float:
        """Refund energy pre-charged for run time that never happened.

        Phase energy is charged up-front for the planned runtime; when a
        fault kills the phase early the unconsumed tail is credited back so
        failed runs only account for the power they actually drew.
        """
        pm = PowerModel(node)
        joules = pm.energy_joules(phase, seconds) * n_nodes
        self._busy_joules[module_key] = self._busy_joules.get(module_key, 0.0) - joules
        return joules

    def charge_idle(
        self, module_key: str, node: NodeSpec, node_seconds: float
    ) -> float:
        joules = PowerModel(node).idle_watts * node_seconds
        self._idle_joules[module_key] = self._idle_joules.get(module_key, 0.0) + joules
        return joules

    @property
    def busy_joules(self) -> float:
        return sum(self._busy_joules.values())

    @property
    def idle_joules(self) -> float:
        return sum(self._idle_joules.values())
