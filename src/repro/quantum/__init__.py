"""The Quantum Module (QM) — a simulated quantum annealer.

Sec. III-C: the paper uses D-Wave annealers (2000Q with 2000 qubits, later
the Advantage system with 5000 qubits and 35000 couplers via D-Wave Leap /
JUNIQ) as MSA accelerators for ML optimisation problems, specifically a
quantum SVM limited to binary classification and sub-sampled data.

* :mod:`repro.quantum.qubo` — the QUBO problem container,
* :mod:`repro.quantum.topology` — the 2000Q / Advantage hardware budgets
  and their complete-graph embedding capacity (the sub-sampling constraint),
* :mod:`repro.quantum.annealer` — a simulated annealer honouring a
  device's qubit/coupler budget,
* :mod:`repro.quantum.qsvm` — the QUBO formulation of SVM training
  (Willsch et al.), with the ensemble construction of ref [11].
"""

from repro.quantum.qubo import Qubo
from repro.quantum.topology import (
    DeviceTopology,
    DWAVE_2000Q,
    DWAVE_ADVANTAGE,
)
from repro.quantum.annealer import SimulatedQuantumAnnealer, AnnealResult
from repro.quantum.qsvm import QuantumSVM, QSvmEnsemble

__all__ = [
    "Qubo",
    "DeviceTopology",
    "DWAVE_2000Q",
    "DWAVE_ADVANTAGE",
    "SimulatedQuantumAnnealer",
    "AnnealResult",
    "QuantumSVM",
    "QSvmEnsemble",
]
