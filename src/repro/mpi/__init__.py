"""Simulated MPI for the MSA reproduction.

An in-process SPMD MPI implementation with the mpi4py API flavour: the
lowercase methods (``send``/``recv``/``bcast``/``allreduce``) communicate
Python objects and NumPy arrays.

Two things distinguish it from a toy:

* **Collective algorithms are real.**  Ring allreduce, recursive doubling,
  Rabenseifner reduce-scatter+allgather, binomial-tree broadcast and
  dissemination barrier are implemented on top of point-to-point messaging
  (:mod:`repro.mpi.collectives`), exactly the algorithms Horovod and MPI
  libraries use on the systems in the paper.
* **Every rank carries a simulated clock.**  Messages piggyback send
  timestamps; a receive advances the receiver to
  ``max(local, send_time + link_cost)`` (a conservative PDES logical clock).
  Running a distributed algorithm therefore yields both its *result* and its
  *simulated time* on a chosen fabric — this is how laptop runs regenerate
  booster-scale behaviour.

The FPGA Global Collective Engine of the ESB module (Fig. 1) is modelled in
:mod:`repro.mpi.gce`.
"""

from repro.mpi.runtime import run_spmd, SpmdFailure
from repro.mpi.comm import Communicator, ANY_SOURCE, ANY_TAG
from repro.mpi.transport import Transport, RankState
from repro.mpi.gce import GlobalCollectiveEngine, gce_allreduce
from repro.mpi.modular import ModularCostModel, run_modular_spmd

__all__ = [
    "run_spmd",
    "SpmdFailure",
    "Communicator",
    "ANY_SOURCE",
    "ANY_TAG",
    "Transport",
    "RankState",
    "GlobalCollectiveEngine",
    "gce_allreduce",
    "ModularCostModel",
    "run_modular_spmd",
]
