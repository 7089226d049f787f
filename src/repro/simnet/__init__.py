"""Simulation substrate for the MSA reproduction.

This package provides the timed foundations everything else builds on:

* :mod:`repro.simnet.events` — a deterministic discrete-event simulation
  (DES) engine with generator-based processes and resources,
* :mod:`repro.simnet.link` — latency/bandwidth link models,
* :mod:`repro.simnet.topology` — tree interconnects as parent maps
  (fat-tree and the MSA *network federation* joining module fabrics),
* :mod:`repro.simnet.costs` — analytic α-β(-γ) communication cost models for
  point-to-point transfers and MPI collective algorithms.

The functional layer (:mod:`repro.mpi`, :mod:`repro.distributed`) executes
algorithms for real on small rank counts; this package supplies the simulated
clock that extrapolates the *same* algorithms to paper scale (96–128 GPUs,
Fig. 3) deterministically on a laptop.
"""

from repro.simnet.events import (
    Event,
    EventQueue,
    Process,
    Resource,
    SimulationError,
    Simulator,
)
from repro.simnet.link import Link, LinkKind, PartitionWindow
from repro.simnet.topology import (
    Topology,
    fat_tree,
    federated,
)
from repro.simnet.costs import (
    CommCostModel,
    ptp_time,
    allreduce_ring_time,
    allreduce_recursive_doubling_time,
    allreduce_rabenseifner_time,
    best_allreduce_time,
)

__all__ = [
    "Event",
    "EventQueue",
    "Process",
    "Resource",
    "SimulationError",
    "Simulator",
    "Link",
    "PartitionWindow",
    "LinkKind",
    "Topology",
    "fat_tree",
    "federated",
    "CommCostModel",
    "ptp_time",
    "allreduce_ring_time",
    "allreduce_recursive_doubling_time",
    "allreduce_rabenseifner_time",
    "best_allreduce_time",
]
