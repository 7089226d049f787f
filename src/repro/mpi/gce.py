"""Global Collective Engine (GCE) — FPGA collective offload of the ESB.

The paper (Sec. II-A, Fig. 1) describes the ESB's network fabric as
integrating an FPGA-based Global Collective Engine that executes common MPI
collectives (reductions in particular) *in hardware*.  Observable effects:

* reductions complete in near-constant time with respect to rank count
  (the fabric reduces in-network, a pipelined tree of switch-resident
  reduction units), and
* per-message software overhead disappears (no p-1 CPU-driven ring steps).

We model the GCE as an alternative collective executor: functionally it
computes the identical result (validated in tests against the software ring),
and its simulated time is ``α_gce + n·β_gce + depth·α_hop`` where depth grows
logarithmically with rank count — the cost of a pipelined in-network tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.simnet.costs import CommCostModel
from repro.mpi.comm import Communicator


#: Per-collective fixed offload latency (doorbell + descriptor fetch).
OFFLOAD_ALPHA = 1.5e-6
#: In-network per-hop pipeline latency.
HOP_ALPHA = 0.4e-6
#: Streaming efficiency vs raw link bandwidth (pipelined, near line rate).
STREAM_EFFICIENCY = 0.95
#: Switch radix of the reduction tree.
RADIX = 16


@dataclass(frozen=True)
class GlobalCollectiveEngine:
    """Hardware-offload collective model for the ESB fabric.

    The module constants are relative to the host fabric's software path:
    the FPGA pipeline removes the per-step software α and streams at line
    rate.
    """

    fabric: CommCostModel

    def allreduce_time(self, p: int, nbytes: float) -> float:
        """Simulated time of a GCE-offloaded allreduce."""
        if p < 1:
            raise ValueError("need at least one rank")
        if p == 1:
            return 0.0
        depth = max(1, math.ceil(math.log(p, RADIX)))
        stream = nbytes * self.fabric.beta / STREAM_EFFICIENCY
        # Up-tree reduce + down-tree broadcast are pipelined full-duplex
        # (results stream down while data still streams up), so the payload
        # is serialised once; tree propagation costs a hop each way.
        return OFFLOAD_ALPHA + 2 * depth * HOP_ALPHA + stream

    def software_allreduce_time(self, p: int, nbytes: float) -> float:
        """Reference software ring time on the same fabric (for speedup
        reporting)."""
        from repro.simnet.costs import allreduce_ring_time

        return allreduce_ring_time(p, nbytes, self.fabric.alpha,
                                   self.fabric.beta)


def gce_allreduce(
    comm: Communicator,
    array: np.ndarray,
    gce: GlobalCollectiveEngine,
) -> np.ndarray:
    """Functionally exact SUM allreduce with GCE-offload *timing*.

    The numerical result equals the software allreduce (hardware reduction
    units implement the same arithmetic).  The simulated clock of every rank
    is charged the GCE time instead of the software collective's ptp costs:
    we run the reduction through a tree without per-message charging, then
    synchronise clocks explicitly, as the in-network engine does.
    """
    # Functional phase — use the object tree reduce + bcast for the values,
    # on a zero-cost clone so software ptp costs are not charged.
    free_model = CommCostModel(alpha=0.0, beta=0.0)
    quiet = comm.with_cost_model(free_model)
    total = quiet.reduce(array.copy())
    result = quiet.bcast(total)
    comm._coll_seq = quiet._coll_seq  # keep the collective sequence aligned

    # Timing phase: all ranks enter, the engine completes at
    # max(entry times) + gce_time; every rank leaves at that instant.
    entry_times = quiet.allgather(comm.state.sim_time)
    comm._coll_seq = quiet._coll_seq
    t_done = max(entry_times) + gce.allreduce_time(comm.size, array.nbytes)
    comm.state.observe(t_done)
    return np.asarray(result).reshape(array.shape)
