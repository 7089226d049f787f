"""E9 — Fig. 1 GCE: the ESB's FPGA collective engine vs software MPI.

The GCE 'speeds up common MPI collective operations in hardware such as
MPI reduce operations'.  We regenerate: (a) the speedup table across rank
counts and payload sizes, (b) functional equality of the offloaded result
against the software ring at real (threaded) scale, (c) software-algorithm
selection as the crossover backdrop.
"""

import numpy as np
import pytest

from repro.mpi import GlobalCollectiveEngine, gce_allreduce, run_spmd
from repro.mpi.runtime import spmd_sim_times
from repro.simnet import CollectiveCosts, CommCostModel, LinkKind

from conftest import emit_table

FABRIC = CommCostModel.of_kind(LinkKind.INFINIBAND_HDR)


def test_gce_speedup_table():
    gce = GlobalCollectiveEngine(FABRIC)

    def table():
        rows = []
        for p in (16, 64, 256, 1024):
            for nbytes, label in ((4 << 10, "4 KiB"), (1 << 20, "1 MiB"),
                                  (100 << 20, "100 MiB")):
                sw = gce.software_allreduce_time(p, nbytes)
                hw = gce.allreduce_time(p, nbytes)
                rows.append([p, label, f"{sw * 1e6:.1f}", f"{hw * 1e6:.1f}",
                             f"{sw / hw:.1f}x"])
        return rows

    rows = table()
    emit_table("E9 — GCE-offloaded vs software ring allreduce (µs)",
               ["ranks", "payload", "software", "GCE", "speedup"], rows)

    # Latency-bound collectives gain most; gains grow with rank count.
    speedups = {(r[0], r[1]): float(r[4][:-1]) for r in rows}
    assert speedups[(1024, "4 KiB")] > speedups[(16, "4 KiB")] > 1.0
    assert all(s >= 1.0 for s in speedups.values())


def test_gce_functional_equality():
    """Offloaded reduction computes exactly the software result."""
    gce = GlobalCollectiveEngine(FABRIC)
    rng = np.random.default_rng(0)
    data = rng.normal(size=(8, 512))
    expected = data.sum(axis=0)

    def fn(comm):
        return gce_allreduce(comm, data[comm.rank].copy(), gce)

    outs = run_spmd(fn, 8)
    for out in outs:
        np.testing.assert_allclose(out, expected, rtol=1e-12)


def test_gce_simulated_clock_advantage():
    """Run the same reduction through (a) software ring over the simulated
    MPI and (b) the GCE path, and compare the simulated clocks."""
    gce = GlobalCollectiveEngine(FABRIC)
    payload = np.ones(250_000)   # 2 MB

    def software(comm):
        comm.allreduce(payload.copy())
        return comm.sim_time

    def offloaded(comm):
        gce_allreduce(comm, payload.copy(), gce)
        return comm.sim_time

    def measure():
        _, t_sw = spmd_sim_times(software, 8, cost_model=FABRIC)
        _, t_hw = spmd_sim_times(offloaded, 8, cost_model=FABRIC)
        return max(t_sw), max(t_hw)

    t_sw, t_hw = measure()
    rows = [["software ring (8 ranks, 2 MB)", f"{t_sw * 1e6:.1f}"],
            ["GCE offload (8 ranks, 2 MB)", f"{t_hw * 1e6:.1f}"]]
    emit_table("E9 — simulated clocks through the functional MPI (µs)",
               ["path", "time µs"], rows)
    assert t_hw < t_sw


def test_software_algorithm_selection_backdrop():
    """MPI-style auto-selection: latency-optimal for small messages,
    bandwidth-optimal for large — the regime the GCE then beats."""
    costs = CollectiveCosts(FABRIC)

    def best_for(nbytes):
        from repro.simnet.costs import best_allreduce_time

        _, name = best_allreduce_time(64, nbytes, FABRIC.alpha, FABRIC.beta,
                                      FABRIC.gamma)
        return name

    choices = {n: best_for(n) for n in (256, 64 << 10, 64 << 20)}
    rows = [[f"{n} B", alg] for n, alg in choices.items()]
    emit_table("E9 — software allreduce auto-selection at 64 ranks",
               ["payload", "chosen algorithm"], rows)
    assert choices[256] == "recursive-doubling"
    assert choices[64 << 20] in ("ring", "rabenseifner")
