"""The simulated clock: messages advance logical time per the fabric model."""

import numpy as np
import pytest

from repro.mpi import ANY_TAG, run_spmd
from repro.simnet import CommCostModel, LinkKind


def test_compute_advances_clock():
    def fn(comm):
        comm.compute(1.5)
        comm.compute(0.5)
        return comm.sim_time

    assert run_spmd(fn, 1) == [2.0]


def test_negative_compute_rejected():
    from repro.mpi import SpmdFailure

    with pytest.raises(SpmdFailure):
        run_spmd(lambda comm: comm.compute(-1.0), 2)


def test_message_charges_link_cost(hdr_fabric):
    model = hdr_fabric

    def fn(comm):
        if comm.rank == 0:
            comm.send(np.zeros(125_000), dest=1)   # 1 MB
        else:
            comm.recv(source=0, tag=ANY_TAG)
        return comm.sim_time

    times = run_spmd(fn, 2, cost_model=model)
    expected = model.ptp(1_000_000)
    assert times[1] == pytest.approx(expected, rel=0.01)


def test_receiver_never_ahead_of_sender_plus_cost(hdr_fabric):
    def fn(comm):
        if comm.rank == 0:
            comm.compute(1.0)
            comm.send("late", dest=1)
        else:
            comm.recv(source=0, tag=ANY_TAG)
        return comm.sim_time

    times = run_spmd(fn, 2, cost_model=hdr_fabric)
    # Receiver's clock must include the sender's 1 s of compute.
    assert times[1] >= 1.0


def test_bigger_payload_takes_longer(hdr_fabric):
    def fn(n):
        def allreduce(comm):
            comm.allreduce(np.ones(n))
            return comm.sim_time
        return allreduce

    t_small = run_spmd(fn(1_000), 4, cost_model=hdr_fabric)
    t_big = run_spmd(fn(1_000_000), 4, cost_model=hdr_fabric)
    assert max(t_big) > max(t_small)


def test_more_ranks_cost_more_latency(hdr_fabric):
    def fn(comm):
        comm.allreduce(np.ones(64))
        return comm.sim_time

    t2 = run_spmd(fn, 2, cost_model=hdr_fabric)
    t8 = run_spmd(fn, 8, cost_model=hdr_fabric)
    assert max(t8) > max(t2)


def test_slower_fabric_slower_clock(hdr_fabric):
    def fn(comm):
        comm.allreduce(np.ones(500_000))
        return comm.sim_time

    fast = hdr_fabric
    slow = CommCostModel.of_kind(LinkKind.ETHERNET_100G)
    t_fast = run_spmd(fn, 4, cost_model=fast)
    t_slow = run_spmd(fn, 4, cost_model=slow)
    assert max(t_slow) > max(t_fast)


def test_compute_and_comm_both_advance_sim_time():
    def fn(comm):
        comm.compute(0.25)
        after_compute = comm.sim_time
        comm.allreduce(np.ones(10_000))
        return (after_compute, comm.sim_time)

    out = run_spmd(fn, 4)
    for after_compute, after_comm in out:
        assert after_compute == pytest.approx(0.25)
        assert after_comm > after_compute


def test_sim_clock_deterministic(hdr_fabric):
    def fn(comm):
        comm.allreduce(np.ones(4096))
        comm.bcast("x" if comm.rank == 0 else None)
        return comm.sim_time

    t1 = run_spmd(fn, 4, cost_model=hdr_fabric)
    t2 = run_spmd(fn, 4, cost_model=hdr_fabric)
    assert t1 == t2
