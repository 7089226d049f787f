"""Point-to-point messaging, SPMD runtime, communicator management."""

import inspect

import numpy as np
import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG, run_spmd, SpmdFailure
from repro.mpi.comm import Communicator
from repro.mpi.runtime import spmd_sim_times
from repro.mpi.transport import payload_nbytes


def test_world_size_one_runs_inline():
    assert run_spmd(lambda comm: comm.rank, 1) == [0]


def test_rank_and_size():
    out = run_spmd(lambda comm: (comm.rank, comm.size), 4)
    assert out == [(0, 4), (1, 4), (2, 4), (3, 4)]


def test_send_recv_object():
    def fn(comm):
        if comm.rank == 0:
            comm.send({"a": 7, "b": 3.14}, dest=1, tag=11)
            return None
        return comm.recv(source=0, tag=11)

    out = run_spmd(fn, 2)
    assert out[1] == {"a": 7, "b": 3.14}


def test_recv_names_its_source_and_tag():
    # No defaults: a wildcard receive says ANY_SOURCE and ANY_TAG.
    params = inspect.signature(Communicator.recv).parameters
    assert [params[p].default for p in ("source", "tag")] == [
        inspect.Parameter.empty] * 2


def test_send_recv_numpy_buffer():
    def fn(comm):
        if comm.rank == 0:
            comm.send(np.arange(10, dtype=np.float64), dest=1)
            return None
        return comm.recv(source=0, tag=ANY_TAG)

    out = run_spmd(fn, 2)
    assert np.array_equal(out[1], np.arange(10))


def test_any_source_any_tag():
    def fn(comm):
        if comm.rank == 0:
            got = [comm.recv(source=ANY_SOURCE, tag=ANY_TAG) for _ in range(2)]
            return sorted(got)
        comm.send(comm.rank * 100, dest=0, tag=comm.rank)
        return None

    out = run_spmd(fn, 3)
    assert out[0] == [100, 200]


def test_tag_matching_out_of_order():
    def fn(comm):
        if comm.rank == 0:
            comm.send("first", dest=1, tag=1)
            comm.send("second", dest=1, tag=2)
            return None
        second = comm.recv(source=0, tag=2)
        first = comm.recv(source=0, tag=1)
        return (first, second)

    out = run_spmd(fn, 2)
    assert out[1] == ("first", "second")


def test_exception_propagates_and_unblocks():
    def fn(comm):
        if comm.rank == 0:
            raise RuntimeError("boom")
        # Would deadlock without abort propagation.
        comm.recv(source=0, tag=ANY_TAG)

    with pytest.raises(SpmdFailure) as exc:
        run_spmd(fn, 2)
    assert exc.value.rank == 0


def test_user_tag_range_enforced():
    def fn(comm):
        comm.send("x", dest=comm.rank, tag=1 << 21)

    with pytest.raises(SpmdFailure):
        run_spmd(fn, 2)


def test_invalid_world_size():
    with pytest.raises(ValueError):
        run_spmd(lambda comm: None, 0)



def test_traffic_counters():
    def fn(comm):
        if comm.rank == 0:
            comm.send(np.zeros(100), dest=1)
        elif comm.rank == 1:
            comm.recv(source=0, tag=ANY_TAG)
        return (comm.state.bytes_sent, comm.state.messages_sent)

    out = run_spmd(fn, 2)
    assert out == [(800, 1), (0, 0)]


class TestSplitDup:
    def test_split_by_parity(self):
        def fn(comm):
            sub = comm.Split(color=comm.rank % 2, key=comm.rank)
            return (sub.rank, sub.size, sub.allreduce(comm.rank))

        out = run_spmd(fn, 6)
        evens = sum(r for r in range(6) if r % 2 == 0)
        odds = sum(r for r in range(6) if r % 2 == 1)
        for rank, (sub_rank, sub_size, total) in enumerate(out):
            assert sub_size == 3
            assert total == (evens if rank % 2 == 0 else odds)

    def test_split_key_orders_ranks(self):
        def fn(comm):
            # Reverse the ordering within one color.
            sub = comm.Split(color=0, key=-comm.rank)
            return sub.rank

        out = run_spmd(fn, 4)
        assert out == [3, 2, 1, 0]

    def test_split_negative_color_returns_none(self):
        def fn(comm):
            sub = comm.Split(color=-1 if comm.rank == 0 else 0)
            if comm.rank == 0:
                return sub is None
            return sub.size

        out = run_spmd(fn, 3)
        assert out[0] is True
        assert out[1] == 2


class TestPayloadSize:
    def test_ndarray(self):
        assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80

    def test_bytes(self):
        assert payload_nbytes(b"12345") == 5

    def test_object_is_pickle_size(self):
        assert payload_nbytes({"k": 1}) > 0


def test_spmd_sim_times_reports_clocks(hdr_fabric):
    def fn(comm):
        comm.allreduce(np.ones(1000))

    _, times = spmd_sim_times(fn, 4, cost_model=hdr_fabric)
    assert all(t > 0 for t in times)
