"""Collective algorithms: correctness at multiple world sizes, including
non-powers-of-two, verified against NumPy reference reductions."""

import numpy as np
import pytest

from repro.mpi import run_spmd
from repro.mpi.collectives import rabenseifner_allreduce, ring_allreduce_inplace

SIZES = [1, 2, 3, 4, 5, 7, 8]


@pytest.mark.parametrize("ws", SIZES)
def test_bcast_object(ws):
    def fn(comm):
        return comm.bcast({"v": 42} if comm.rank == 0 else None)

    assert run_spmd(fn, ws) == [{"v": 42}] * ws


@pytest.mark.parametrize("ws", SIZES)
def test_barrier_completes(ws):
    def fn(comm):
        for _ in range(3):
            comm.barrier()
        return True

    assert all(run_spmd(fn, ws))


@pytest.mark.parametrize("ws", SIZES)
def test_gather(ws):
    def fn(comm):
        return comm.gather(comm.rank ** 2)

    out = run_spmd(fn, ws)
    assert out[0] == [r ** 2 for r in range(ws)]
    assert all(o is None for o in out[1:])


@pytest.mark.parametrize("ws", SIZES)
def test_allgather(ws):
    def fn(comm):
        return comm.allgather(comm.rank * 10)

    expected = [r * 10 for r in range(ws)]
    assert run_spmd(fn, ws) == [expected] * ws


@pytest.mark.parametrize("ws", SIZES)
def test_reduce_sums_at_rank_0(ws):
    def fn(comm):
        return comm.reduce(comm.rank + 1)

    out = run_spmd(fn, ws)
    assert out[0] == ws * (ws + 1) // 2
    assert all(r is None for r in out[1:])


@pytest.mark.parametrize("ws", SIZES)
def test_allreduce_scalar_sum(ws):
    def fn(comm):
        return comm.allreduce(comm.rank + 1)

    assert run_spmd(fn, ws) == [ws * (ws + 1) // 2] * ws


@pytest.mark.parametrize("ws", SIZES)
def test_allreduce_array_matches_numpy(ws):
    rng = np.random.default_rng(7)
    data = rng.normal(size=(ws, 257))
    expected = data.sum(axis=0)

    def fn(comm):
        return comm.allreduce(data[comm.rank].copy())

    for out in run_spmd(fn, ws):
        np.testing.assert_allclose(out, expected, rtol=1e-12)


@pytest.mark.parametrize("ws", [2, 3, 4])
@pytest.mark.parametrize("view", [
    lambda x: x.T,                  # F-contiguous
    lambda x: x[:, ::2],            # strided
    lambda x: x.T[::2],             # both
], ids=["transposed", "strided", "transposed-strided"])
def test_allreduce_of_a_non_contiguous_array_reduces_it(ws, view):
    """The ring must reduce the values of the view it was given, not a
    temporary ``reshape(-1)`` made of a non-C-ordered working copy."""
    data = np.random.default_rng(11).normal(size=(ws, 4, 6))
    expected = view(data.sum(axis=0))

    def fn(comm):
        x = view(data[comm.rank])
        assert not x.flags.c_contiguous and x.size >= comm.size
        return comm.allreduce(x), comm.allreduce(np.ascontiguousarray(x))

    for out, contiguous in run_spmd(fn, ws):
        assert out.shape == expected.shape
        np.testing.assert_allclose(out, expected, rtol=1e-12)
        assert out.tobytes() == contiguous.tobytes()


def test_ring_allreduce_inplace_rejects_a_non_contiguous_buffer():
    def fn(comm):
        with pytest.raises(ValueError, match="C-contiguous"):
            ring_allreduce_inplace(comm, np.ones((3, 4)).T, tag=0)
        return True

    assert all(run_spmd(fn, 2))


@pytest.mark.parametrize("ws", SIZES)
def test_allreduce_sums_one_buffer_per_rank(ws):
    def fn(comm):
        return comm.allreduce(np.full(16, comm.rank + 1.0))

    for out in run_spmd(fn, ws):
        np.testing.assert_array_equal(out, np.full(16, ws * (ws + 1) / 2))


@pytest.mark.parametrize("ws", [2, 4])
def test_bcast_reduce_allgather_of_buffers(ws):
    def fn(comm):
        buf = comm.bcast(np.arange(8.0) if comm.rank == 0 else None)
        recv = comm.reduce(buf)
        gathered = np.concatenate(comm.allgather(np.full(8, float(comm.rank))))
        return (buf, recv, gathered)

    out = run_spmd(fn, ws)
    for rank, (buf, recv, gathered) in enumerate(out):
        np.testing.assert_array_equal(buf, np.arange(8.0))
        if rank == 0:
            np.testing.assert_array_equal(recv, np.arange(8.0) * ws)
        expected = np.concatenate([np.full(8, float(r)) for r in range(ws)])
        np.testing.assert_array_equal(gathered, expected)


@pytest.mark.parametrize("ws", [1, 2, 4, 8])
def test_rabenseifner_matches_sum(ws):
    rng = np.random.default_rng(3)
    data = rng.normal(size=(ws, 64))
    expected = data.sum(axis=0)

    def fn(comm):
        return rabenseifner_allreduce(comm, data[comm.rank].copy(),
                                      comm._next_coll_tag())

    for out in run_spmd(fn, ws):
        np.testing.assert_allclose(out, expected, rtol=1e-12)


def test_rabenseifner_rejects_non_power_of_two():
    from repro.mpi import SpmdFailure

    def fn(comm):
        rabenseifner_allreduce(comm, np.ones(64), comm._next_coll_tag())

    with pytest.raises(SpmdFailure):
        run_spmd(fn, 3)


def test_ring_allreduce_small_array_falls_back():
    # Arrays smaller than the world size use recursive doubling instead.
    def fn(comm):
        return comm.allreduce(np.ones(2))

    for out in run_spmd(fn, 5):
        np.testing.assert_array_equal(out, np.full(2, 5.0))


def test_mixed_collective_sequence_stays_aligned():
    """Back-to-back different collectives must not cross-match messages."""
    def fn(comm):
        a = comm.allreduce(np.ones(64))
        b = comm.bcast(comm.rank + 1 if comm.rank == 0 else None)
        comm.barrier()
        c = comm.allgather(comm.rank)
        d = comm.allreduce(float(comm.rank))
        return (a.sum(), b, c, d)

    ws = 4
    out = run_spmd(fn, ws)
    for a_sum, b, c, d in out:
        assert a_sum == 64.0 * ws
        assert b == 1
        assert c == list(range(ws))
        assert d == sum(range(ws))
