"""Collective algorithms: correctness at multiple world sizes, including
non-powers-of-two, verified against NumPy reference reductions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.mpi import run_spmd
from repro.mpi.collectives import (rabenseifner_allreduce, ring_allreduce,
                                   ring_chunks)
from repro.resilience import FaultPlan
from repro.resilience.integrity import (
    CorruptionInjector,
    IntegrityConfig,
    IntegrityContext,
    corruption_totals,
)

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


def test_ring_allreduce_reduces_a_non_contiguous_buffer():
    """The ring only reads its input, so it takes any layout; the sum
    comes back C-ordered in the input's shape."""
    data = np.random.default_rng(13).normal(size=(2, 3, 4))

    def fn(comm):
        x = data[comm.rank].T
        assert not x.flags.c_contiguous
        return ring_allreduce(comm, x, comm._next_coll_tag())

    for out in run_spmd(fn, 2, timeout=5):
        assert out.shape == (4, 3) and out.flags.c_contiguous
        assert out.tobytes() == (data[0].T + data[1].T).tobytes()


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


@pytest.mark.parametrize("ws", [3, 5, 6, 7])
def test_recursive_doubling_gives_every_rank_its_own_result(ws):
    """The fold-out at a non-power-of-two world hands each retired rank a
    copy, so no two ranks' results share memory."""
    out = run_spmd(lambda comm: comm.allreduce(np.full(2, 3.0)), ws,
                   timeout=5)
    for r in range(ws):
        np.testing.assert_array_equal(out[r], np.full(2, 3.0 * ws))
        for other in out[r + 1:]:
            assert not np.shares_memory(out[r], other)


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


# ---------------------------------------------------------------------------
# The out-of-place ring: reads its input, writes a result nothing aliases
# ---------------------------------------------------------------------------

def _inplace_ring_reference(comm, array, tag):
    """The in-place ring the out-of-place one replaced, verbatim: a
    ``.copy()`` of every chunk it sends, ``+=`` into ``array``."""
    p = comm.size
    if p == 1:
        return
    flat = array.reshape(-1)
    chunks = ring_chunks(flat.shape[0], p)
    rank = comm.rank
    right = (rank + 1) % p
    left = (rank - 1) % p
    for step in range(p - 1):
        s0, s1 = chunks[(rank - step) % p]
        comm._send_raw(right, flat[s0:s1].copy(), tag + step)
        incoming = comm._recv_raw(left, tag + step).payload
        r0, r1 = chunks[(rank - step - 1) % p]
        flat[r0:r1] += incoming
    base = tag + p
    for step in range(p - 1):
        s0, s1 = chunks[(rank - step + 1) % p]
        comm._send_raw(right, flat[s0:s1].copy(), base + step)
        incoming = comm._recv_raw(left, base + step).payload
        r0, r1 = chunks[(rank - step) % p]
        flat[r0:r1] = incoming


_LAYOUTS = {
    "C": lambda a: np.ascontiguousarray(a),
    "F": lambda a: np.asfortranarray(a),
    "strided": lambda a: np.repeat(a, 2, axis=1)[:, ::2],
}


def _ring_input(p, rows, cols, dtype, layout, rank):
    values = np.random.default_rng([rows, cols, rank]).integers(
        -8, 9, size=(rows, cols))
    if np.dtype(dtype).kind == "c":
        values = values + 1j * values[::-1]
    return _LAYOUTS[layout](values.astype(dtype))


def _scribble(arr):
    arr[...] = np.iinfo(arr.dtype).min if arr.dtype.kind == "i" else np.nan


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(lambda p: st.tuples(
           st.just(p),
           st.tuples(st.integers(1, 13), st.integers(1, 13)).filter(
               lambda rc: rc[0] * rc[1] >= p
               and (p == 1 or rc[0] * rc[1] % p)))),
       st.sampled_from([np.float16, np.float32, np.float64, np.int64,
                        np.complex128]),
       st.sampled_from(sorted(_LAYOUTS)),
       st.data())
def test_ring_allreduce_reads_its_input_and_owns_its_result(
        p_shape, dtype, layout, data):
    p, (rows, cols) = p_shape
    writer = data.draw(st.integers(0, p - 1), label="writer")
    inputs = [_ring_input(p, rows, cols, dtype, layout, r) for r in range(p)]
    before = [x.tobytes() for x in inputs]

    def fn(comm):
        x = inputs[comm.rank]
        wide = np.array(x, order="C", dtype=np.result_type(
            x.dtype, np.float64) if x.dtype.kind in "fc" else x.dtype)
        _inplace_ring_reference(comm, wide, comm._next_coll_tag())
        raw = np.array(x, order="C")
        _inplace_ring_reference(comm, raw, comm._next_coll_tag())
        public = comm.allreduce(x)
        direct = ring_allreduce(comm, x, comm._next_coll_tag())
        seen = (public.tobytes(), direct.tobytes())
        if comm.rank == writer:     # straight after the calls return
            _scribble(public)
            _scribble(direct)
        return wide, raw, public, direct, seen

    out = run_spmd(fn, p, timeout=5)
    for x, b in zip(inputs, before):
        assert x.tobytes() == b
    results = [a for _, _, public, direct, _ in out for a in (public, direct)]
    for i, got in enumerate(results):
        assert not any(np.shares_memory(got, x) for x in inputs)
        assert not any(np.shares_memory(got, other)
                       for other in results[i + 1:])
    for rank, (wide, raw, public, direct, seen) in enumerate(out):
        assert public.dtype == wide.dtype and direct.dtype == raw.dtype
        assert public.shape == direct.shape == (rows, cols)
        assert public.flags.c_contiguous and direct.flags.c_contiguous
        assert seen == (wide.tobytes(), raw.tobytes())
        if rank != writer:
            assert (public.tobytes(), direct.tobytes()) == seen


def _armed_ring(comm, inputs):
    x = inputs[comm.rank]
    return comm.allreduce(x), comm.reduce_scatter(x)


@pytest.mark.parametrize("ws", [2, 3, 4, 5])
def test_armed_ring_detects_every_injection_and_leaves_inputs_alone(ws):
    """With an envelope's retained clean copy a view of the sender's
    buffer, a caught corruption must repair to the sender's own bytes."""
    inputs = [np.random.default_rng([17, r]).normal(size=(9, 11)) * 1e3
              for r in range(ws)]
    before = [x.tobytes() for x in inputs]
    clean = run_spmd(_armed_ring, ws, args=(inputs,), timeout=5)
    injector = CorruptionInjector(
        FaultPlan.silent_corruption(3, message_p=0.5))
    with telemetry.capture() as (_, registry):
        armed = run_spmd(_armed_ring, ws, args=(inputs,), timeout=5,
                         integrity=IntegrityContext(
                             injector, config=IntegrityConfig()))
    injected, detected = corruption_totals(registry)
    assert injector.injected and injected == detected == len(
        injector.injected)
    for x, b in zip(inputs, before):
        assert x.tobytes() == b
    for (a, (ca, bounds_a)), (c, (cc, bounds_c)) in zip(armed, clean):
        assert a.tobytes() == c.tobytes()
        assert ca.tobytes() == cc.tobytes() and bounds_a == bounds_c


def test_allreduce_of_a_0d_array_keeps_its_shape():
    # np.ascontiguousarray would hand the ring a 1-element 1-d array.
    out, = run_spmd(lambda comm: comm.allreduce(np.array(2.5)), 1, timeout=5)
    assert out.shape == () and out == 2.5
