"""The single-consumer inbox (DESIGN §15): matching semantics, abort
wake-up, wildcard/collective separation, and the ring collectives pinned
to the ``np.linspace`` formulation they were hoisted from."""

import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.mpi import ANY_SOURCE, ANY_TAG, SpmdDeadlock, SpmdFailure, run_spmd
from repro.mpi.collectives import ring_chunks
from repro.mpi.transport import (
    INTERNAL_TAG_BASE,
    Message,
    Transport,
    TransportAborted,
)
from repro.resilience import FaultKind, FaultPlan
from repro.resilience.integrity import (
    CorruptionInjector,
    IntegrityConfig,
    IntegrityContext,
    corruption_totals,
)
from repro.resilience.retry import _stable_uniform


def _msg(source, tag, payload, context=0):
    return Message(source, tag, context, payload, 0.0, 1)


def _fill(transport, dest, *specs):
    for source, tag, payload in specs:
        transport.put(source, dest, _msg(source, tag, payload))


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------

class TestMatching:
    def test_non_overtaking_per_source_and_tag(self):
        t = Transport(3)
        _fill(t, 0, (1, 5, "a"), (2, 5, "x"), (1, 5, "b"), (1, 6, "other"),
              (1, 5, "c"))
        assert [t.get(0, 1, 5).payload for _ in range(3)] == ["a", "b", "c"]
        assert t.get(0, 2, 5).payload == "x"
        assert t.get(0, 1, 6).payload == "other"

    def test_any_source_takes_earliest_arrival(self):
        t = Transport(3)
        _fill(t, 0, (2, 9, "first"), (1, 9, "second"))
        assert t.get(0, ANY_SOURCE, 9).payload == "first"
        # A parked message arrived before anything still in the queue.
        _fill(t, 0, (2, 1, "parked"), (2, 5, "key"))
        assert t.get(0, 2, 5).payload == "key"      # parks "parked"
        _fill(t, 0, (1, 1, "queued"))
        assert t.get(0, ANY_SOURCE, 1).payload == "parked"
        assert t.get(0, ANY_SOURCE, ANY_TAG).payload == "second"

    def test_out_of_order_tags_parked_then_delivered_in_arrival_order(self):
        t = Transport(2)
        _fill(t, 0, (1, 1, "a"), (1, 2, "b"), (1, 1, "c"), (1, 3, "d"))
        assert t.get(0, 1, 3).payload == "d"
        assert [t.get(0, 1, ANY_TAG).payload for _ in range(3)] \
            == ["a", "b", "c"]

    def test_context_isolates_messages(self):
        t = Transport(2)
        t.put(1, 0, _msg(1, 3, "child", context=4096))
        t.put(1, 0, _msg(1, 3, "parent"))
        assert t.get(0, 1, 3).payload == "parent"
        assert t.get(0, 1, 3, context=4096).payload == "child"

    def test_split_child_and_parent_do_not_mix(self):
        def fn(comm):
            child = comm.Split(comm.rank % 2)
            if comm.rank == 0:
                comm.send("parent", dest=2, tag=3)
                child.send("child", dest=1, tag=3)
            elif comm.rank == 2:
                # Child first: the parent's message, which arrived earlier
                # with the same source and tag, must stay parked for it.
                return child.recv(source=0, tag=3), comm.recv(source=0, tag=3)

        assert run_spmd(fn, 4)[2] == ("child", "parent")

    def test_many_senders_one_reader_loses_and_reorders_nothing(self):
        """More sender threads than cores, a short switch interval: every
        message arrives once and each sender's stream stays in order,
        whether taken by wildcard or by a (source, tag) that forces
        parking."""
        senders, per_sender = 6, 300
        t = Transport(senders + 1)

        def send(source):
            for i in range(per_sender):
                t.put(source, 0, _msg(source, i % 2, i))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=send, args=(s,), daemon=True)
                       for s in range(1, senders + 1)]
            for th in threads:
                th.start()
            got = {s: [] for s in range(1, senders + 1)}
            # Odd tags of sender 1 first, so everything else gets parked.
            for _ in range(per_sender // 2):
                got[1].append(t.get(0, 1, 1).payload)
            for _ in range(senders * per_sender - per_sender // 2):
                msg = t.get(0, ANY_SOURCE, ANY_TAG)
                got[msg.source].append(msg.payload)
            for th in threads:
                th.join(timeout=10)
                assert not th.is_alive()
        finally:
            sys.setswitchinterval(old)
        assert not t._parked[0] and t._inboxes[0].empty()
        odd = list(range(1, per_sender, 2))
        assert got[1] == odd + list(range(0, per_sender, 2))
        for s in range(2, senders + 1):
            assert got[s] == list(range(per_sender))


# ---------------------------------------------------------------------------
# wildcard receives never see collective-internal traffic
# ---------------------------------------------------------------------------

class TestWildcardsMatchUserTagsOnly:
    def test_transport_any_tag_skips_internal_tags(self):
        t = Transport(2)
        _fill(t, 0, (1, INTERNAL_TAG_BASE + 4096, "bcast"), (1, 7, "p2p"))
        assert t.get(0, 1, ANY_TAG).payload == "p2p"
        assert t.get(0, 1, INTERNAL_TAG_BASE + 4096).payload == "bcast"

    @pytest.mark.parametrize("world_size", [2, 4])
    @pytest.mark.parametrize("recv_first", [True, False])
    @pytest.mark.parametrize("api", ["recv", "recv_any_source"])
    def test_wildcard_recv_does_not_steal_a_bcast(self, world_size,
                                                  recv_first, api):
        """Hung once: rank 1's wildcard receive took the bcast's message
        and the bcast then waited for ever."""
        def wildcard(comm):
            if api == "recv":
                return comm.recv(source=0, tag=ANY_TAG)
            return comm.recv(ANY_SOURCE, ANY_TAG)

        def fn(comm):
            if comm.rank == 0:
                header = comm.bcast({"h": 1})
                comm.send("p2p", dest=1, tag=7)
                return header, None
            if comm.rank != 1:
                return comm.bcast(None), None
            if recv_first:
                got = wildcard(comm)
                return comm.bcast(None), got
            header = comm.bcast(None)
            return header, wildcard(comm)

        out = run_spmd(fn, world_size)
        assert [h for h, _ in out] == [{"h": 1}] * world_size
        assert out[1][1] == "p2p"


# ---------------------------------------------------------------------------
# abort: the sentinel wakes a blocked receiver; queued messages survive
# ---------------------------------------------------------------------------

class TestAbort:
    def test_queued_message_still_delivered_after_abort(self):
        t = Transport(2)
        _fill(t, 0, (1, 1, "before"))
        t.abort()
        assert t.aborted
        _fill(t, 0, (1, 2, "after"))
        assert t.get(0, 1, 2).payload == "after"
        assert t.get(0, 1, 1).payload == "before"
        with pytest.raises(TransportAborted):
            t.get(0, 1, 1)
        with pytest.raises(TransportAborted):
            t.get(0)

    def test_blocked_receiver_wakes_on_abort(self):
        t = Transport(2)
        outcome = []

        def receiver():
            try:
                t.get(0, 1, 1)
            except TransportAborted:
                outcome.append("aborted")

        th = threading.Thread(target=receiver, daemon=True)
        th.start()
        _fill(t, 0, (1, 2, "not the one"))
        t.abort()
        th.join(timeout=10)
        assert not th.is_alive()
        assert outcome == ["aborted"]

    def test_raising_rank_reported_while_peer_blocked_in_recv(self):
        def fn(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            return comm.recv(source=1, tag=1)

        with pytest.raises(SpmdFailure) as err:
            run_spmd(fn, 2)
        assert err.value.rank == 1
        assert isinstance(err.value.original, ValueError)

    @pytest.mark.parametrize("world_size", [2, 4])
    def test_raising_rank_reported_while_peers_inside_ring_allreduce(
            self, world_size):
        def fn(comm):
            if comm.rank == comm.size - 1:
                raise KeyError("gone")
            return comm.allreduce(np.ones(64))

        with pytest.raises(SpmdFailure) as err:
            run_spmd(fn, world_size)
        assert err.value.rank == world_size - 1
        assert isinstance(err.value.original, KeyError)


# ---------------------------------------------------------------------------
# deadlock: the wait registry ends a wedged world at once, naming each wait
# ---------------------------------------------------------------------------

def _deadlock_report(fn, world_size):
    with pytest.raises(SpmdDeadlock) as err:
        run_spmd(fn, world_size)
    assert isinstance(err.value, SpmdFailure) and err.value.rank == -1
    return str(err.value).splitlines()[1:]


class TestDeadlock:
    def test_mutual_recv(self):
        report = _deadlock_report(
            lambda comm: comm.recv(source=1 - comm.rank, tag=4), 2)
        assert report == [
            "rank 0 at sim t=0.0 s: waits in recv(source=1, tag=4, context=0)",
            "rank 1 at sim t=0.0 s: waits in recv(source=0, tag=4, context=0)"]

    def test_recv_from_a_rank_that_returned(self):
        def fn(comm):
            if comm.rank == 1:
                comm.send("not this tag", dest=0, tag=1)
                return "done"
            return comm.recv(source=1, tag=2)

        report = _deadlock_report(fn, 2)
        assert report[0].startswith("rank 0 at sim t=")
        assert report[0].endswith(
            ": waits in recv(source=1, tag=2, context=0)")
        assert report[1].startswith("rank 1 at sim t=")
        assert report[1].endswith(": returned")

    def test_collective_mismatch(self):
        """Each rank parks the other's message and blocks again."""
        def fn(comm):
            return comm.barrier() if comm.rank == 0 else comm.allreduce(3.0)

        report = _deadlock_report(fn, 2)
        assert len(report) == 2
        for rank, line in enumerate(report):
            wait = re.fullmatch(
                rf"rank {rank} at sim t=\S+ s: waits in "
                rf"recv\(source={1 - rank}, tag=(\d+), context=0\)", line)
            # Inside the first collective's tag block.
            assert (int(wait[1]) - INTERNAL_TAG_BASE) // 4096 == 1

    def test_single_rank_recv_from_itself(self):
        assert _deadlock_report(
            lambda comm: comm.recv(source=0, tag=0), 1) == [
            "rank 0 at sim t=0.0 s: waits in recv(source=0, tag=0, context=0)"]


def _traffic(comm, rounds):
    """Ring and recursive-doubling allreduce, bcast, allgather, barrier and
    point-to-point around the ring, wildcards included."""
    right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    seen = []
    for i in range(rounds):
        seen.append(float(comm.allreduce(np.full(2 * comm.size, i))[0]))
        seen.append(comm.allreduce(comm.rank))
        seen.append(comm.bcast(i if comm.rank == 0 else None))
        seen.append(sum(comm.allgather(comm.rank * i)))
        comm.barrier()
        comm.send(i, dest=right, tag=i % 3)
        seen.append(comm.recv(source=left, tag=i % 3))
        comm.send(-i, dest=left, tag=7)
        seen.append(comm.recv(ANY_SOURCE, ANY_TAG))
    return seen


def _no_false_deadlock(world_size, interval, rounds):
    old = sys.getswitchinterval()
    sys.setswitchinterval(interval)
    try:
        out = run_spmd(_traffic, world_size, args=(rounds,))
    finally:
        sys.setswitchinterval(old)
    for seen in out:
        assert seen[0::6] == [float(i * world_size) for i in range(rounds)]
        assert seen[4::6] == [i for i in range(rounds)]


@pytest.mark.parametrize("world_size,interval",
                         [(2, 1e-6), (3, 5e-3), (5, 1e-4), (8, 1e-5)])
def test_no_false_deadlock_under_preemption(world_size, interval):
    """A put that races a registering rank never makes a live world look
    wedged, however often the interpreter switches threads."""
    _no_false_deadlock(world_size, interval, rounds=6)


@pytest.mark.slow
@pytest.mark.parametrize("interval", [1e-6, 1e-5, 1e-4, 1e-3, 5e-3])
@pytest.mark.parametrize("world_size", range(2, 9))
def test_no_false_deadlock_under_preemption_sweep(world_size, interval):
    _no_false_deadlock(world_size, interval, rounds=25)


# ---------------------------------------------------------------------------
# ring chunk bounds and ring results, against the NumPy formulation
# ---------------------------------------------------------------------------

def _linspace_bounds(n, p):
    return np.linspace(0, n, p + 1).astype(np.int64).tolist()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 512).flatmap(
    lambda p: st.tuples(st.integers(p, 10**7), st.just(p))))
def test_ring_chunks_equal_linspace_bounds(n_p):
    n, p = n_p
    bounds = _linspace_bounds(n, p)
    assert list(ring_chunks(n, p)) == list(zip(bounds, bounds[1:]))


def test_ring_chunks_equal_linspace_bounds_small_exhaustive():
    for n in range(1, 130):
        for p in range(1, n + 1):
            bounds = _linspace_bounds(n, p)
            assert list(ring_chunks(n, p)) == list(zip(bounds, bounds[1:]))


def _ring_reference(flats):
    """What the ring leaves on every rank: chunk ``c`` starts as rank c's
    slice and each next rank around the ring adds its own to it."""
    p, n = len(flats), flats[0].size
    bounds = _linspace_bounds(n, p)
    out = np.empty_like(flats[0])
    for c in range(p):
        lo, hi = bounds[c], bounds[c + 1]
        acc = flats[c][lo:hi].copy()
        for k in range(1, p):
            local = flats[(c + k) % p][lo:hi].copy()
            local += acc
            acc = local
        out[lo:hi] = acc
    return out, bounds


def _ring_ops(comm, x):
    first = comm.allreduce(x)
    return comm.allreduce(x), comm.reduce_scatter(x), first


@pytest.mark.parametrize("world_size", [2, 3, 4, 5])
@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
@pytest.mark.parametrize("transposed", [False, True])
def test_ring_results_and_injection_log_equal_reference(world_size, dtype,
                                                        transposed):
    seed, message_p = 5, 0.2
    inputs = []
    for rank in range(world_size):
        x = (np.random.default_rng([seed, rank]).normal(size=(6, 7))
             * 1000).astype(dtype)
        inputs.append(x.T if transposed else x)
    injector = CorruptionInjector(
        FaultPlan.silent_corruption(seed, message_p=message_p))
    with telemetry.capture() as (_, registry):
        out = run_spmd(lambda comm: _ring_ops(comm, inputs[comm.rank]),
                       world_size,
                       integrity=IntegrityContext(
                           injector, config=IntegrityConfig()))
    injected, detected = corruption_totals(registry)

    # The allreduce and the reduce-scatter both keep the input's dtype.
    expect, bounds = _ring_reference(
        [np.ascontiguousarray(x).reshape(-1) for x in inputs])
    for rank, (reduced, (chunk, (lo, hi)), recv) in enumerate(out):
        for got in (reduced, recv):
            assert got.shape == inputs[0].shape and got.dtype == dtype
            assert got.tobytes() == expect.reshape(got.shape).tobytes()
        own = (rank + 1) % world_size
        assert (lo, hi) == (bounds[own], bounds[own + 1])
        assert chunk.dtype == dtype
        assert chunk.tobytes() == expect[lo:hi].tobytes()

    # Every ring message goes to the right-hand neighbour: 2(p-1) per
    # allreduce (twice) and p-1 for the reduce-scatter, all corruptible.
    # The lane's draws are its own counter through the stable hash.
    expected_log = []
    for src in range(world_size):
        key = f"msg:{src}>{(src + 1) % world_size}"
        expected_log += [
            (FaultKind.BITFLIP_MESSAGE.value, f"{key}#{n}")
            for n in range(5 * (world_size - 1))
            if _stable_uniform(seed, key, n) < message_p]
    assert expected_log, "pick a seed that injects in every case"
    assert sorted(injector.injected) == sorted(expected_log)
    assert injected == detected == len(expected_log)


@pytest.mark.parametrize("message_p", [0.05, 0.5, 0.95])
def test_prehashed_lanes_draw_the_stable_uniform_stream(message_p):
    """A lane hashes ``f"{seed}:{key}:"`` once and feeds each draw only
    its counter: that is ``_stable_uniform(seed, key, n)``, draw for draw,
    on interleaved lanes — the same stream, not a new RNG."""
    seed, lanes = 11, [(0, 1), (3, 2)]
    injector = CorruptionInjector(
        FaultPlan.silent_corruption(seed, message_p=message_p))
    with telemetry.capture():
        for n in range(2000):
            for src, dst in lanes:
                injector.maybe_corrupt_message(float(n), src, dst)
    expected = sorted(
        (FaultKind.BITFLIP_MESSAGE.value, f"msg:{src}>{dst}#{n}")
        for src, dst in lanes for n in range(2000)
        if _stable_uniform(seed, f"msg:{src}>{dst}", n) < message_p)
    assert sorted(injector.injected) == expected
