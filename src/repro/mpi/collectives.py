"""Collective algorithms implemented over point-to-point messaging.

These are the algorithms actually used by Horovod and MPI libraries on the
paper's systems:

* **ring allreduce** — bandwidth-optimal; Horovod's default for large
  gradient tensors (reduce-scatter ring followed by allgather ring),
* **recursive doubling** — latency-optimal allreduce for small payloads and
  arbitrary reducible Python objects,
* **binomial tree** broadcast / reduce, rooted at rank 0,
* **ring allgather**,
* **dissemination barrier**.

All functions take a :class:`~repro.mpi.comm.Communicator` and a
pre-allocated internal tag; they are invoked through the communicator's
high-level methods, which handle algorithm selection.
"""

from __future__ import annotations

import copy
import math
from functools import lru_cache
from typing import Any

import numpy as np

from repro.mpi.comm import Communicator


def dissemination_barrier(comm: Communicator, tag: int) -> None:
    """Dissemination barrier: ceil(log2(p)) rounds of pairwise signalling."""
    p = comm.size
    if p == 1:
        return
    rounds = math.ceil(math.log2(p))
    for k in range(rounds):
        dist = 1 << k
        dest = (comm.rank + dist) % p
        src = (comm.rank - dist) % p
        comm._send_raw(dest, None, tag + k)
        comm._recv_raw(source=src, tag=tag + k)


def binomial_bcast(comm: Communicator, obj: Any, tag: int) -> Any:
    """Binomial-tree broadcast from rank 0."""
    p = comm.size
    if p == 1:
        return obj
    # A non-root receives from its parent at its lowest set bit, then
    # forwards to children at all smaller bits; the root forwards at every
    # bit.
    rank = comm.rank
    if rank == 0:
        value = obj
        mask = 1
        while mask < p:
            mask <<= 1
    else:
        mask = 1
        while not (rank & mask):
            mask <<= 1
        value = comm._recv_raw(source=rank - mask, tag=tag).payload
    m = mask >> 1
    while m > 0:
        child = rank + m
        if child < p:
            comm._send_raw(child, value, tag)
        m >>= 1
    return value


def binomial_reduce(comm: Communicator, obj: Any, tag: int) -> Any:
    """Binomial-tree sum to rank 0 (returns the sum at rank 0, None
    elsewhere)."""
    p = comm.size
    rank = comm.rank
    acc = obj
    mask = 1
    while mask < p:
        if rank & mask:
            comm._send_raw(rank & ~mask, acc, tag)
            break
        partner = rank | mask
        if partner < p:
            acc = acc + comm._recv_raw(source=partner, tag=tag).payload
        mask <<= 1
    return acc if rank == 0 else None


def recursive_doubling_allreduce(comm: Communicator, obj: Any, tag: int) -> Any:
    """Latency-optimal sum allreduce for any object that adds.

    Handles non-power-of-two sizes with the standard fold-in/fold-out trick:
    excess ranks first send their contribution to a partner, sit out the
    doubling rounds, and receive the final result afterwards.
    """
    p = comm.size
    if p == 1:
        return obj
    pof2 = 1 << (p.bit_length() - 1)
    rem = p - pof2
    acc = obj
    # Fold-in: ranks [0, 2*rem) pair up; odd ones contribute and retire.
    if comm.rank < 2 * rem:
        if comm.rank % 2 == 1:
            comm._send_raw(comm.rank - 1, acc, tag)
            new_rank = -1
        else:
            acc = acc + comm._recv_raw(source=comm.rank + 1, tag=tag).payload
            new_rank = comm.rank // 2
    else:
        new_rank = comm.rank - rem
    # Doubling rounds among pof2 virtual ranks.
    if new_rank >= 0:
        mask = 1
        while mask < pof2:
            partner_v = new_rank ^ mask
            partner = partner_v * 2 if partner_v < rem else partner_v + rem
            comm._send_raw(partner, acc, tag + 1 + mask)
            acc = acc + comm._recv_raw(source=partner,
                                       tag=tag + 1 + mask).payload
            mask <<= 1
    # Fold-out: retired odd ranks get the result back.  The copy is made
    # before the send: once sent, the partner may already hold it while
    # this rank returns ``acc`` to a caller that writes in place.
    if comm.rank < 2 * rem:
        if comm.rank % 2 == 0:
            comm._send_raw(comm.rank + 1, copy.copy(acc), tag + 1 + pof2)
        else:
            acc = comm._recv_raw(source=comm.rank - 1, tag=tag + 1 + pof2).payload
    return acc


def ring_allgather(comm: Communicator, obj: Any, tag: int) -> list:
    """Ring allgather: p-1 steps, each forwarding the next rank's block."""
    p = comm.size
    out: list[Any] = [None] * p
    out[comm.rank] = obj
    if p == 1:
        return out
    right = (comm.rank + 1) % p
    left = (comm.rank - 1) % p
    carry_idx = comm.rank
    for _ in range(p - 1):
        comm._send_raw(right, (carry_idx, out[carry_idx]), tag)
        idx, value = comm._recv_raw(source=left, tag=tag).payload
        out[idx] = value
        carry_idx = idx
    return out


@lru_cache(maxsize=256)
def ring_chunks(n: int, p: int) -> tuple[tuple[int, int], ...]:
    """Near-equal split of ``n`` elements over ``p`` ranks as (lo, hi) pairs.

    The bounds are those of NumPy's ``linspace(0, n, p + 1)`` cast to
    int64 — the same float64 products, truncated (``i * n // p`` differs,
    e.g. at n=30, p=22) — worked out without NumPy so that a rank reaches
    its first send without a call that hands the interpreter lock to its
    peer.
    """
    step = n / p
    bounds = [int(i * step) for i in range(p)] + [n]
    return tuple(zip(bounds, bounds[1:]))


def _reduce_scatter_ring(comm: Communicator, flat: np.ndarray,
                         chunks: tuple[tuple[int, int], ...], tag: int):
    """p-1 ring steps that only read ``flat``: step 0 sends a view of it,
    every later one the fresh sum ``flat[chunk] + incoming`` it just made.
    Returns rank r's reduced chunk ``(r+1) % p`` (at p = 1, ``flat``)."""
    p, rank = comm.size, comm.rank
    if flat.shape[0] < p:
        raise ValueError(f"{flat.shape[0]} elements too small for {p}-rank ring")
    right = (rank + 1) % p
    left = (rank - 1) % p
    lo, hi = chunks[rank]
    carry = flat[lo:hi]
    for step in range(p - 1):
        comm._send_raw(right, carry, tag + step)
        incoming = comm._recv_raw(left, tag + step).payload
        lo, hi = chunks[(rank - step - 1) % p]
        carry = flat[lo:hi] + incoming
    return carry


def ring_allreduce(comm: Communicator, src: np.ndarray, tag: int) -> np.ndarray:
    """Bandwidth-optimal ring allreduce (SUM): a new C-ordered array of
    ``src``'s shape and dtype.  Reduce-scatter (p-1 steps, after which
    rank r holds reduced chunk ``(r+1) % p``), then allgather (p-1 steps
    forwarding the chunk received; each result chunk is written once).
    This is Horovod's core algorithm.

    ``src`` is only read, and the first message is a view of it: that
    message is used by the right-hand neighbour before the chunk that
    neighbour reduces can come round as the sender's last allgather
    message, so no rank returns while a message still reads its ``src``.
    Allgather messages are fresh sums no result aliases, so a caller may
    write to its result, or to ``src``, as soon as the call returns.
    """
    flat = src.reshape(-1)
    p = comm.size
    chunks = ring_chunks(flat.shape[0], p)
    carry = _reduce_scatter_ring(comm, flat, chunks, tag)
    rank = comm.rank
    right = (rank + 1) % p
    left = (rank - 1) % p
    out = np.empty_like(flat)
    lo, hi = chunks[right]
    out[lo:hi] = carry
    base = tag + p
    for step in range(p - 1):
        comm._send_raw(right, carry, base + step)
        carry = comm._recv_raw(left, base + step).payload
        lo, hi = chunks[(rank - step) % p]
        out[lo:hi] = carry
    return out.reshape(src.shape)


def ring_reduce_scatter(
    comm: Communicator, array: np.ndarray, tag: int
) -> tuple[np.ndarray, tuple[int, int]]:
    """Ring reduce-scatter (SUM): each rank ends with one fully reduced
    chunk of the flattened buffer.  Returns (chunk, (lo, hi)) where the
    bounds index the flattened array — the building block of ZeRO stage 2's
    gradient sharding.  Only reads ``array`` (at p = 1 the chunk views it).
    """
    flat = np.asarray(array, dtype=np.float64).reshape(-1)
    chunks = ring_chunks(flat.shape[0], comm.size)
    chunk = _reduce_scatter_ring(comm, flat, chunks, tag)
    return chunk, chunks[(comm.rank + 1) % comm.size]


def rabenseifner_allreduce(comm: Communicator, array: np.ndarray, tag: int) -> np.ndarray:
    """Reduce-scatter (recursive halving) + allgather (recursive doubling).

    Power-of-two rank counts only; used as an alternative algorithm in the
    GCE comparison bench.  Returns a new array.
    """
    p = comm.size
    flat = array.reshape(-1).copy()
    if p == 1:
        return flat.reshape(array.shape)
    if p & (p - 1):
        raise ValueError("rabenseifner_allreduce requires power-of-two ranks")
    n = flat.shape[0]
    if n < p:
        raise ValueError("array too small")

    # Recursive halving reduce-scatter.  Track this rank's owned interval.
    lo, hi = 0, n
    dist = p // 2
    t = tag
    while dist >= 1:
        group = (comm.rank // dist) % 2  # 0 = lower half owner, 1 = upper
        partner = comm.rank + dist if group == 0 else comm.rank - dist
        mid = (lo + hi) // 2
        if group == 0:
            # Keep lower half, send upper half.
            comm._send_raw(partner, flat[mid:hi].copy(), t)
            incoming = comm._recv_raw(source=partner, tag=t).payload
            flat[lo:mid] += incoming
            hi = mid
        else:
            comm._send_raw(partner, flat[lo:mid].copy(), t)
            incoming = comm._recv_raw(source=partner, tag=t).payload
            flat[mid:hi] += incoming
            lo = mid
        dist //= 2
        t += 1

    # Recursive doubling allgather (reverse the halving).
    dist = 1
    while dist < p:
        group = (comm.rank // dist) % 2
        partner = comm.rank + dist if group == 0 else comm.rank - dist
        span = hi - lo
        comm._send_raw(partner, (lo, flat[lo:hi].copy()), t)
        rlo, block = comm._recv_raw(source=partner, tag=t).payload
        flat[rlo:rlo + block.shape[0]] = block
        lo = min(lo, rlo)
        hi = lo + span + block.shape[0]
        dist *= 2
        t += 1
    return flat.reshape(array.shape)
