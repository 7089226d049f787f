"""Collective algorithms implemented over point-to-point messaging.

These are the algorithms actually used by Horovod and MPI libraries on the
paper's systems:

* **ring allreduce** — bandwidth-optimal; Horovod's default for large
  gradient tensors (reduce-scatter ring followed by allgather ring),
* **recursive doubling** — latency-optimal allreduce for small payloads and
  arbitrary reducible Python objects,
* **binomial tree** broadcast / reduce,
* **ring allgather**,
* **dissemination barrier**.

All functions take a :class:`~repro.mpi.comm.Communicator` and a
pre-allocated internal tag; they are invoked through the communicator's
high-level methods, which handle algorithm selection.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Any

import numpy as np

from repro.mpi.comm import Communicator, ReduceOp


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


def binomial_bcast(comm: Communicator, obj: Any, root: int, tag: int) -> Any:
    """Binomial-tree broadcast rooted at ``root``."""
    p = comm.size
    if p == 1:
        return obj
    # Work in a rotated rank space where the root is virtual rank 0.  A
    # non-root receives from its parent at its lowest set bit, then forwards
    # to children at all smaller bits; the root forwards at every bit.
    vrank = (comm.rank - root) % p
    if vrank == 0:
        value = obj
        mask = 1
        while mask < p:
            mask <<= 1
    else:
        mask = 1
        while not (vrank & mask):
            mask <<= 1
        parent = ((vrank - mask) + root) % p
        value = comm._recv_raw(source=parent, tag=tag).payload
    m = mask >> 1
    while m > 0:
        child = vrank + m
        if child < p:
            comm._send_raw((child + root) % p, value, tag)
        m >>= 1
    return value


def binomial_reduce(comm: Communicator, obj: Any, op: str, root: int, tag: int) -> Any:
    """Binomial-tree reduction to ``root`` (returns result at root, None elsewhere)."""
    p = comm.size
    fn = ReduceOp.func(op)
    vrank = (comm.rank - root) % p
    acc = obj
    mask = 1
    while mask < p:
        if vrank & mask:
            parent = ((vrank & ~mask) + root) % p
            comm._send_raw(parent, acc, tag)
            break
        partner = vrank | mask
        if partner < p:
            incoming = comm._recv_raw(source=(partner + root) % p, tag=tag).payload
            acc = fn(acc, incoming)
        mask <<= 1
    return acc if comm.rank == root else None


def recursive_doubling_allreduce(comm: Communicator, obj: Any, op: str, tag: int) -> Any:
    """Latency-optimal allreduce for any reducible object.

    Handles non-power-of-two sizes with the standard fold-in/fold-out trick:
    excess ranks first send their contribution to a partner, sit out the
    doubling rounds, and receive the final result afterwards.
    """
    p = comm.size
    if p == 1:
        return obj
    fn = ReduceOp.func(op)
    pof2 = 1 << (p.bit_length() - 1)
    rem = p - pof2
    acc = obj
    # Fold-in: ranks [0, 2*rem) pair up; odd ones contribute and retire.
    if comm.rank < 2 * rem:
        if comm.rank % 2 == 1:
            comm._send_raw(comm.rank - 1, acc, tag)
            new_rank = -1
        else:
            incoming = comm._recv_raw(source=comm.rank + 1, tag=tag).payload
            acc = fn(acc, incoming)
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
            incoming = comm._recv_raw(source=partner, tag=tag + 1 + mask).payload
            acc = fn(acc, incoming)
            mask <<= 1
    # Fold-out: retired odd ranks get the result back.
    if comm.rank < 2 * rem:
        if comm.rank % 2 == 0:
            comm._send_raw(comm.rank + 1, acc, tag + 1 + pof2)
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
                         chunks: tuple[tuple[int, int], ...], tag: int) -> None:
    """p-1 ring steps after which rank r holds reduced chunk ``(r+1) % p``."""
    p, rank = comm.size, comm.rank
    right = (rank + 1) % p
    left = (rank - 1) % p
    for step in range(p - 1):
        s0, s1 = chunks[(rank - step) % p]
        comm._send_raw(right, flat[s0:s1].copy(), tag + step)
        incoming = comm._recv_raw(left, tag + step).payload
        r0, r1 = chunks[(rank - step - 1) % p]
        flat[r0:r1] += incoming


def ring_allreduce_inplace(comm: Communicator, array: np.ndarray, tag: int) -> None:
    """Bandwidth-optimal ring allreduce (SUM) on a NumPy array, in place.

    Phase 1 (reduce-scatter): p-1 steps; after them, each rank holds the
    fully reduced chunk ``(rank+1) % p``.  Phase 2 (allgather): p-1 steps
    circulating reduced chunks.  This is Horovod's core algorithm.
    """
    if not array.flags.c_contiguous:
        # reshape(-1) would copy, and the ring would reduce the copy.
        raise ValueError("ring_allreduce_inplace needs a C-contiguous array")
    p = comm.size
    if p == 1:
        return
    flat = array.reshape(-1)
    n = flat.shape[0]
    if n < p:
        raise ValueError(f"array of {n} elements too small for {p}-rank ring")
    chunks = ring_chunks(n, p)
    _reduce_scatter_ring(comm, flat, chunks, tag)

    # Allgather ring.
    rank = comm.rank
    right = (rank + 1) % p
    left = (rank - 1) % p
    base = tag + p
    for step in range(p - 1):
        s0, s1 = chunks[(rank - step + 1) % p]
        comm._send_raw(right, flat[s0:s1].copy(), base + step)
        incoming = comm._recv_raw(left, base + step).payload
        r0, r1 = chunks[(rank - step) % p]
        flat[r0:r1] = incoming


def ring_reduce_scatter(
    comm: Communicator, array: np.ndarray, tag: int
) -> tuple[np.ndarray, tuple[int, int]]:
    """Ring reduce-scatter (SUM): each rank ends with one fully reduced
    chunk of the flattened buffer.  Returns (chunk, (lo, hi)) where the
    bounds index the flattened array — the building block of ZeRO stage 2's
    gradient sharding.
    """
    p = comm.size
    flat = np.asarray(array, dtype=np.float64).reshape(-1).copy()
    n = flat.shape[0]
    if p == 1:
        return flat, (0, n)
    if n < p:
        raise ValueError(f"array of {n} elements too small for {p}-rank ring")
    chunks = ring_chunks(n, p)
    _reduce_scatter_ring(comm, flat, chunks, tag)
    lo, hi = chunks[(comm.rank + 1) % p]
    return flat[lo:hi].copy(), (lo, hi)


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
