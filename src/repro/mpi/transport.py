"""Thread-safe message transport, per-rank state and the wait registry.

The transport is one inbox per rank that only its owner reads: any thread
``put``s into a rank's queue, but ``get`` for a rank runs on that rank's
own thread alone, so the list of messages taken off the queue and not yet
matched needs no lock.  Messages are addressed by (destination, source,
tag, context) — ``context`` isolates communicators produced by ``Split``
from each other, mirroring MPI context ids.

Message payloads carry the sender's simulated timestamp so receivers can
advance their logical clocks (see :mod:`repro.mpi.comm`).
"""

from __future__ import annotations

import pickle
import queue
import threading
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

ANY_SOURCE = -1
ANY_TAG = -1

#: Tag space partitioning: user tags stay below this, collective-internal
#: traffic uses tags above it.  ``ANY_TAG`` matches user tags only — MPI
#: keeps point-to-point and collective traffic in separate contexts.
INTERNAL_TAG_BASE = 1 << 20


class TransportAborted(RuntimeError):
    """Raised in blocked receivers when a rank failed or all are stuck."""


def wire_size(obj: Any) -> tuple[int, Optional[bytes]]:
    """Wire size estimate used by the simulated clock and traffic stats,
    with the pickling an object payload was measured on (``None`` for
    buffers, which go as they are) so the envelope CRC can reuse it."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes), None
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj), None
    try:
        pickled = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return 64, None  # unpicklable sentinel — charge a small envelope
    return len(pickled), pickled


def payload_nbytes(obj: Any) -> int:
    """The size half of :func:`wire_size`."""
    return wire_size(obj)[0]


@dataclass
class Message:
    source: int
    tag: int
    context: int
    payload: Any
    send_time: float
    nbytes: int


def _matches(msg: Message, source: int, tag: int, context: int) -> bool:
    return (msg.context == context
            and (source == ANY_SOURCE or msg.source == source)
            and (msg.tag == tag
                 or (tag == ANY_TAG and msg.tag < INTERNAL_TAG_BASE)))


@dataclass
class RankState:
    """Per-rank simulation state shared by all communicators of that rank."""

    rank: int
    sim_time: float = 0.0
    bytes_sent: int = 0
    messages_sent: int = 0
    #: Integrity-envelope accounting (only moves when an
    #: :class:`~repro.resilience.integrity.IntegrityContext` is installed):
    #: full payload-checksum computations vs trusted fast-path envelopes
    #: that skipped checksumming because no message corruption is possible.
    envelope_checksums: int = 0
    envelope_fastpath: int = 0

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ValueError("cannot advance the clock backwards")
        self.sim_time += dt

    def observe(self, remote_time: float) -> None:
        """Logical-clock merge: never run ahead of a message's arrival time."""
        if remote_time > self.sim_time:
            self.sim_time = remote_time


class Transport:
    """Inbox fabric for one SPMD world."""

    def __init__(self, world_size: int) -> None:
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        self.world_size = world_size
        self._inboxes = [queue.SimpleQueue() for _ in range(world_size)]
        #: Per rank, in arrival order: messages its owner took off the
        #: inbox while looking for another one.  Owner-private.
        self._parked: list[list[Message]] = [[] for _ in range(world_size)]
        #: ``_puts[dest][source]``: messages put, each counted before it is
        #: queued; only the source's thread writes a cell, so no lock.
        self._puts = [[0] * world_size for _ in range(world_size)]
        self._taken = [0] * world_size  # per rank, counted by its owner
        #: Per rank: its last wait, (source, tag, context, messages taken),
        #: () once it returned, None before it first blocks.
        self.waits: list[Optional[tuple]] = [None] * world_size
        self._lock = threading.Lock()  # the wait registry and contexts
        self.aborted = False
        self.states = [RankState(rank=r) for r in range(world_size)]
        self._next_context = 1  # 0 is COMM_WORLD

    # -- failure propagation ----------------------------------------------
    def abort(self) -> None:
        """Fail the world: a receiver blocked on an empty inbox wakes on
        the sentinel posted here, and no later ``get`` blocks."""
        self.aborted = True
        for inbox in self._inboxes:
            inbox.put(None)

    def allocate_context(self) -> int:
        with self._lock:
            ctx = self._next_context
            self._next_context += 1
            return ctx

    def settle(self, rank: int, wait: tuple) -> None:
        """Register ``rank``'s wait (``()``: it returned).  Abort the world
        when every rank that has not returned waits on an inbox nothing
        was put into since it registered — its count taken equals the
        count put — leaving the waits as they were.  DESIGN §15 shows why
        no race fakes or hides a deadlock."""
        with self._lock:
            self.waits[rank] = wait
            if self.aborted:
                raise TransportAborted("SPMD world aborted while receiving")
            for r, w in enumerate(self.waits):
                if w is None or w and w[3] != sum(self._puts[r]):
                    return  # rank r runs, or was put to since it registered
            if self.waits.count(()) < self.world_size:
                self.abort()
                raise TransportAborted("SPMD world deadlocked")

    # -- messaging ----------------------------------------------------------
    def put(self, source: int, dest: int, msg: Message) -> None:
        if not (0 <= dest < self.world_size):
            raise ValueError(f"destination rank {dest} out of range")
        self._puts[dest][source] += 1
        self._inboxes[dest].put(msg)

    def get(
        self, dest: int, source: int = ANY_SOURCE, tag: int = ANY_TAG, context: int = 0
    ) -> Message:
        """Blocking matched receive for rank ``dest`` (its own thread only)."""
        parked = self._parked[dest]
        for i, msg in enumerate(parked):
            if _matches(msg, source, tag, context):
                del parked[i]
                return msg
        inbox = self._inboxes[dest]
        while True:
            if inbox.empty():  # about to block
                self.settle(dest, (source, tag, context, self._taken[dest]))
            msg = inbox.get()
            if msg is None:
                continue  # the abort sentinel, here to wake us
            self._taken[dest] += 1
            if _matches(msg, source, tag, context):
                return msg
            parked.append(msg)
