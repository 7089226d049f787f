"""Thread-safe message transport and per-rank state.

The transport is one inbox per rank that only its owner reads: any thread
``put``s into a rank's queue, but ``get``/``probe`` for a rank run on that
rank's own thread alone, so the list of messages taken off the queue and
not yet matched needs no lock.  Messages are addressed by (destination,
source, tag, context) — ``context`` isolates communicators produced by
``Split`` from each other, mirroring MPI context ids.

Message payloads carry the sender's simulated timestamp so receivers can
advance their logical clocks (see :mod:`repro.mpi.comm`).
"""

from __future__ import annotations

import pickle
import queue
import threading
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.simnet.link import PartitionWindow

ANY_SOURCE = -1
ANY_TAG = -1

#: Tag space partitioning: user tags stay below this, collective-internal
#: traffic uses tags above it.  ``ANY_TAG`` matches user tags only — MPI
#: keeps point-to-point and collective traffic in separate contexts.
INTERNAL_TAG_BASE = 1 << 20


class TransportAborted(RuntimeError):
    """Raised in blocked receivers when another rank has failed."""


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


@dataclass(frozen=True)
class PartitionSchedule:
    """A NETWORK_PARTITION window applied to the SPMD fabric.

    ``far_ranks`` is one side of the bipartition; a message whose source
    and destination sit on opposite sides while the window is active (on
    the *sender's* simulated clock) stalls until the cut heals, then
    lands after a retransmission burst — TCP-over-a-partition semantics:
    delayed, never silently lost, so collectives finish late instead of
    deadlocking and the zero-loss invariant survives the fault.
    """

    window: PartitionWindow
    far_ranks: frozenset
    retransmit_s: float = 1e-3

    def crosses(self, source: int, dest: int) -> bool:
        return (source in self.far_ranks) != (dest in self.far_ranks)


@dataclass
class RankState:
    """Per-rank simulation state shared by all communicators of that rank."""

    rank: int
    sim_time: float = 0.0
    bytes_sent: int = 0
    bytes_received: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    compute_time: float = 0.0
    comm_time: float = 0.0
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
        self.aborted = False
        self.states = [RankState(rank=r) for r in range(world_size)]
        self._context_lock = threading.Lock()
        self._next_context = 1  # 0 is COMM_WORLD
        self._partitions: list[PartitionSchedule] = []
        #: Messages that hit an active cut and were stalled to heal time.
        self.partition_stalled = 0

    # -- partitions ----------------------------------------------------------
    def install_partition(self, schedule: PartitionSchedule) -> None:
        """Arm a partition window on this fabric (several may overlap)."""
        bad = [r for r in schedule.far_ranks
               if not (0 <= r < self.world_size)]
        if bad:
            raise ValueError(f"far ranks {bad} out of range")
        self._partitions.append(schedule)

    def _apply_partitions(self, dest: int, msg: Message) -> None:
        """Stall ``msg`` past every active cut it crosses (sender clock).

        A stalled message may land inside a later window, so iterate to a
        fixed point — bounded by the number of installed schedules since
        each can only push the send time forward past its own end.
        """
        for _ in range(len(self._partitions) + 1):
            stall = max((p.window.delay_until_heal(msg.send_time)
                         + p.retransmit_s
                         for p in self._partitions
                         if p.crosses(msg.source, dest)
                         and p.window.active(msg.send_time)),
                        default=0.0)
            if stall <= 0.0:
                return
            msg.send_time += stall
            self.partition_stalled += 1

    # -- failure propagation ----------------------------------------------
    def abort(self) -> None:
        """Fail the world: a receiver blocked on an empty inbox wakes on
        the sentinel posted here, and no later ``get`` blocks."""
        self.aborted = True
        for inbox in self._inboxes:
            inbox.put(None)

    def allocate_context(self) -> int:
        with self._context_lock:
            ctx = self._next_context
            self._next_context += 1
            return ctx

    # -- messaging ----------------------------------------------------------
    def put(self, dest: int, msg: Message) -> None:
        if not (0 <= dest < self.world_size):
            raise ValueError(f"destination rank {dest} out of range")
        if self._partitions:
            self._apply_partitions(dest, msg)
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
        take = self._inboxes[dest].get
        try:
            while True:
                # Once the world is aborted, only drain what is queued.
                msg = take(not self.aborted)
                if msg is None:
                    continue  # the abort sentinel, here to wake us
                if _matches(msg, source, tag, context):
                    return msg
                parked.append(msg)
        except queue.Empty:
            raise TransportAborted(
                "SPMD world aborted while receiving") from None

    def probe(
        self, dest: int, source: int = ANY_SOURCE, tag: int = ANY_TAG, context: int = 0
    ) -> Optional[Message]:
        """Non-destructive check for a matching message (returns it or None)."""
        parked = self._parked[dest]
        take = self._inboxes[dest].get_nowait
        try:
            while True:
                msg = take()
                if msg is not None:
                    parked.append(msg)
        except queue.Empty:
            pass
        for msg in parked:
            if _matches(msg, source, tag, context):
                return msg
        return None
