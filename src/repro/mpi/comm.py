"""The communicator: mpi4py-flavoured API over the inbox transport.

The lowercase methods (``send``, ``recv``, ``bcast``, ``gather``,
``allgather``, ``reduce``, ``allreduce``, ``reduce_scatter``, ``barrier``)
communicate arbitrary Python objects.  Every reduction is a SUM and every
rooted collective is rooted at rank 0, the one configuration the paper's
Horovod runs use; an ``allreduce`` of an array with at least one element
per rank runs the ring on a C-ordered copy.

Simulated time: all traffic is charged to each rank's logical clock using
the communicator's :class:`~repro.simnet.costs.CommCostModel` (a fabric
choice, e.g. the booster's InfiniBand HDR).  ``comm.compute(seconds)``
charges modelled computation, so a full training loop produces a faithful
simulated timeline alongside its real numerical results.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Any, Optional, Sequence

import numpy as np

from repro import telemetry
from repro.simnet.costs import CommCostModel
from repro.simnet.link import LinkKind
from repro.mpi.transport import (
    ANY_SOURCE,
    ANY_TAG,
    INTERNAL_TAG_BASE as _INTERNAL_TAG_BASE,
    Message,
    RankState,
    Transport,
    payload_nbytes,
    wire_size,
)


#: Default fabric if none is specified: the booster's InfiniBand HDR.
_DEFAULT_COST_MODEL = CommCostModel.of_kind(LinkKind.INFINIBAND_HDR)

#: What ``_traced`` hands out while the tracer is disabled.
_UNTRACED = nullcontext()


class Communicator:
    """A process group over a :class:`Transport`.

    ``group`` maps group-local ranks to world ranks; COMM_WORLD uses the
    identity mapping and context 0.
    """

    def __init__(
        self,
        transport: Transport,
        rank: int,
        group: Optional[Sequence[int]] = None,
        context: int = 0,
        cost_model: Optional[CommCostModel] = None,
        integrity: Optional[Any] = None,
    ) -> None:
        self.transport = transport
        self.group = list(group) if group is not None else list(range(transport.world_size))
        if rank not in range(len(self.group)):
            raise ValueError(f"rank {rank} outside group of size {len(self.group)}")
        self.rank = rank
        self.size = len(self.group)
        self.context = context
        self.cost_model = cost_model or _DEFAULT_COST_MODEL
        #: Optional :class:`~repro.resilience.integrity.IntegrityContext`
        #: shared world-wide; wraps every message in a checksummed envelope
        #: and/or injects the fault plan's silent message corruption.
        #: Inherited by communicators derived via Split/shrink.
        self.integrity = integrity
        self.state: RankState = transport.states[self.group[rank]]
        self._coll_seq = 0  # per-communicator collective sequence for tag isolation
        # Hot-path caches: every message pays _send_raw/_recv_raw, so the
        # per-call attribute/hasattr/import lookups are hoisted here.  The
        # cost model is immutable per communicator (``with_cost_model``
        # builds a new one), so caching its methods is safe.
        self._ptp_between = getattr(self.cost_model, "ptp_between", None)
        self._ptp = self.cost_model.ptp
        self._alpha = self.cost_model.alpha
        self._world_rank = self.group[rank]
        #: ``_traced``'s counters, resolved by label once per registry.
        self._counters: tuple[Any, dict[tuple[str, str], Any]] = (None, {})
        if integrity is not None:
            from repro.resilience.integrity import TRUSTED_CRC, Envelope

            self._envelope_cls = Envelope
            self._trusted_crc = TRUSTED_CRC

    @property
    def sim_time(self) -> float:
        """This rank's simulated clock (seconds)."""
        return self.state.sim_time

    def compute(self, seconds: float) -> None:
        """Charge modelled local computation to the simulated clock."""
        if seconds < 0:
            raise ValueError("compute time must be non-negative")
        tracer = telemetry.get_tracer()
        if tracer.enabled:
            tracer.record("compute", "compute", self.state.sim_time, seconds,
                          track="mpi", lane=self._lane())
        self.state.advance(seconds)

    # -- telemetry ------------------------------------------------------------
    def _lane(self) -> str:
        """This rank's trace lane, keyed by *world* rank so sub-communicator
        traffic lands on the same timeline row as the rank's other work."""
        return f"rank{self._world_rank:03d}"

    def _traced(self, op: str, obj: Any = None):
        """Span + byte/call counters around one communication operation.

        Only the *public* entry points are traced — the point-to-point
        messages a collective algorithm issues internally go through
        ``_send_raw``/``_recv_raw`` and are charged to the enclosing span,
        so bytes are never double counted.
        """
        tracer = telemetry.get_tracer()
        return self._span(tracer, op, obj) if tracer.enabled else _UNTRACED

    def _counter(self, name: str, op: str):
        """``registry.counter(name, op=op)``, looked up once per registry."""
        registry = telemetry.get_registry()
        if self._counters[0] is not registry:
            self._counters = (registry, {})
        found = self._counters[1]
        if (name, op) not in found:
            found[name, op] = registry.counter(name, op=op)
        return found[name, op]

    @contextmanager
    def _span(self, tracer, op: str, obj: Any):
        nbytes = payload_nbytes(obj) if obj is not None else 0
        start = self.state.sim_time
        try:
            yield
        finally:
            tracer.record(op, "comm", start, self.state.sim_time - start,
                          track="mpi", lane=self._lane(), nbytes=nbytes,
                          comm_size=self.size)
            self._counter("collective_calls_total", op).inc()
            if nbytes:
                self._counter("collective_bytes", op).inc(nbytes)

    # -- internal point-to-point --------------------------------------------
    def _world(self, grp_rank: int) -> int:
        return self.group[grp_rank]

    def _send_raw(self, dest: int, obj: Any, tag: int) -> None:
        state = self.state
        src = self._world_rank
        dst = self.group[dest]
        nbytes, pickled = wire_size(obj)
        if self.integrity is not None:
            # Integrity layer: possibly corrupt in transit (fault plan) and,
            # when verification is on, wrap in a checksummed envelope.  The
            # byte accounting stays that of the logical payload — the CRC
            # header is noise next to any tensor.
            obj = self.integrity.outbound(obj, src, dst, pickled)
            if type(obj) is self._envelope_cls:
                if obj.crc == self._trusted_crc:
                    state.envelope_fastpath += 1
                else:
                    state.envelope_checksums += 1
        if self._ptp_between is not None:
            # Modular placement: cost depends on the endpoints' modules.
            cost = self._ptp_between(src, dst, nbytes)
        else:
            cost = self._ptp(nbytes)
        send_time = state.sim_time
        state.bytes_sent += nbytes
        state.messages_sent += 1
        # Sender-side overhead: the message latency term; transmission
        # overlaps with subsequent computation (eager/buffered send).
        state.advance(self._alpha)
        # Stamped with the arrival time for the receiver.
        self.transport.put(dst, Message(
            self.rank, tag, self.context, obj, send_time + cost, nbytes))

    def _recv_raw(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Message:
        msg = self.transport.get(self._world_rank, source, tag, self.context)
        state = self.state
        state.observe(msg.send_time)
        if self.integrity is not None and type(msg.payload) is self._envelope_cls:
            trusted = msg.payload.crc == self._trusted_crc
            payload, penalty = self.integrity.inbound(msg.payload)
            msg.payload = payload
            if trusted:
                state.envelope_fastpath += 1
            else:
                state.envelope_checksums += 1
            if penalty > 0.0:
                # Detected corruption: charge the retransmission to the
                # receiver's simulated clock.
                state.advance(penalty)
        return msg

    # -- lowercase object API -------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._check_user_tag(tag)
        with self._traced("send", obj):
            self._send_raw(dest, obj, tag)

    def recv(self, source: int, tag: int) -> Any:
        if tag != ANY_TAG:
            self._check_user_tag(tag)
        with self._traced("recv"):
            return self._recv_raw(source=source, tag=tag).payload

    @staticmethod
    def _check_user_tag(tag: int) -> None:
        if not (0 <= tag < _INTERNAL_TAG_BASE):
            raise ValueError(f"user tag must be in [0, {_INTERNAL_TAG_BASE})")

    def _next_coll_tag(self) -> int:
        # Collectives on a communicator are called in the same order by all
        # ranks (MPI semantics), so a local sequence number agrees globally.
        # Each collective owns a block of 4096 tags: multi-step algorithms
        # (ring, recursive doubling) use tag offsets, and ranks may be in
        # adjacent collectives at the same instant.
        self._coll_seq += 1
        return _INTERNAL_TAG_BASE + self._coll_seq * 4096

    # -- collectives (object flavour) ------------------------------------------
    def barrier(self) -> None:
        with self._traced("barrier"):
            collectives.dissemination_barrier(self, self._next_coll_tag())

    def bcast(self, obj: Any) -> Any:
        """Rank 0's ``obj`` on every rank."""
        with self._traced("bcast", obj):
            return collectives.binomial_bcast(self, obj,
                                              self._next_coll_tag())

    def gather(self, obj: Any) -> Optional[list]:
        """Every rank's ``obj``, in rank order, at rank 0 (None elsewhere)."""
        tag = self._next_coll_tag()
        with self._traced("gather", obj):
            if self.rank == 0:
                out: list[Any] = [None] * self.size
                out[0] = obj
                for _ in range(self.size - 1):
                    msg = self._recv_raw(source=ANY_SOURCE, tag=tag)
                    out[msg.source] = msg.payload
                return out
            self._send_raw(0, obj, tag)
            return None

    def allgather(self, obj: Any) -> list:
        with self._traced("allgather", obj):
            return collectives.ring_allgather(self, obj,
                                              self._next_coll_tag())

    def reduce(self, obj: Any) -> Any:
        """The sum of every rank's ``obj`` at rank 0 (None elsewhere)."""
        with self._traced("reduce", obj):
            return collectives.binomial_reduce(self, obj,
                                               self._next_coll_tag())

    def allreduce(self, obj: Any) -> Any:
        """The sum of every rank's ``obj`` on every rank."""
        with self._traced("allreduce", obj):
            if isinstance(obj, np.ndarray) and obj.size >= self.size:
                # C-ordered, whatever the input's layout: the ring reduces
                # the flat view of this copy.
                out = obj.astype(np.result_type(obj.dtype, np.float64),
                                 order="C", copy=True) \
                    if obj.dtype.kind in "fc" else obj.copy()
                collectives.ring_allreduce_inplace(self, out,
                                                   self._next_coll_tag())
                return out
            return collectives.recursive_doubling_allreduce(
                self, obj, self._next_coll_tag()
            )

    def reduce_scatter(self, array: np.ndarray) -> tuple[np.ndarray, tuple[int, int]]:
        """SUM-reduce a buffer and scatter chunks: each rank gets its fully
        reduced slice plus the (lo, hi) bounds into the flattened buffer."""
        with self._traced("reduce_scatter", array):
            return collectives.ring_reduce_scatter(
                self, array, self._next_coll_tag())

    # -- communicator management -----------------------------------------------
    def Split(self, color: int, key: int = 0) -> Optional["Communicator"]:
        """Partition the communicator by ``color``; order ranks by ``key``.

        Returns None for ranks passing a negative color (MPI_UNDEFINED).
        """
        entries = self.allgather((color, key, self.rank))
        # Same context must be agreed by every member: derive from rank 0's
        # allocation and broadcast alongside (deterministic: one allocation
        # per color, done identically on all ranks via sorted colors).
        colors = sorted({c for c, _, _ in entries if c >= 0})
        base_ctx = self.bcast(
            self.transport.allocate_context() if self.rank == 0 else None)
        if color < 0:
            return None
        members = sorted(
            [(k, r) for c, k, r in entries if c == color], key=lambda kr: (kr[0], kr[1])
        )
        group = [self._world(r) for _, r in members]
        new_rank = [r for _, r in members].index(self.rank)
        ctx = base_ctx * 4096 + colors.index(color)
        return Communicator(
            self.transport, new_rank, group=group, context=ctx,
            cost_model=self.cost_model, integrity=self.integrity,
        )

    def shrink(self, dead_ranks: Sequence[int]) -> Optional["Communicator"]:
        """Collectively rebuild the communicator without ``dead_ranks``.

        The ULFM-style recovery step elastic training uses: every member of
        the *current* communicator (including the ranks about to leave)
        calls ``shrink``; survivors get a new communicator with ranks
        renumbered by their old rank order, departing ranks get ``None``.

        ``dead_ranks`` are group-local ranks of this communicator.
        """
        dead = set(dead_ranks)
        if not dead <= set(range(self.size)):
            raise ValueError(f"dead ranks {sorted(dead)} outside group "
                             f"of size {self.size}")
        if len(dead) >= self.size:
            raise ValueError("cannot shrink away every rank")
        return self.Split(-1 if self.rank in dead else 0, key=self.rank)

    def with_cost_model(self, cost_model: CommCostModel) -> "Communicator":
        """Same group/context, different fabric model (e.g. GCE offload)."""
        clone = Communicator(
            self.transport, self.rank, group=list(self.group),
            context=self.context, cost_model=cost_model,
            integrity=self.integrity,
        )
        clone._coll_seq = self._coll_seq
        return clone


# Down here because collectives imports Communicator from this module; the
# methods above look the name up when they run.
from repro.mpi import collectives  # noqa: E402
