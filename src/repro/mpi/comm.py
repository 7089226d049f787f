"""The communicator: mpi4py-flavoured API over the inbox transport.

Lowercase methods (``send``, ``recv``, ``bcast``, ``scatter``, ``gather``,
``allgather``, ``reduce``, ``allreduce``, ``alltoall``, ``barrier``)
communicate arbitrary Python objects.  Uppercase methods (``Send``,
``Recv``, ``Bcast``, ``Reduce``, ``Allreduce``, ``Allgather``) operate on
NumPy buffers, filling receive buffers in place — the fast path that
distributed training uses, mirroring mpi4py's convention.

Simulated time: all traffic is charged to each rank's logical clock using
the communicator's :class:`~repro.simnet.costs.CommCostModel` (a fabric
choice, e.g. the booster's InfiniBand HDR).  ``comm.compute(seconds)``
charges modelled computation, so a full training loop produces a faithful
simulated timeline alongside its real numerical results.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Optional, Sequence

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


class ReduceOp:
    """Reduction operators for reduce/allreduce (mpi4py's MPI.SUM etc.)."""

    SUM = "sum"
    PROD = "prod"
    MAX = "max"
    MIN = "min"
    LAND = "land"
    LOR = "lor"

    _FUNCS: dict[str, Callable[[Any, Any], Any]] = {
        "sum": lambda a, b: a + b,
        "prod": lambda a, b: a * b,
        "max": lambda a, b: np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b),
        "min": lambda a, b: np.minimum(a, b) if isinstance(a, np.ndarray) else min(a, b),
        "land": lambda a, b: bool(a) and bool(b),
        "lor": lambda a, b: bool(a) or bool(b),
    }

    @classmethod
    def func(cls, op: str) -> Callable[[Any, Any], Any]:
        try:
            return cls._FUNCS[op]
        except KeyError:
            raise ValueError(f"unknown reduce op {op!r}") from None


#: Default fabric if none is specified: the booster's InfiniBand HDR.
_DEFAULT_COST_MODEL = CommCostModel.of_kind(LinkKind.INFINIBAND_HDR)

#: What ``_traced`` hands out while the tracer is disabled.
_UNTRACED = nullcontext()


class Request:
    """Completed-immediately request handle (sends are buffered)."""

    def __init__(self, value: Any = None) -> None:
        self._value = value

    def wait(self) -> Any:
        return self._value

    def test(self) -> tuple[bool, Any]:
        return True, self._value


class RecvRequest:
    """A genuinely non-blocking receive: matched on wait()/test()."""

    def __init__(self, comm: "Communicator", source: int, tag: int) -> None:
        self._comm = comm
        self._source = source
        self._tag = tag
        self._done = False
        self._value: Any = None

    def test(self) -> tuple[bool, Any]:
        """Non-destructively check for a match; completes if present."""
        if self._done:
            return True, self._value
        if not self._comm.probe(self._source, self._tag):
            return False, None
        return True, self.wait()

    def wait(self) -> Any:
        if not self._done:
            self._value = self._comm._recv_raw(
                source=self._source, tag=self._tag).payload
            self._done = True
        return self._value


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
        #: Inherited by communicators derived via Split/shrink/Dup.
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

    # -- mpi4py-style accessors ---------------------------------------------
    def Get_rank(self) -> int:
        return self.rank

    def Get_size(self) -> int:
        return self.size

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
        self.state.compute_time += seconds

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
        alpha = self._alpha
        state.advance(alpha)
        state.comm_time += alpha
        # Stamped with the arrival time for the receiver.
        self.transport.put(dst, Message(
            self.rank, tag, self.context, obj, send_time + cost, nbytes))

    def _recv_raw(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Message:
        msg = self.transport.get(self._world_rank, source, tag, self.context)
        state = self.state
        before = state.sim_time
        state.observe(msg.send_time)
        state.comm_time += state.sim_time - before
        state.bytes_received += msg.nbytes
        state.messages_received += 1
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
                state.comm_time += penalty
        return msg

    # -- lowercase object API -------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._check_user_tag(tag)
        with self._traced("send", obj):
            self._send_raw(dest, obj, tag)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        self.send(obj, dest, tag)
        return Request()

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        if tag != ANY_TAG:
            self._check_user_tag(tag)
        with self._traced("recv"):
            return self._recv_raw(source=source, tag=tag).payload

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> "RecvRequest":
        """Non-blocking receive; complete it with ``wait()`` or ``test()``."""
        if tag != ANY_TAG:
            self._check_user_tag(tag)
        return RecvRequest(self, source, tag)

    def sendrecv(
        self, sendobj: Any, dest: int, source: int, sendtag: int = 0, recvtag: int = ANY_TAG
    ) -> Any:
        self.send(sendobj, dest, sendtag)
        return self.recv(source=source, tag=recvtag)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        return self.transport.probe(
            self._world_rank, source, tag, self.context) is not None

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

    def bcast(self, obj: Any, root: int = 0) -> Any:
        with self._traced("bcast", obj):
            return collectives.binomial_bcast(self, obj, root,
                                              self._next_coll_tag())

    def scatter(self, objs: Optional[Sequence[Any]], root: int = 0) -> Any:
        tag = self._next_coll_tag()
        with self._traced("scatter", objs):
            if self.rank == root:
                if objs is None or len(objs) != self.size:
                    raise ValueError("root must pass one object per rank")
                for dst in range(self.size):
                    if dst != root:
                        self._send_raw(dst, objs[dst], tag)
                return objs[root]
            return self._recv_raw(source=root, tag=tag).payload

    def gather(self, obj: Any, root: int = 0) -> Optional[list]:
        tag = self._next_coll_tag()
        with self._traced("gather", obj):
            if self.rank == root:
                out: list[Any] = [None] * self.size
                out[root] = obj
                for _ in range(self.size - 1):
                    msg = self._recv_raw(source=ANY_SOURCE, tag=tag)
                    out[msg.source] = msg.payload
                return out
            self._send_raw(root, obj, tag)
            return None

    def allgather(self, obj: Any) -> list:
        with self._traced("allgather", obj):
            return collectives.ring_allgather(self, obj,
                                              self._next_coll_tag())

    def alltoall(self, objs: Sequence[Any]) -> list:
        if len(objs) != self.size:
            raise ValueError("alltoall needs one object per rank")
        tag = self._next_coll_tag()
        with self._traced("alltoall", objs):
            out: list[Any] = [None] * self.size
            out[self.rank] = objs[self.rank]
            # Rotating pairwise schedule: step k sends to rank+k, receives
            # from rank-k — deadlock-free because sends are buffered.
            for step in range(1, self.size):
                send_to = (self.rank + step) % self.size
                recv_from = (self.rank - step) % self.size
                self._send_raw(send_to, objs[send_to], tag)
                msg = self._recv_raw(source=recv_from, tag=tag)
                out[recv_from] = msg.payload
            return out

    def reduce(self, obj: Any, op: str = ReduceOp.SUM, root: int = 0) -> Any:
        with self._traced("reduce", obj):
            return collectives.binomial_reduce(self, obj, op, root,
                                               self._next_coll_tag())

    def allreduce(self, obj: Any, op: str = ReduceOp.SUM) -> Any:
        with self._traced("allreduce", obj):
            if isinstance(obj, np.ndarray) and obj.size >= self.size \
                    and op == ReduceOp.SUM:
                # C-ordered, whatever the input's layout: the ring reduces
                # the flat view of this copy.
                out = obj.astype(np.result_type(obj.dtype, np.float64),
                                 order="C", copy=True) \
                    if obj.dtype.kind in "fc" else obj.copy()
                collectives.ring_allreduce_inplace(self, out,
                                                   self._next_coll_tag())
                return out
            return collectives.recursive_doubling_allreduce(
                self, obj, op, self._next_coll_tag()
            )

    def reduce_scatter(self, array: np.ndarray) -> tuple[np.ndarray, tuple[int, int]]:
        """SUM-reduce a buffer and scatter chunks: each rank gets its fully
        reduced slice plus the (lo, hi) bounds into the flattened buffer."""
        with self._traced("reduce_scatter", array):
            return collectives.ring_reduce_scatter(
                self, array, self._next_coll_tag())

    def scan(self, obj: Any, op: str = ReduceOp.SUM) -> Any:
        """Inclusive prefix reduction."""
        tag = self._next_coll_tag()
        with self._traced("scan", obj):
            fn = ReduceOp.func(op)
            acc = obj
            if self.rank > 0:
                prev = self._recv_raw(source=self.rank - 1, tag=tag).payload
                acc = fn(prev, obj)
            if self.rank < self.size - 1:
                self._send_raw(self.rank + 1, acc, tag)
            return acc

    # -- uppercase buffer API ----------------------------------------------------
    @staticmethod
    def _as_array(buf: np.ndarray) -> np.ndarray:
        if not isinstance(buf, np.ndarray):
            raise TypeError("uppercase methods require numpy arrays")
        return buf

    def Send(self, buf: np.ndarray, dest: int, tag: int = 0) -> None:
        self.send(self._as_array(buf).copy(), dest, tag)

    def Recv(self, buf: np.ndarray, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> None:
        data = self.recv(source=source, tag=tag)
        arr = self._as_array(buf)
        arr[...] = np.asarray(data).reshape(arr.shape)

    def Bcast(self, buf: np.ndarray, root: int = 0) -> None:
        arr = self._as_array(buf)
        out = self.bcast(arr if self.rank == root else None, root=root)
        if self.rank != root:
            arr[...] = np.asarray(out).reshape(arr.shape)

    def Reduce(self, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray],
               op: str = ReduceOp.SUM, root: int = 0) -> None:
        result = self.reduce(self._as_array(sendbuf).copy(), op=op, root=root)
        if self.rank == root:
            if recvbuf is None:
                raise ValueError("root must pass recvbuf")
            recvbuf[...] = np.asarray(result).reshape(recvbuf.shape)

    def Allreduce(self, sendbuf: np.ndarray, recvbuf: np.ndarray,
                  op: str = ReduceOp.SUM) -> None:
        result = self.allreduce(self._as_array(sendbuf).copy(), op=op)
        recvbuf[...] = np.asarray(result).reshape(recvbuf.shape)

    def Allgather(self, sendbuf: np.ndarray, recvbuf: np.ndarray) -> None:
        parts = self.allgather(self._as_array(sendbuf).copy())
        stacked = np.concatenate([np.asarray(p).ravel() for p in parts])
        recvbuf[...] = stacked.reshape(recvbuf.shape)

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
            self.transport.allocate_context() if self.rank == 0 else None, root=0
        )
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

    def Dup(self) -> "Communicator":
        ctx = self.bcast(
            self.transport.allocate_context() if self.rank == 0 else None, root=0
        )
        return Communicator(
            self.transport, self.rank, group=list(self.group),
            context=ctx * 4096 + 4095, cost_model=self.cost_model,
            integrity=self.integrity,
        )

    def with_cost_model(self, cost_model: CommCostModel) -> "Communicator":
        """Same group/context, different fabric model (e.g. GCE offload)."""
        clone = Communicator(
            self.transport, self.rank, group=list(self.group),
            context=self.context, cost_model=cost_model,
            integrity=self.integrity,
        )
        clone._coll_seq = self._coll_seq
        return clone


# Down here because collectives imports Communicator and ReduceOp from this
# module; the methods above look the name up when they run.
from repro.mpi import collectives  # noqa: E402
