"""End-to-end data integrity: silent-corruption injection and detection.

Long-running distributed ML at MSA scale must survive not just fail-stop
faults but *silent* data corruption — a bit flips on a fabric link, in a
DIMM holding a gradient buffer, or in a checkpoint at rest, and nothing
crashes: the job simply converges to the wrong model.  This module is the
detection side of that story, mirroring how production systems layer it:

* **checksummed envelopes** — every point-to-point message (and therefore
  every collective step) carries a CRC32 of its payload; the receiver
  verifies and, on mismatch, charges a retransmission penalty and consumes
  the sender's retained clean copy (the simulation stand-in for a
  retransmit),
* **ABFT-verified allreduce** — the classic cheap invariant for SUM
  reductions: the sum of the ranks' linear checksums must equal the
  checksum of the reduced result (both are the same linear functional of
  the inputs).  A mismatch proves some contribution was corrupted in
  flight; an O(P)-scalar audit identifies the offending rank so the
  caller can quarantine it and retry the collective over the survivors
  via the existing ``comm.shrink`` elastic path,
* **corruption injection** — the :class:`CorruptionInjector` consumes the
  silent-corruption fault classes of a
  :class:`~repro.resilience.faults.FaultPlan` fully deterministically
  (stable hashes, never shared RNG state), so every drill replays
  byte-identically.

The injected flip is a *stuck-at-one fault on the exponent field* of one
element: the corrupted value lands around ±1e300 (or NaN/Inf), which is
the detectable regime ABFT targets — flips below the reduction's own
floating-point noise floor are indistinguishable from rounding and are
out of scope by construction.

Accounting contract (asserted by the SDC drill and CI): every corruption
the injector introduces increments ``integrity_corruptions_injected``;
every verification catch increments ``integrity_corruptions_detected``;
:func:`publish_undetected` sets the ``integrity_undetected`` gauge to
their difference, which must be **zero** whenever verification is on.
"""

from __future__ import annotations

import hashlib
import math
import pickle
import threading
import zlib
from dataclasses import dataclass
from typing import Any, NamedTuple, Optional

import numpy as np

from repro.resilience.faults import FaultKind, FaultPlan


# ---------------------------------------------------------------------------
# checksums
# ---------------------------------------------------------------------------

def wordsum(buf, base: int = 0) -> int:
    """IP-style 64-bit word-sum checksum of a byte buffer, seeded by ``base``.

    NumPy sums the buffer as 64-bit words at memory bandwidth — several
    times faster than CRC32, which matters when every collective hop and
    every checkpoint byte (on write and again on each verified
    restore/scrub) is checksummed.  Any single flipped word changes the
    sum, which covers the bit-flip fault model; the bytes past the last
    whole word fold in via CRC32.
    """
    view = memoryview(buf)
    nbytes = view.nbytes
    nwords = nbytes // 8
    words = np.frombuffer(view, np.uint64, nwords)
    total = base + int(np.add.reduce(words))  # uint64: wraps mod 2**64
    if nbytes % 8:
        # Offset in bytes whatever the view's item size: slicing the view
        # itself would count items and skip the tail of a float32 buffer.
        total += zlib.crc32(
            np.frombuffer(view, dtype=np.uint8, offset=nwords * 8))
    return total & 0xFFFFFFFFFFFFFFFF


#: dtype/shape header CRCs, cached — the same few shapes recur on every hop.
_HEADER_CRC: dict[tuple[np.dtype, tuple[int, ...]], int] = {}


def checksum_payload(obj: Any) -> int:
    """Checksum of a payload's canonical bytes (dtype/shape-aware).

    Arrays get the :func:`wordsum` of their C-order bytes seeded with the
    CRC32 of the header ``f"{dtype.str}:{shape}"``; non-array payloads use
    CRC32 of their pickled form.
    """
    if isinstance(obj, np.ndarray):
        hkey = (obj.dtype, obj.shape)
        base = _HEADER_CRC.get(hkey)
        if base is None:
            base = _HEADER_CRC[hkey] = zlib.crc32(
                f"{obj.dtype.str}:{obj.shape}".encode())
        return wordsum(obj if obj.flags.c_contiguous else obj.tobytes(), base)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return zlib.crc32(bytes(obj))
    try:
        return zlib.crc32(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 0  # unpicklable sentinel payloads are not integrity-protected


def linear_checksum(arr: np.ndarray) -> float:
    """The ABFT linear checksum of a contribution: sum of elements.

    Pairwise ``np.sum`` keeps the rounding error around ``1e-15 * L1`` —
    six orders of magnitude below the ``tolerance * L1`` detection
    threshold — while running at memory bandwidth; an exact ``fsum``
    would cost more than the reduction it protects.
    """
    return float(np.sum(np.asarray(arr, dtype=np.float64)))


def _stable_index(seed: int, key: str, n: int, size: int) -> int:
    digest = hashlib.blake2b(
        f"{seed}:idx:{key}:{n}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") % max(size, 1)


def flip_high_bits(arr: np.ndarray, index: int) -> np.ndarray:
    """Stuck-at-one fault on the exponent field of element ``index``.

    Returns a corrupted copy; the element's top byte gets ``|= 0x7E``
    (forcing a huge magnitude) and, if that leaves the bytes unchanged
    (the element was already huge), the sign bit flips instead — the
    result always differs from the input.
    """
    out = np.array(arr, copy=True)
    flat = out.reshape(-1)
    cell = flat[index:index + 1]
    raw = bytearray(cell.tobytes())
    before = bytes(raw)
    raw[-1] |= 0x7E
    if bytes(raw) == before:
        raw[-1] ^= 0x80
    flat[index:index + 1] = np.frombuffer(bytes(raw), dtype=out.dtype)
    return out


# ---------------------------------------------------------------------------
# configuration and envelopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegrityConfig:
    """The verification switch (injection is the fault plan's job).

    ``verify`` — checksum envelopes on messages and the ABFT invariant on
    gradient allreduces; off = corruption flows silently.
    """

    verify: bool = True


#: Relative tolerance of the ABFT sum comparison (absorbs the
#: reduction-order float jitter a ring introduces).
ABFT_TOLERANCE = 1e-9
#: Simulated-clock cost charged when a corrupted message is detected and
#: retransmitted.
RETRANSMIT_PENALTY_S = 1e-4


#: Sentinel CRC marking a trusted-transport envelope.  The in-process
#: shared-memory transport cannot itself corrupt payloads — the only
#: in-transit corruption source is a :class:`CorruptionInjector` with a
#: positive per-message probability — so when no such injector is active
#: the sender skips the payload checksum and the receiver skips
#: verification.  Real checksums are non-negative 64-bit values, so the
#: sentinel can never collide with one.
TRUSTED_CRC = -1


class Envelope(NamedTuple):
    """A checksummed message payload.

    ``clean`` is ``None`` for untampered payloads; when the injector
    corrupted the payload in transit it holds the sender's retained copy,
    standing in for the retransmit buffer a real reliable transport keeps.
    A ``crc`` of :data:`TRUSTED_CRC` marks a trusted-transport envelope
    that carries no checksum at all.
    """

    payload: Any
    crc: int
    clean: Any = None


class GradientCorruptionError(RuntimeError):
    """A verified allreduce caught corrupted contributions.

    Carries the training step and the offending *world* ranks so the
    elastic trainer can quarantine them and shrink the ring.
    """

    def __init__(self, step: int, world_ranks: tuple[int, ...]) -> None:
        super().__init__(
            f"gradient corruption at step {step}: "
            f"offending world ranks {list(world_ranks)}")
        self.step = step
        self.world_ranks = world_ranks


# ---------------------------------------------------------------------------
# the injector: consumes a plan's silent-corruption faults
# ---------------------------------------------------------------------------

class CorruptionInjector:
    """Deterministic silent-corruption injection driven by a fault plan.

    All decisions derive from stable hashes of ``(plan.seed, stream key,
    per-stream counter)``; per-(src, dst) message streams are advanced
    only by their own sender thread, so multi-threaded SPMD runs replay
    identically for a given plan.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.message_p = plan.message_bitflip_probability
        self._lock = threading.Lock()
        #: Per (src, dst) lane: [key, blake2b fed ``f"{seed}:{key}:"``,
        #: draws].  Written by its sender thread alone, so drawn unlocked.
        self._lanes: dict[tuple[int, int], list] = {}
        self._consumed_grads: set[tuple[int, int]] = set()
        #: Local injection log: (kind, stream key) in injection order.
        self.injected: list[tuple[str, str]] = []

    def _count(self, kind: FaultKind, key: str) -> None:
        from repro import telemetry

        telemetry.get_registry().counter(
            "integrity_corruptions_injected", kind=kind.value).inc()
        with self._lock:
            self.injected.append((kind.value, key))

    # -- messages ----------------------------------------------------------
    def maybe_corrupt_message(self, obj: Any, src: int, dst: int
                              ) -> tuple[Any, bool]:
        """Corrupt ``obj`` with the plan's per-message probability.

        Only numeric payloads (arrays and floats) are corruptible — the
        physical fault model is a flipped bit in a data word.  Returns
        ``(payload, corrupted?)``; the original object is never mutated.
        """
        if self.message_p <= 0.0:
            return obj, False
        corruptible = (isinstance(obj, np.ndarray) and obj.size > 0
                       and obj.dtype.kind in "fiu") or isinstance(obj, float)
        if not corruptible:
            return obj, False
        lane = self._lanes.get((src, dst))
        if lane is None:
            key = f"msg:{src}>{dst}"
            lane = self._lanes[src, dst] = [key, hashlib.blake2b(
                f"{self.plan.seed}:{key}:".encode(), digest_size=8), 0]
        key, prefix, n = lane
        lane[2] = n + 1
        draw = prefix.copy()        # ``_stable_uniform``, prefix pre-hashed
        draw.update(str(n).encode())
        if int.from_bytes(draw.digest(), "big") / 2.0 ** 64 >= self.message_p:
            return obj, False
        if isinstance(obj, float):
            corrupted: Any = float(flip_high_bits(np.array([obj]), 0)[0])
        else:
            corrupted = flip_high_bits(
                obj, _stable_index(self.plan.seed, key, n, obj.size))
        self._count(FaultKind.BITFLIP_MESSAGE, f"{key}#{n}")
        return corrupted, True

    # -- gradients ---------------------------------------------------------
    def corrupt_contribution(self, arr: np.ndarray, step: int,
                             world_rank: int) -> tuple[np.ndarray, bool]:
        """Apply any BITFLIP_GRADIENT spec for (``step``, ``world_rank``).

        Each spec fires exactly once — a step replayed after a rollback
        does not re-corrupt (the offending rank has left the ring).
        """
        if all(s.node != world_rank for s in
               self.plan.at_step(FaultKind.BITFLIP_GRADIENT, step)):
            return arr, False
        with self._lock:
            if (step, world_rank) in self._consumed_grads:
                return arr, False
            self._consumed_grads.add((step, world_rank))
        key = f"grad:{step}:{world_rank}"
        corrupted = flip_high_bits(
            arr, _stable_index(self.plan.seed, key, 0, arr.size))
        self._count(FaultKind.BITFLIP_GRADIENT, key)
        return corrupted, True


# ---------------------------------------------------------------------------
# the comm-layer context: wrap on send, verify on receive
# ---------------------------------------------------------------------------

class IntegrityContext:
    """Per-world integrity state shared by every rank's communicator.

    Installed on a :class:`~repro.mpi.comm.Communicator` (and inherited by
    every communicator derived from it via ``Split``/``shrink``/``Dup``),
    it sits inside ``_send_raw``/``_recv_raw`` so collective-internal
    traffic is protected exactly like user point-to-point messages.
    """

    def __init__(self, injector: Optional[CorruptionInjector] = None, *,
                 config: IntegrityConfig) -> None:
        self.injector = injector
        self.config = config

    @property
    def verify(self) -> bool:
        return self.config.verify

    def outbound(self, obj: Any, src: int, dst: int,
                 pickled: Optional[bytes] = None) -> Any:
        """The wire form of ``obj``: possibly corrupted, possibly enveloped.

        ``pickled`` is the sender's pickling of an object payload when it
        has one already; the CRC of those bytes is the payload's checksum.
        """
        injector = self.injector
        if injector is None or injector.message_p <= 0.0:
            # Trusted fast path: nothing can tamper with this message in
            # transit (the transport is shared memory and no injector is
            # armed), so checksumming it could only ever confirm a match.
            # Skipping the computation on both ends is behavior-preserving
            # and removes the envelope layer's dominant per-message cost.
            # Gradient corruption is out of scope here by construction:
            # it is applied *before* send, so even the slow path's
            # checksum is taken over the already-corrupted contribution.
            if not self.config.verify:
                return obj
            return Envelope(payload=obj, crc=TRUSTED_CRC)
        wire, corrupted = injector.maybe_corrupt_message(obj, src, dst)
        if not self.verify:
            return wire          # unprotected: corruption flows silently
        crc = checksum_payload(obj if pickled is None else pickled)
        return Envelope(payload=wire, crc=crc,
                        clean=obj if corrupted else None)

    def inbound(self, envelope: Envelope) -> tuple[Any, float]:
        """Verify an envelope; returns ``(payload, clock penalty)``.

        On a checksum mismatch the corruption is counted as detected, the
        retransmission penalty is charged, and the sender's retained clean
        copy is consumed.
        """
        if envelope.crc == TRUSTED_CRC:
            return envelope.payload, 0.0
        if checksum_payload(envelope.payload) == envelope.crc:
            return envelope.payload, 0.0
        from repro import telemetry

        telemetry.get_registry().counter(
            "integrity_corruptions_detected",
            kind=FaultKind.BITFLIP_MESSAGE.value).inc()
        if envelope.clean is None:
            raise RuntimeError(
                "corrupted message with no retransmit copy — envelope "
                "damaged outside the injector's fault model")
        return envelope.clean, RETRANSMIT_PENALTY_S


# ---------------------------------------------------------------------------
# ABFT-verified allreduce
# ---------------------------------------------------------------------------

def verified_grad_allreduce(
    comm,
    fused: np.ndarray,
    injector: Optional[CorruptionInjector],
    step: int,
    config: IntegrityConfig,
) -> np.ndarray:
    """SUM-allreduce ``fused`` with the ABFT invariant checked.

    Every rank contributes its (possibly injector-corrupted) buffer; the
    cheap always-on check compares the checksum-of-sum against the
    allreduced sum-of-checksums.  On mismatch an O(P)-scalar audit
    identifies the offending world ranks and a
    :class:`GradientCorruptionError` is raised **on every rank** (the
    invariant is computed from collective results, so the decision is
    globally consistent) — the caller quarantines the offenders and
    retries over the survivors.

    With ``config.verify`` off the reduction is returned unchecked, which
    is exactly how silent corruption earns its name.
    """
    world_rank = comm._world(comm.rank)
    clean_sum = linear_checksum(fused)
    clean_l1 = float(np.sum(np.abs(fused)))
    wire = fused
    if injector is not None:
        wire, _ = injector.corrupt_contribution(fused, step, world_rank)
    if not config.verify:
        return comm.allreduce(wire)
    # Piggyback the two checksum lanes onto the gradient buffer itself, so
    # verification costs zero extra collective rounds.  The lanes are
    # appended *after* injection: the fault model corrupts a rank's
    # gradient contribution, and the lanes carry the clean invariants of
    # exactly that contribution (in-transit flips are the envelope
    # layer's job, which protects this combined buffer like any message).
    combined = np.concatenate([
        np.asarray(wire, dtype=np.float64).ravel(),
        (clean_sum, clean_l1)])
    reduced = comm.allreduce(combined)
    out = reduced[:-2].astype(fused.dtype, copy=False).reshape(fused.shape)
    totals = reduced[-2:]
    actual = float(np.sum(out))
    scale = max(1.0, float(totals[1]))
    if math.isfinite(actual) \
            and abs(actual - float(totals[0])) <= ABFT_TOLERANCE * scale:
        return out
    # Invariant violated: audit per-rank contributions to find offenders.
    sent = float(np.sum(wire))
    audit = comm.allgather((clean_sum, sent))
    offenders = tuple(
        comm._world(i) for i, (clean, actual_i) in enumerate(audit)
        if not (math.isfinite(actual_i)
                and abs(actual_i - clean)
                <= ABFT_TOLERANCE * max(1.0, abs(clean))))
    if not offenders:       # float-jitter false alarm — accept the result
        return out
    if comm.rank == 0:
        from repro import telemetry

        telemetry.get_registry().counter(
            "integrity_corruptions_detected",
            kind=FaultKind.BITFLIP_GRADIENT.value).inc(len(offenders))
    raise GradientCorruptionError(step, offenders)


# ---------------------------------------------------------------------------
# end-of-run reconciliation
# ---------------------------------------------------------------------------

def corruption_totals(reg) -> tuple[float, float]:
    """(injected, detected) totals across every corruption kind."""
    injected = sum(inst.value for _, inst
                   in reg.members("integrity_corruptions_injected"))
    detected = sum(inst.value for _, inst
                   in reg.members("integrity_corruptions_detected"))
    return float(injected), float(detected)


def publish_undetected(reg) -> float:
    """Set the ``integrity_undetected`` gauge; returns its value.

    The reconciliation invariant of the whole layer: with verification on,
    every injected corruption must have been caught somewhere (in transit,
    at the allreduce, on restore, or by the scrub), so the gauge must read
    zero — CI fails the SDC drill otherwise.
    """
    injected, detected = corruption_totals(reg)
    undetected = injected - detected
    reg.gauge("integrity_undetected").set(undetected)
    return undetected
