"""Deterministic, seed-driven fault injection.

Large heterogeneous systems keep running at scale only because the stack
tolerates node loss and stragglers (the NAM module exists specifically to
accelerate checkpoint/restart, paper ref [12]).  This module supplies the
*injection* side of that story: a :class:`FaultPlan` is a fully resolved,
ordered list of :class:`FaultSpec` entries (all randomness spent at plan
construction from one seed), and a :class:`FaultInjector` schedules each
spec as an ordinary simulated event on a :class:`~repro.simnet.events.Simulator`
— faults are events in the same deterministic queue as everything else,
never monkey-patches.

Fault classes:

* ``NODE_CRASH``     — a compute node dies mid-run and needs repair,
* ``LINK_DEGRADE``   — an inter-module link runs at a fraction of its
  bandwidth for a window,
* ``STRAGGLER``      — a node slows down, stretching whatever runs on it,
* ``RANK_KILL``      — a training rank is lost at a given global step
  (consumed by the elastic trainer, not by the scheduler clock).

Ambiguous-failure classes (the gray zone production serving actually
lives in — consumed by the serving engine's failure detector, circuit
breakers and response hold, see :mod:`repro.resilience.detect`):

* ``NETWORK_PARTITION`` — a seeded bipartition of nodes for a window:
  responses crossing the cut are held until the partition heals
  (``probability`` is the fraction of nodes on the far side; the cut
  itself comes from :func:`partition_cut`),
* ``GRAY_FAILURE``      — a replica whose service time inflates by
  ``magnitude`` while it *still answers health probes* with
  probability ``probability`` — alive enough to fool a binary checker,
  slow enough to wreck the tail.

Silent-corruption classes (consumed by :mod:`repro.resilience.integrity`,
never by the scheduler clock — they damage *data*, not availability):

* ``BITFLIP_MESSAGE``  — each message on the fabric is independently
  corrupted with probability ``magnitude`` (a high-order bit of the
  payload flips in transit),
* ``BITFLIP_GRADIENT`` — one rank's gradient contribution is corrupted
  immediately before the allreduce at training step ``time`` (``node`` is
  the world rank whose contribution rots),
* ``CHECKPOINT_ROT``   — the checkpoint written at training step ``time``
  rots at rest on target ``module`` ("nam" or "pfs"; empty = the
  manager's preferred target).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional

import numpy as np

from repro.simnet.events import Event, Simulator


class FaultKind(str, Enum):
    NODE_CRASH = "node-crash"
    LINK_DEGRADE = "link-degrade"
    STRAGGLER = "straggler"
    RANK_KILL = "rank-kill"
    BITFLIP_MESSAGE = "bitflip-message"
    BITFLIP_GRADIENT = "bitflip-gradient"
    CHECKPOINT_ROT = "checkpoint-rot"
    NETWORK_PARTITION = "network-partition"
    GRAY_FAILURE = "gray-failure"


#: Fault classes that are not scheduler-clock events: they are consumed by
#: the elastic trainer, the transport integrity layer or the checkpoint
#: manager instead of firing on the simulator.
DATA_FAULTS = frozenset({
    FaultKind.RANK_KILL,
    FaultKind.BITFLIP_MESSAGE,
    FaultKind.BITFLIP_GRADIENT,
    FaultKind.CHECKPOINT_ROT,
})


@dataclass(frozen=True)
class FaultSpec:
    """One fully resolved fault: what, where, when, how bad, how long.

    ``time`` is simulated seconds for scheduler-clock faults and the global
    *training step* for ``RANK_KILL`` faults.  ``magnitude`` is the slowdown
    factor for stragglers, link degradation and gray failures, and the
    per-message bitflip probability.  ``probability`` is the probe-answer
    probability of a gray-failed node and the far-side node fraction of a
    network partition (unused, 1.0, elsewhere).
    """

    kind: FaultKind
    time: float
    module: str = ""
    node: int = -1
    duration: float = 600.0
    magnitude: float = 1.0
    probability: float = 1.0

    def __post_init__(self) -> None:
        # Written so that NaN fails too.
        if not (self.time >= 0):
            raise ValueError("fault time must be non-negative")
        if not (self.duration >= 0):
            raise ValueError("fault duration must be non-negative")
        if self.kind in (FaultKind.STRAGGLER, FaultKind.LINK_DEGRADE) \
                and not (self.magnitude >= 1.0):
            raise ValueError("slowdown magnitude must be >= 1")
        if self.kind is FaultKind.BITFLIP_MESSAGE \
                and not (0.0 < self.magnitude <= 1.0):
            raise ValueError("bitflip probability must be in (0, 1]")
        if self.kind is FaultKind.CHECKPOINT_ROT \
                and self.module not in ("", "nam", "pfs"):
            raise ValueError("checkpoint rot target must be 'nam' or 'pfs'")
        if self.kind is FaultKind.GRAY_FAILURE:
            if not (self.magnitude >= 1.0):
                raise ValueError("gray-failure inflation must be >= 1")
            if not (0.0 <= self.probability <= 1.0):
                raise ValueError("probe-answer probability must be in [0, 1]")
        if self.kind is FaultKind.NETWORK_PARTITION \
                and not (0.0 < self.probability < 1.0):
            raise ValueError("partition far-side fraction must be in (0, 1)")


class FaultPlanError(ValueError):
    """Raised for malformed fault-plan descriptions."""


def _count(clause: str, text: str) -> int:
    """The ``:count`` of a plan clause (1 when omitted), never negative."""
    count = int(text) if text.strip() else 1
    if count < 0:
        raise FaultPlanError(f"negative count in clause {clause!r}")
    return count


def partition_cut(seed: int, spec: FaultSpec, labels) -> frozenset:
    """The far side of a :data:`~FaultKind.NETWORK_PARTITION` bipartition.

    Each label (a node id, a ``(module, node)`` pair, a replica id …) is
    assigned a side by a stable hash of ``(seed, spec.time, label)`` —
    independent of iteration order, Python hash randomisation and how
    often the cut is recomputed.  Labels whose hash falls below
    ``spec.probability`` land on the far (unreachable) side; when two or
    more labels exist, both sides are kept non-empty so the cut is a real
    bipartition, never a total blackout or a no-op.
    """
    import hashlib

    labels = list(labels)

    def draw(label) -> float:
        digest = hashlib.blake2b(
            f"{seed}:{spec.time!r}:{label!r}".encode(),
            digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2.0 ** 64

    scored = sorted(((draw(lb), repr(lb), lb) for lb in labels))
    far = {lb for u, _, lb in scored if u < spec.probability}
    if len(labels) >= 2:
        if not far:
            far = {scored[0][2]}
        elif len(far) == len(labels):
            far.discard(scored[-1][2])
    return frozenset(far)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, fully deterministic list of faults plus its seed.

    All randomness is resolved when the plan is built; armed injectors and
    elastic trainers only *read* it, so a plan replays identically however
    many times it is used.
    """

    seed: int
    specs: tuple[FaultSpec, ...]

    def __iter__(self):
        return iter(self.specs)

    def of_kind(self, kind: FaultKind) -> tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs if s.kind is kind)

    def kills_at_step(self, step: int) -> tuple[int, ...]:
        """World ranks scheduled to die at training step ``step``."""
        return tuple(
            sorted(int(s.node) for s in self.specs
                   if s.kind is FaultKind.RANK_KILL and int(s.time) == step)
        )

    def gradient_corruptions_at_step(self, step: int) -> tuple[int, ...]:
        """World ranks whose gradient contribution rots at ``step``."""
        return tuple(
            sorted(int(s.node) for s in self.specs
                   if s.kind is FaultKind.BITFLIP_GRADIENT
                   and int(s.time) == step)
        )

    def checkpoint_rots_at_step(self, step: int) -> tuple[FaultSpec, ...]:
        """CHECKPOINT_ROT specs striking the snapshot written at ``step``."""
        return tuple(s for s in self.specs
                     if s.kind is FaultKind.CHECKPOINT_ROT
                     and int(s.time) == step)

    @property
    def message_bitflip_probability(self) -> float:
        """Per-message corruption probability (0 when the plan has none)."""
        flips = self.of_kind(FaultKind.BITFLIP_MESSAGE)
        return flips[0].magnitude if flips else 0.0

    @property
    def has_corruption(self) -> bool:
        """True when the plan carries any silent-data-corruption fault."""
        return any(s.kind in (FaultKind.BITFLIP_MESSAGE,
                              FaultKind.BITFLIP_GRADIENT,
                              FaultKind.CHECKPOINT_ROT)
                   for s in self.specs)

    # -- constructors -------------------------------------------------------
    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan: fault injection disabled, zero-cost."""
        return cls(seed=0, specs=())

    @classmethod
    def random(
        cls,
        seed: int,
        targets: dict[str, int],
        horizon_s: float = 3600.0,
        n_crashes: int = 0,
        n_stragglers: int = 0,
        n_degrades: int = 0,
        repair_s: float = 600.0,
        slowdown: float = 3.0,
    ) -> "FaultPlan":
        """A seeded random plan over ``targets`` (module key -> node count).

        Times are uniform over ``(0, horizon_s)``; crash/straggler nodes are
        uniform over each module's inventory.  The same (seed, arguments)
        always produce the same plan.
        """
        if not targets and (n_crashes or n_stragglers or n_degrades):
            raise FaultPlanError("node faults need at least one target module")
        rng = np.random.default_rng(seed)
        keys = sorted(targets)
        specs: list[FaultSpec] = []
        for _ in range(n_crashes):
            key = keys[int(rng.integers(len(keys)))]
            specs.append(FaultSpec(
                kind=FaultKind.NODE_CRASH,
                time=float(rng.uniform(0.0, horizon_s)),
                module=key,
                node=int(rng.integers(max(targets[key], 1))),
                duration=repair_s,
            ))
        for _ in range(n_stragglers):
            key = keys[int(rng.integers(len(keys)))]
            specs.append(FaultSpec(
                kind=FaultKind.STRAGGLER,
                time=float(rng.uniform(0.0, horizon_s)),
                module=key,
                node=int(rng.integers(max(targets[key], 1))),
                duration=repair_s,
                magnitude=max(1.0, float(rng.uniform(1.0, slowdown))),
            ))
        for _ in range(n_degrades):
            key = keys[int(rng.integers(len(keys)))]
            specs.append(FaultSpec(
                kind=FaultKind.LINK_DEGRADE,
                time=float(rng.uniform(0.0, horizon_s)),
                module=key,
                duration=repair_s,
                magnitude=max(1.0, float(rng.uniform(1.5, slowdown + 1.0))),
            ))
        specs.sort(key=lambda s: (s.time, s.kind.value, s.module, s.node))
        return cls(seed=seed, specs=tuple(specs))

    @classmethod
    def rank_kills(cls, seed: int, kills: dict[int, Iterable[int]]) -> "FaultPlan":
        """A plan killing training ranks: ``{step: [world ranks]}``."""
        specs = tuple(
            FaultSpec(kind=FaultKind.RANK_KILL, time=float(step), node=int(rank))
            for step in sorted(kills)
            for rank in sorted(kills[step])
        )
        return cls(seed=seed, specs=specs)

    @classmethod
    def silent_corruption(
        cls,
        seed: int,
        message_p: float = 0.0,
        gradient: Optional[dict[int, Iterable[int]]] = None,
        checkpoint_rot: Optional[Iterable[tuple[int, str]]] = None,
    ) -> "FaultPlan":
        """A plan of silent-data-corruption faults.

        * ``message_p`` — per-message bitflip probability on the fabric,
        * ``gradient`` — ``{step: [world ranks]}`` whose allreduce
          contribution rots at that step,
        * ``checkpoint_rot`` — ``(step, target)`` pairs: the snapshot
          written at ``step`` rots at rest on ``target`` ("nam"/"pfs",
          "" = the manager's preferred target).
        """
        specs: list[FaultSpec] = []
        if message_p > 0.0:
            specs.append(FaultSpec(kind=FaultKind.BITFLIP_MESSAGE, time=0.0,
                                   magnitude=message_p))
        for step in sorted(gradient or {}):
            for rank in sorted(gradient[step]):
                specs.append(FaultSpec(kind=FaultKind.BITFLIP_GRADIENT,
                                       time=float(step), node=int(rank)))
        for step, target in sorted(checkpoint_rot or ()):
            specs.append(FaultSpec(kind=FaultKind.CHECKPOINT_ROT,
                                   time=float(step), module=target))
        return cls(seed=seed, specs=tuple(specs))

    def merged(self, other: "FaultPlan") -> "FaultPlan":
        """This plan plus ``other``'s specs (this plan's seed wins)."""
        specs = list(self.specs) + list(other.specs)
        specs.sort(key=lambda s: (s.time, s.kind.value, s.module, s.node))
        return FaultPlan(seed=self.seed, specs=tuple(specs))

    @classmethod
    def parse(
        cls,
        text: str,
        targets: dict[str, int],
        horizon_s: float = 3600.0,
    ) -> "FaultPlan":
        """Parse a CLI-style plan description.

        Grammar (comma-separated ``key=value`` clauses):

        * ``seed=7``            — RNG seed for fault times/locations,
        * ``crash=cm:2``        — 2 node crashes on module ``cm``,
        * ``straggler=esb:1``   — 1 straggler on module ``esb``,
        * ``degrade=cm:1``      — 1 link-degradation window on ``cm``,
        * ``bitflip=0.01``      — 1% per-message silent-corruption probability,
        * ``horizon=3600``      — fault window in simulated seconds,
        * ``repair=600``        — node repair / fault window length (s),
        * ``chaos=partition:1,gray:2`` — 1 seeded network-bipartition
          window and 2 gray-failure episodes (``name:count`` terms after
          the ``chaos=`` clause continue it, so the comma form reads
          naturally on the command line).

        Example: ``--faults seed=7,crash=cm:2,chaos=partition:1,gray:1``.
        """
        seed = 0
        horizon = horizon_s
        repair = 600.0
        bitflip = 0.0
        counts: dict[FaultKind, list[tuple[str, int]]] = {
            FaultKind.NODE_CRASH: [], FaultKind.STRAGGLER: [],
            FaultKind.LINK_DEGRADE: [],
        }
        kind_names = {"crash": FaultKind.NODE_CRASH,
                      "straggler": FaultKind.STRAGGLER,
                      "degrade": FaultKind.LINK_DEGRADE}
        chaos_counts = {"partition": 0, "gray": 0}

        def add_chaos(term: str, clause: str) -> None:
            name, _, count = term.partition(":")
            name = name.strip().lower()
            if name not in chaos_counts:
                raise FaultPlanError(
                    f"unknown chaos fault {name!r} "
                    f"(choose from {sorted(chaos_counts)})")
            chaos_counts[name] += _count(clause, count)

        in_chaos = False
        for clause in filter(None, (c.strip() for c in text.split(","))):
            if "=" not in clause:
                # A bare name:count term continues a preceding chaos=
                # clause — the documented comma grammar
                # ``chaos=partition:1,gray:2`` splits into two tokens.
                if in_chaos and ":" in clause:
                    try:
                        add_chaos(clause, clause)
                    except ValueError as exc:
                        if isinstance(exc, FaultPlanError):
                            raise
                        raise FaultPlanError(
                            f"malformed value in clause {clause!r}") from exc
                    continue
                raise FaultPlanError(f"expected key=value, got {clause!r}")
            key, _, value = clause.partition("=")
            key = key.strip().lower()
            value = value.strip()
            in_chaos = False
            in_range = True
            try:
                if key == "seed":
                    seed = int(value)
                    in_range = seed >= 0
                elif key == "horizon":
                    horizon = float(value)
                    in_range = math.isfinite(horizon) and horizon > 0
                elif key == "repair":
                    repair = float(value)
                    in_range = math.isfinite(repair) and repair >= 0
                elif key == "bitflip":
                    bitflip = float(value)
                    in_range = 0.0 <= bitflip <= 1.0
                elif key == "chaos":
                    add_chaos(value, clause)
                    in_chaos = True
                elif key in kind_names:
                    module, _, count = value.partition(":")
                    counts[kind_names[key]].append(
                        (module, _count(clause, count)))
                else:
                    raise FaultPlanError(f"unknown fault clause {key!r}")
            except ValueError as exc:
                if isinstance(exc, FaultPlanError):
                    raise
                raise FaultPlanError(
                    f"malformed value in clause {clause!r}") from exc
            if not in_range:
                raise FaultPlanError(f"value out of range in clause {clause!r}")
        for entries in counts.values():
            for module, _ in entries:
                if module not in targets:
                    raise FaultPlanError(
                        f"unknown module {module!r}; known: {sorted(targets)}")
        # Build with the module restriction each clause names: generate one
        # sub-plan per clause so module choices are honoured exactly.
        rng = np.random.default_rng(seed)
        specs: list[FaultSpec] = []
        for kind, entries in counts.items():
            for module, count in entries:
                n_nodes = targets[module]
                for _ in range(count):
                    t = float(rng.uniform(0.0, horizon))
                    if kind is FaultKind.NODE_CRASH:
                        specs.append(FaultSpec(
                            kind=kind, time=t, module=module,
                            node=int(rng.integers(max(n_nodes, 1))),
                            duration=repair))
                    elif kind is FaultKind.STRAGGLER:
                        specs.append(FaultSpec(
                            kind=kind, time=t, module=module,
                            node=int(rng.integers(max(n_nodes, 1))),
                            duration=repair,
                            magnitude=max(1.0, float(rng.uniform(1.5, 4.0)))))
                    else:
                        specs.append(FaultSpec(
                            kind=kind, time=t, module=module, duration=repair,
                            magnitude=max(1.0, float(rng.uniform(1.5, 4.0)))))
        # Chaos windows start in the first half of the horizon, so every
        # one can heal before it ends.
        for _ in range(chaos_counts["partition"]):
            specs.append(FaultSpec(
                kind=FaultKind.NETWORK_PARTITION,
                time=float(rng.uniform(0.0, horizon * 0.5)),
                duration=repair,
                probability=float(rng.uniform(0.25, 0.5))))
        keys = sorted(targets)
        for _ in range(chaos_counts["gray"]):
            key = keys[int(rng.integers(len(keys)))] if keys else ""
            specs.append(FaultSpec(
                kind=FaultKind.GRAY_FAILURE,
                time=float(rng.uniform(0.0, horizon * 0.5)),
                module=key,
                node=int(rng.integers(max(targets.get(key, 1), 1))),
                duration=repair,
                magnitude=float(rng.uniform(2.0, 6.0)),
                probability=float(rng.uniform(0.3, 0.8))))
        if bitflip > 0.0:
            specs.append(FaultSpec(kind=FaultKind.BITFLIP_MESSAGE, time=0.0,
                                   duration=horizon, magnitude=bitflip))
        specs.sort(key=lambda s: (s.time, s.kind.value, s.module, s.node))
        return cls(seed=seed, specs=tuple(specs))


class FaultInjector:
    """Schedules a plan's faults as events on a simulator.

    Consumers register handlers per fault kind *before* arming; when a
    spec's time arrives the handler runs inside the simulation event loop,
    exactly like a job arrival or phase completion.  :data:`DATA_FAULTS`
    are not clock events (training steps, per-message draws) and are
    skipped at arm time — the elastic trainer, the integrity layer and the
    checkpoint manager consume them instead.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.injected: list[tuple[float, FaultSpec]] = []
        self._handlers: dict[FaultKind, list[Callable[[FaultSpec], None]]] = {}
        self._armed = False

    def on(self, kind: FaultKind, handler: Callable[[FaultSpec], None]) -> None:
        self._handlers.setdefault(kind, []).append(handler)

    def require_handlers(self, plane: str) -> None:
        """Reject a plan whose clock-driven faults ``plane`` would ignore.

        A consumer calls this after registering its handlers and before
        :meth:`arm`: a fault that fires (and is counted) without anything
        reacting to it is a silently wrong drill, so it is a config error.
        """
        unhandled = sorted({spec.kind.value for spec in self.plan
                            if spec.kind not in DATA_FAULTS
                            and spec.kind not in self._handlers})
        if unhandled:
            raise FaultPlanError(
                f"{plane} does not handle {', '.join(unhandled)} faults "
                f"(it handles: "
                f"{', '.join(sorted(k.value for k in self._handlers))})")

    def arm(self, sim: Simulator) -> int:
        """Schedule every clock-driven fault on ``sim``; returns the count."""
        if self._armed:
            raise RuntimeError("injector already armed")
        self._armed = True
        n = 0
        for spec in self.plan:
            if spec.kind in DATA_FAULTS:
                continue
            evt = sim.timeout(spec.time, value=spec,
                              name=f"fault-{spec.kind.value}")
            evt.add_callback(self._fire)
            n += 1
        return n

    def _fire(self, evt: Event) -> None:
        spec: FaultSpec = evt.value
        self.injected.append((evt.time, spec))
        from repro import telemetry

        telemetry.get_tracer().instant(
            spec.kind.value, "fault", evt.time, track="faults",
            lane="injector", module=spec.module, node=spec.node,
            fault_duration_s=spec.duration, magnitude=spec.magnitude)
        telemetry.get_registry().counter(
            "faults_injected_total", kind=spec.kind.value).inc()
        for handler in self._handlers.get(spec.kind, ()):
            handler(spec)
