"""Horovod-style data-parallel training over the simulated MPI.

Implements the API surface the paper's case studies use:

* :func:`broadcast_parameters` — rank 0's initial weights to all ranks,
* :class:`DistributedOptimizer` — wraps a local optimiser; before each
  ``step`` it averages gradients across ranks with a **fused-buffer ring
  allreduce** (Horovod's tensor fusion + ring algorithm), optionally
  compressed to fp16 on the wire.

Data-parallel semantics reproduced exactly: every rank holds a model
replica, consumes a disjoint shard (see
:class:`~repro.ml.data.DistributedDataLoader`), and sees identical weights
after every step — an invariant the test suite asserts bitwise (up to
compression tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro import telemetry
from repro.mpi.comm import Communicator
from repro.mpi import collectives
from repro.ml.layers import Module, Parameter
from repro.ml.optim import Optimizer
from repro.distributed.compression import NoCompression


def broadcast_parameters(model: Module, comm: Communicator) -> None:
    """Synchronise all replicas with rank 0's weights and buffers."""
    state = model.state_dict() if comm.rank == 0 else None
    state = comm.bcast(state)
    if comm.rank != 0:
        model.load_state_dict(state)


def _flatten_grads(params: Sequence[Parameter]) -> np.ndarray:
    """Fuse all gradients into one buffer (Horovod tensor fusion)."""
    chunks = []
    for p in params:
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        chunks.append(np.asarray(g, dtype=np.float64).ravel())
    return np.concatenate(chunks)


def _unflatten_into_grads(params: Sequence[Parameter], buf: np.ndarray) -> None:
    offset = 0
    for p in params:
        n = p.size
        p.grad = buf[offset:offset + n].reshape(p.data.shape).copy()
        offset += n


class DistributedOptimizer:
    """Wrap a local optimiser with allreduce gradient averaging.

    >>> opt = SGD(model.parameters(), lr=0.1)
    >>> opt = DistributedOptimizer(opt, comm)
    >>> loss.backward(); opt.step()   # gradients averaged across ranks
    """

    def __init__(
        self,
        optimizer: Optimizer,
        comm: Communicator,
        compression=None,
        average: bool = True,
        injector: Any = None,
        integrity_config: Any = None,
    ) -> None:
        self.optimizer = optimizer
        self.comm = comm
        self.compression = compression or NoCompression()
        self.average = average
        #: Silent-corruption machinery: a
        #: :class:`~repro.resilience.integrity.CorruptionInjector` plus an
        #: :class:`~repro.resilience.integrity.IntegrityConfig` switch the
        #: gradient path to the ABFT-verified allreduce (raising
        #: :class:`~repro.resilience.integrity.GradientCorruptionError`
        #: with the offending world ranks on detection).  ``current_step``
        #: tells the injector which step's faults apply.
        self.injector = injector
        self.integrity_config = integrity_config
        self.current_step = 0
        #: Traffic accounting for the scaling experiments.
        self.bytes_communicated = 0
        self.allreduce_calls = 0
        #: Fusion-buffer accounting for the perf-regression harness:
        #: fresh fused-buffer allocations vs pooled reuses per synchronize.
        self.fusion_allocs = 0
        self.fusion_reuses = 0
        self._fused_buf: Optional[np.ndarray] = None
        self._grad_pool: Optional[list[np.ndarray]] = None

    def _fuse_grads(self) -> np.ndarray:
        """Fill the pooled fusion buffer with the current gradients.

        The buffer is allocated once (and again only if the parameter set
        changes size); later steps reuse it through casting slice
        assignment, which is bit-identical to fusing via
        ``np.concatenate`` of per-parameter float64 casts.
        """
        params = self.params
        sizes = [p.size for p in params]
        total = sum(sizes)
        buf = self._fused_buf
        if buf is None or buf.size != total:
            buf = self._fused_buf = np.empty(total, dtype=np.float64)
            self._grad_pool = None
            self.fusion_allocs += 1
        else:
            self.fusion_reuses += 1
        offset = 0
        for p, n in zip(params, sizes):
            g = p.grad
            if g is None:
                buf[offset:offset + n] = 0.0
            else:
                buf[offset:offset + n] = np.asarray(g).reshape(-1)
            offset += n
        return buf

    def _scatter_grads(self, buf: np.ndarray) -> None:
        """Pooled counterpart of :func:`_unflatten_into_grads`: each
        parameter's gradient array is allocated once and refilled in
        place on every step."""
        params = self.params
        pool = self._grad_pool
        if pool is None or len(pool) != len(params):
            pool = self._grad_pool = [
                np.empty(p.data.shape, dtype=np.float64) for p in params]
        offset = 0
        for p, out in zip(params, pool):
            n = p.size
            out[...] = buf[offset:offset + n].reshape(p.data.shape)
            p.grad = out
            offset += n

    @property
    def params(self) -> list[Parameter]:
        return self.optimizer.params

    def zero_grad(self) -> None:
        self.optimizer.zero_grad()

    def synchronize(self) -> None:
        """Fused-buffer allreduce of gradients (SUM, then divide).

        With integrity machinery attached the reduction runs through the
        ABFT-verified path instead (uncompressed — the checksum invariant
        is over the exact float64 contributions).
        """
        if self.comm.size == 1:
            return
        tracer = telemetry.get_tracer()
        start = self.comm.sim_time if tracer.enabled else 0.0
        fused = self._fuse_grads()
        if self.integrity_config is not None or self.injector is not None:
            from repro.resilience.integrity import (IntegrityConfig,
                                                    verified_grad_allreduce)

            reduced = verified_grad_allreduce(
                self.comm, fused, self.injector, self.current_step,
                self.integrity_config or IntegrityConfig())
        else:
            wire = self.compression.compress(fused)
            if wire.size >= self.comm.size:
                tag = self.comm._next_coll_tag()
                collectives.ring_allreduce_inplace(self.comm, wire, tag)
                reduced = self.compression.decompress(wire)
            else:
                reduced = self.compression.decompress(
                    self.comm.allreduce(wire)
                )
        if self.average:
            # In place: ``reduced`` is either the pooled fusion buffer or
            # a collective-local array, never caller-owned memory.
            np.divide(reduced, self.comm.size, out=reduced)
        nbytes = self.compression.wire_bytes(fused)
        self.bytes_communicated += nbytes
        self.allreduce_calls += 1
        if tracer.enabled:
            tracer.record("grad-allreduce", "comm", start,
                          self.comm.sim_time - start, track="train",
                          lane=self.comm._lane(), nbytes=nbytes)
            telemetry.get_registry().counter(
                "collective_bytes", op="grad-allreduce").inc(nbytes)
        self._scatter_grads(reduced)

    def step(self) -> None:
        self.synchronize()
        self.optimizer.step()

# ---------------------------------------------------------------------------
# Elastic training: ring rebuild on rank loss + checkpoint-restart.
# ---------------------------------------------------------------------------

def global_batch_indices(
    n_samples: int, batch_size: int, step: int, seed: int
) -> np.ndarray:
    """The global batch for ``step`` — identical on every rank and for
    every world size.

    Seeding the generator with ``[seed, step]`` makes the sample draw a
    pure function of the step, so a rank that rolls back to a checkpoint
    replays exactly the batches the lost steps consumed, and a world of 4
    survivors sees the same batch a world of 8 would have.
    """
    if not 0 < batch_size <= n_samples:
        raise ValueError("need 0 < batch_size <= n_samples")
    rng = np.random.default_rng([seed, step])
    return rng.choice(n_samples, size=batch_size, replace=False)


@dataclass(frozen=True)
class ElasticRecovery:
    """One survived failure: who died, and where training resumed."""

    failed_step: int                 #: global step the kill struck at
    dead_world_ranks: tuple[int, ...]
    restored_step: int               #: checkpoint step training resumed from
    restored_from: str               #: "nam" | "pfs"
    world_size_after: int
    reason: str = "rank-kill"        #: "rank-kill" | "gradient-corruption"
    rollback_versions: int = 0       #: lineage versions skipped on restore


@dataclass
class ElasticRunResult:
    """Outcome of :func:`run_elastic_training` (from a surviving rank)."""

    losses: list[float]
    recoveries: list[ElasticRecovery]
    final_state: dict[str, np.ndarray]
    final_world_size: int
    checkpoint_steps: list[int] = field(default_factory=list)
    #: End-of-run at-rest verification summary ({"checked", "corrupt"}).
    scrub: dict = field(default_factory=dict)


#: SGD learning rate of :func:`run_elastic_training`.
ELASTIC_LR = 0.05


def run_elastic_training(
    model_factory: Callable[[], Module],
    X: np.ndarray,
    Y: np.ndarray,
    n_steps: int,
    batch_size: int,
    world_size: int,
    *,
    checkpoint_manager: Any,
    checkpoint_policy: Any,
    seed: int = 0,
    fault_plan: Any = None,
    name: str = "elastic",
    integrity_config: Any = None,
    max_rollback: Optional[int] = None,
    on_quarantine: Optional[Callable[[tuple[int, ...]], None]] = None,
) -> ElasticRunResult:
    """Data-parallel training that survives rank loss.

    The elastic loop the MSA's resilience story needs on top of the plain
    Horovod recipe: when a :class:`~repro.resilience.faults.FaultPlan`
    kills ranks at a step, every member of the current ring collectively
    shrinks the communicator (ULFM-style — dead ranks leave, survivors
    renumber), the new rank 0 restores the latest checkpoint — NAM first,
    PFS fallback, per the
    :class:`~repro.resilience.policy.CheckpointPolicy` — broadcasts it,
    and training resumes from the restored step.

    Loss-trajectory invariance: each step consumes a *global* batch drawn
    deterministically from ``(seed, step)`` (see
    :func:`global_batch_indices`), sharded round-robin over the live
    ranks.  Local losses are scaled by ``n_local / batch_size`` and
    gradients summed (``average=False``), so the update equals the full
    global-batch gradient for any world size: a run that loses half its
    ranks mid-way reproduces the unfailed run's loss curve to floating-
    point tolerance.

    Returns the surviving ranks' (identical) result.  The loss is
    cross-entropy and the local optimiser plain SGD at :data:`ELASTIC_LR`
    without momentum, so model weights are the complete training state and
    checkpoint-restart is exact.

    Silent corruption: an
    :class:`~repro.resilience.integrity.IntegrityContext` (``integrity_config``,
    or the default :class:`~repro.resilience.integrity.IntegrityConfig`)
    is installed on every communicator (checksummed message envelopes)
    and gradient reduction goes through the ABFT-verified allreduce,
    whether or not the fault plan carries corruption specs.  A detected
    corrupted contribution is handled exactly like a killed rank — the
    offender is reported to ``on_quarantine`` (e.g. the scheduler's
    suspect-node machinery), the ring shrinks, and survivors roll back to
    the newest *verified* checkpoint of the lineage (NAM→PFS within each
    version, bounded by ``max_rollback``).  CHECKPOINT_ROT specs strike
    stored versions at their step; an end-of-run scrub verifies whatever
    was never restored, so every injected corruption is accounted for.
    """
    from repro.ml.optim import SGD
    from repro.ml.tensor import Tensor
    from repro.ml.losses import cross_entropy
    from repro.mpi.runtime import run_spmd
    from repro.resilience.integrity import (
        CorruptionInjector,
        GradientCorruptionError,
        IntegrityConfig,
        IntegrityContext,
    )

    if world_size < 1:
        raise ValueError("world_size must be >= 1")
    if batch_size < world_size:
        raise ValueError("batch_size must be >= world_size so every rank "
                         "holds a shard")
    n_samples = len(X)

    injector = None
    if fault_plan is not None and getattr(fault_plan, "has_corruption", False):
        injector = CorruptionInjector(fault_plan)
    integrity_config = integrity_config or IntegrityConfig()
    integrity_ctx = IntegrityContext(injector, config=integrity_config)

    #: CHECKPOINT_ROT specs already applied, shared by whichever thread is
    #: rank 0 when a step is first reached (ring transitions order access).
    consumed_rots: set[tuple[int, int]] = set()

    def _rank_main(comm: Communicator) -> Optional[dict]:
        tracer = telemetry.get_tracer()
        model = model_factory()
        broadcast_parameters(model, comm)
        active = comm
        opt = DistributedOptimizer(
            SGD(model.parameters(), lr=ELASTIC_LR), active, average=False,
            injector=injector, integrity_config=integrity_config)
        losses: list[float] = []
        recoveries: list[ElasticRecovery] = []
        ckpt_steps: set[int] = set()
        consumed_kills: set[int] = set()
        step = 0

        def _save_checkpoint(step: int) -> None:
            t_write = checkpoint_manager.save(
                name, step=step, state=model.state_dict(),
                replicate=checkpoint_policy.replicate)
            tracer.record("checkpoint-save", "storage", active.sim_time,
                          t_write, track="storage", lane="checkpoint",
                          step=step,
                          replicate=checkpoint_policy.replicate)

        def _apply_checkpoint_rot() -> None:
            """Rank 0 strikes stored versions with this step's rot specs."""
            if fault_plan is None or active.rank != 0:
                return
            for i, spec in enumerate(
                    fault_plan.checkpoint_rots_at_step(step)):
                key = (step, i)
                if key in consumed_rots:
                    continue
                consumed_rots.add(key)
                target = spec.module or "nam"
                if not checkpoint_manager.exists(name, target=target):
                    continue
                checkpoint_manager.corrupt(name, target=target)
                tracer.instant(
                    "checkpoint-rot", "fault", active.sim_time,
                    track="faults", lane="corruption", step=step,
                    target=target)

        def _recover(dead: set, reason: str) -> bool:
            """Shrink away ``dead`` world ranks, roll back to the newest
            verified checkpoint; returns False if *this* rank left."""
            nonlocal active, opt, step
            if active.rank == 0:
                tracer.instant(
                    reason, "fault", active.sim_time, track="faults",
                    lane="rank-kills" if reason == "rank-kill"
                    else "corruption", step=step,
                    ranks=",".join(str(r) for r in sorted(dead)))
            dead_local = [i for i, w in enumerate(active.group) if w in dead]
            if len(dead_local) >= active.size:
                raise RuntimeError(
                    f"fault plan kills all {active.size} live ranks "
                    f"at step {step}")
            shrunk = active.shrink(dead_local)
            if shrunk is None:
                return False         # this rank died here
            active = shrunk
            if active.rank == 0:
                restored = checkpoint_manager.restore_latest_verified(
                    name, checkpoint_policy, max_rollback=max_rollback)
                tracer.record(
                    "checkpoint-restore", "storage", active.sim_time,
                    restored.read_time_s, track="storage",
                    lane="checkpoint", step=restored.step,
                    target=restored.target,
                    rollback=restored.rollback_versions)
                payload = (restored.state, restored.step,
                           restored.target, restored.rollback_versions)
            else:
                payload = None
            state, ck_step, target, depth = active.bcast(payload)
            model.load_state_dict(state)
            del losses[ck_step:]
            if active.rank == 0:
                tracer.instant(
                    "recovered", "fault", active.sim_time,
                    track="faults", lane="rank-kills",
                    restored_step=ck_step, restored_from=target,
                    world_size=active.size)
            recoveries.append(ElasticRecovery(
                failed_step=step,
                dead_world_ranks=tuple(sorted(dead)),
                restored_step=ck_step,
                restored_from=target,
                world_size_after=active.size,
                reason=reason,
                rollback_versions=depth,
            ))
            step = ck_step
            opt = DistributedOptimizer(
                SGD(model.parameters(), lr=ELASTIC_LR), active, average=False,
                injector=injector, integrity_config=integrity_config)
            return True

        if active.rank == 0:
            _save_checkpoint(0)
        ckpt_steps.add(0)

        while step < n_steps:
            kills = (fault_plan.kills_at_step(step)
                     if fault_plan is not None else ())
            if kills and step not in consumed_kills:
                consumed_kills.add(step)
                dead = set(kills)
                if any(w in dead for w in active.group):
                    if not _recover(dead, "rank-kill"):
                        return None
                continue

            _apply_checkpoint_rot()
            try:
                with tracer.span("step", "train", lambda: active.sim_time,
                                 lane=active._lane(), step=step):
                    idx = global_batch_indices(n_samples, batch_size, step,
                                               seed)
                    shard = idx[active.rank::active.size]
                    logits = model(Tensor(X[shard]))
                    local = cross_entropy(logits, Y[shard])
                    # Scale so the allreduce SUM equals the global-batch
                    # mean.
                    scaled = local * (len(shard) / batch_size)
                    opt.zero_grad()
                    scaled.backward()
                    opt.current_step = step
                    opt.step()
                    losses.append(float(
                        active.allreduce(scaled.item())))
            except GradientCorruptionError as exc:
                # Every rank of the ring raises with the same offender set
                # (the ABFT audit is collective), so recovery is agreed.
                if active.rank == 0 and on_quarantine is not None:
                    on_quarantine(exc.world_ranks)
                if not _recover(set(exc.world_ranks), "gradient-corruption"):
                    return None
                continue
            telemetry.get_registry().counter("train_steps_total").inc()
            step += 1
            if checkpoint_policy.should_checkpoint(step):
                if active.rank == 0:
                    _save_checkpoint(step)
                ckpt_steps.add(step)

        scrub = {}
        if active.rank == 0:
            # At-rest verification: rot on versions that were never
            # restored still gets *detected* here, closing the books.
            scrub = checkpoint_manager.scrub(name)
        return {
            "losses": losses,
            "recoveries": recoveries,
            "state": model.state_dict(),
            "world_size": active.size,
            "ckpt_steps": sorted(ckpt_steps),
            "scrub": scrub,
        }

    results = run_spmd(_rank_main, world_size, integrity=integrity_ctx)
    survivor = next(r for r in results if r is not None)
    return ElasticRunResult(
        losses=survivor["losses"],
        recoveries=survivor["recoveries"],
        final_state=survivor["state"],
        final_world_size=survivor["world_size"],
        checkpoint_steps=survivor["ckpt_steps"],
        scrub=next((r["scrub"] for r in results
                    if r is not None and r["scrub"]), {}),
    )
