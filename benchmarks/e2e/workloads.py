"""The seven benchmark workloads, driven through the public API only.

Each workload is three steps the harness times separately:

* ``setup(seed, scale)`` — everything built once before the first pass
  (datasets, payloads); together with the imports it is ``setup_s``;
* ``prepare(ctx, pass_seed)`` — the inputs of one pass (a fresh system,
  job list, model, checkpoint store …), built outside the timed region;
* ``run(ctx, inputs, detail)`` — the timed pass.  It returns an
  :class:`Outcome`: the op count, failed ops, per-op host times where ops
  are host-visible calls, the sim-clock metrics, the counters a layer
  exposes without tracing, and a digest of the functional output.

Why each of the seven exists is its class docstring (``BENCHMARK.json``
repeats it).  ``scale`` shrinks every size for ``--quick``.

Simulation workloads (``serve_*``, ``sched_backlog``) derive a fresh
input per pass from ``(seed, pass index)``: their host cost per op
depends on the drawn scenario (how much is shed, how deep the backlog
gets), so one run reports the median over several scenarios instead of
one scenario many times.  The warm-up pass and the first timed pass
share pass index 0, which is what the determinism gate compares.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import tracing
from repro.core.jobs import synthetic_workload_mix
from repro.core.presets import deep_system, juwels_system, small_msa_system
from repro.core.scheduler import MsaScheduler
from repro.datasets import (BigEarthNetConfig, IcuCohort, IcuConfig,
                            SyntheticBigEarthNet, make_imputation_windows)
from repro.distributed import horovod
from repro.ml import (Adam, ArrayDataset, DataLoader, DistributedDataLoader,
                      Tensor, engine, losses)
from repro.ml.models import MLP, GruForecaster, resnet_small
from repro.mpi import runtime as mpi_runtime
from repro.resilience.faults import (FaultInjector, FaultKind, FaultPlan,
                                     FaultSpec)
from repro.resilience.integrity import (CorruptionInjector, IntegrityConfig,
                                        IntegrityContext)
from repro.resilience.policy import CheckpointPolicy
from repro.serving import (ArrivalPattern, AutoscalerConfig, DefenseConfig,
                           ServingConfig, ServingEngine, TraceConfig)
from repro.storage.checkpoint import CheckpointManager
from repro.storage.nam import NetworkAttachedMemory
from repro.storage.pfs import ParallelFileSystem


@dataclass
class Outcome:
    """What one pass did."""

    ops: int
    failed: int = 0
    #: Host seconds per op, keyed ``"op"`` (and per model on ``train_*``);
    #: empty where ops are not host-visible calls (simulation workloads).
    op_times: dict[str, list[float]] = field(default_factory=dict)
    #: Sim-clock results; must repeat exactly for one pass seed.
    sim: dict[str, float] = field(default_factory=dict)
    #: Layer counters readable from public report objects.
    counts: dict[str, float] = field(default_factory=dict)
    #: Digest of the functional output (reports, loss trajectory, weights).
    digest: str = ""
    #: Invariants of this pass; every value must be true.
    checks: dict[str, bool] = field(default_factory=dict)


def _digest(*chunks: bytes) -> str:
    h = hashlib.blake2b(digest_size=16)
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _scaled(n: float, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(n * scale)))


class Workload:
    name = ""
    #: What one op is (the unit of ``ops_per_s``).
    op = ""
    #: True when each pass draws its own scenario from (seed, pass index).
    seeded_passes = False
    #: Root spans whose thread carries the layer breakdown, in preference
    #: order: rank 0's thread on SPMD workloads, else the main thread.
    roots: tuple[str, ...] = ("pass",)

    def setup(self, seed: int, scale: float) -> Any:
        raise NotImplementedError

    def prepare(self, ctx: Any, pass_seed: int) -> Any:
        raise NotImplementedError

    def run(self, ctx: Any, inputs: Any, detail: bool = False) -> Outcome:
        raise NotImplementedError

    def run_checks(self, outcomes: list[Outcome]) -> dict[str, bool]:
        """Invariants over all passes of one run (beyond per-pass ones)."""
        return {}


# ---------------------------------------------------------------------------
# serving
# ---------------------------------------------------------------------------

def _serving_outcome(eng: ServingEngine, report, injector) -> Outcome:
    m = report.metrics
    hedges = m.hedges_issued
    sim = {
        "sim_p99_ms": m.p99 * 1e3,
        # Refused requests are offered and not on time: they miss the SLO.
        "sim_slo_attain": m.on_time / m.offered,
        "sim_dup_work": report.duplicate_work_ratio,
    }
    counts = {
        "simnet.events": eng.sim.events_processed,
        "serving.batches": m.batches,
        "serving.mean_batch_size": m.mean_batch_size,
        "serving.cache_hit_rate": report.cache_hit_rate,
        "serving.hedges_issued": hedges,
        "serving.hedge_win_ratio":
            m.hedges_backup_won / hedges if hedges else 0.0,
        "serving.breaker_transitions": report.breaker_transitions,
        "serving.brownout_transitions": len(report.brownout_path),
        "serving.refused": m.offered - m.admitted,
        "serving.failovers": len(report.failover_events),
        "serving.held_responses": report.held_responses,
        "resilience.faults_fired":
            len(injector.injected) if injector is not None else 0,
    }
    return Outcome(
        ops=m.offered,
        failed=m.admitted - m.completed,
        sim=sim, counts=counts,
        digest=_digest(report.to_text().encode()),
        checks={"admitted_equals_completed": m.admitted == m.completed,
                "conservation": m.offered == m.admitted + m.rate_limited
                + m.shed},
    )


class ServeSteady(Workload):
    """Poisson traffic on JUWELS with cache and autoscaler, defenses off:
    the serving dispatch core and the simnet event loop do all the work;
    ml and mpi never run."""

    name = "serve_steady"
    op = "offered request"
    seeded_passes = True

    def setup(self, seed, scale):
        return {"duration_s": 100.0 * scale}

    def prepare(self, ctx, pass_seed):
        config = ServingConfig(
            trace=TraceConfig(rate_per_s=400.0, duration_s=ctx["duration_s"],
                              seed=pass_seed, key_universe=4096),
            cache_capacity=512,
            initial_replicas=2,
            autoscaler=AutoscalerConfig(min_replicas=2, max_replicas=16),
            defense=DefenseConfig(enabled=False),
        )
        return config, juwels_system()

    def run(self, ctx, inputs, detail=False):
        config, system = inputs
        eng = ServingEngine(config, system=system)
        out = _serving_outcome(eng, eng.run(), None)
        c = out.counts
        out.checks["defenses_idle"] = not (
            c["serving.hedges_issued"] or c["serving.breaker_transitions"]
            or c["serving.brownout_transitions"] or c["serving.refused"]
            or c["serving.failovers"] or c["serving.held_responses"])
        return out


class ServeChaos(Workload):
    """Bursty traffic on two pinned replicas with a gray failure, a
    partition and a crash, defenses on: the same serving layer with
    hedging, breakers, brownout, shedding and failover firing."""

    name = "serve_chaos"
    op = "offered request"
    seeded_passes = True

    def setup(self, seed, scale):
        return {"duration_s": 150.0 * scale}

    def prepare(self, ctx, pass_seed):
        d = ctx["duration_s"]
        plan = FaultPlan(seed=pass_seed, specs=(
            FaultSpec(kind=FaultKind.GRAY_FAILURE, time=d * 0.15,
                      module="esb", node=0, duration=d * 0.35,
                      magnitude=8.0, probability=0.6),
            FaultSpec(kind=FaultKind.NETWORK_PARTITION, time=d * 0.55,
                      duration=d * 0.12, probability=0.4),
            FaultSpec(kind=FaultKind.NODE_CRASH, time=d * 0.75,
                      module="esb", node=1, duration=d * 0.2),
        ))
        config = ServingConfig(
            # Burst and gap lengths are the 5 s / 15 s defaults scaled by
            # the same 1/4 as the 600 s reference horizon, so a pass still
            # sees ~30 on/off cycles and seeds differ in detail, not in
            # how many bursts they happened to draw.
            trace=TraceConfig(pattern=ArrivalPattern.BURSTY, rate_per_s=200.0,
                              duration_s=d, seed=pass_seed,
                              samples_per_request=32, bronze_fraction=0.25,
                              burst_len_s=1.25, gap_len_s=3.75),
            initial_replicas=2,
            cache_capacity=64,
            autoscaler=AutoscalerConfig(enabled=False),
            defense=DefenseConfig(enabled=True),
        )
        return config, small_msa_system(), FaultInjector(plan)

    def run(self, ctx, inputs, detail=False):
        config, system, injector = inputs
        eng = ServingEngine(config, system=system, fault_injector=injector)
        report = eng.run()
        out = _serving_outcome(eng, report, injector)
        out.checks["chaos_delivered"] = (
            report.gray_episodes > 0 and report.partition_windows > 0
            and len(report.failover_events) > 0)
        return out

    def run_checks(self, outcomes):
        # Over a run, not per pass: one drawn scenario may legitimately
        # never hedge, but a run in which a defense never engages means
        # the workload no longer exercises it.
        return {f"{counter}_engaged":
                sum(o.counts[f"serving.{counter}"] for o in outcomes) > 0
                for counter in ("hedges_issued", "breaker_transitions",
                                "brownout_transitions", "refused")}


# ---------------------------------------------------------------------------
# batch scheduling
# ---------------------------------------------------------------------------

class SchedBacklog(Workload):
    """A burst of mixed jobs on DEEP with six node crashes:
    core.scheduler does all the work, re-scoring a backlog that drains
    from 100 jobs to none, with requeues; serving, ml and mpi idle."""

    name = "sched_backlog"
    # A job has one to three phases and each is placed separately, so
    # placements per second is steadier across job mixes than jobs per
    # second (seed-to-seed spread 15 % against 25 %).
    op = "job phase placed"
    seeded_passes = True

    def setup(self, seed, scale):
        # Host cost is super-linear in backlog depth.  Submitting the
        # whole burst within ~100 sim-s makes every scenario drain the
        # same depth, and many 100-job scenarios per run average the
        # remaining mix-to-mix swing better than a few large ones.
        return {"n_jobs": _scaled(100, scale, floor=20),
                "interarrival_s": 1.0, "fault_horizon_s": 36000.0}

    def prepare(self, ctx, pass_seed):
        system = deep_system()
        targets = {key: mod.n_nodes
                   for key, mod in system.compute_modules().items()}
        jobs = synthetic_workload_mix(
            ctx["n_jobs"], pass_seed,
            mean_interarrival_s=ctx["interarrival_s"])
        plan = FaultPlan.random(pass_seed, targets,
                                horizon_s=ctx["fault_horizon_s"],
                                n_crashes=6, repair_s=1200.0)
        return system, jobs, FaultInjector(plan)

    def run(self, ctx, inputs, detail=False):
        system, jobs, injector = inputs
        sched = MsaScheduler(system, fault_injector=injector)
        sched.submit_all(jobs)
        report = sched.run()
        terminal = (len(report.job_status) == len(jobs)
                    and all(s.terminal for s in report.job_status.values()))
        return Outcome(
            ops=len(report.allocations),
            failed=len(report.failed_jobs),
            sim={"sim_makespan_s": report.makespan,
                 "sim_energy_kwh": report.energy_kwh},
            counts={
                "simnet.events": sched.sim.events_processed,
                "core.jobs": len(jobs),
                "core.allocations": len(report.allocations),
                "core.requeues": report.resilience.total_retries,
                "core.mean_wait_s": report.mean_wait,
                "resilience.faults_fired": len(injector.injected),
            },
            digest=_digest(report.summary().encode()),
            checks={"all_jobs_terminal": terminal},
        )


# ---------------------------------------------------------------------------
# single-process training
# ---------------------------------------------------------------------------

def _cycle(loader):
    """Batches forever, reshuffling per epoch."""
    epoch = 0
    while True:
        loader.set_epoch(epoch)
        epoch += 1
        yield from loader


def _earth_patches(seed: int):
    return SyntheticBigEarthNet(BigEarthNetConfig(
        n_samples=160, patch_size=8, n_classes=4, seed=seed)).generate()


class _Train(Workload):
    """Three models, one optimizer step each per op, on one engine mode."""

    op = "triple-step"
    mode = ""

    def setup(self, seed, scale):
        engine.set_engine(self.mode)
        engine.set_device("cpu")
        X, y = _earth_patches(seed)
        cohort = IcuCohort(IcuConfig(n_patients=30, seed=seed, min_hours=30,
                                     max_hours=60)).generate()
        Xi, yi, _ = make_imputation_windows(cohort, window=8,
                                            target_channel=1)
        rng = np.random.default_rng(seed)
        Xm = rng.normal(size=(640, 64))
        ym = rng.integers(0, 10, size=640)
        return {"seed": seed, "steps": _scaled(40, scale, floor=4),
                "earth": ArrayDataset(X, y), "icu": ArrayDataset(Xi, yi),
                "table": ArrayDataset(Xm, ym), "icu_channels": Xi.shape[2]}

    def prepare(self, ctx, pass_seed):
        seed = ctx["seed"]
        resnet = resnet_small(in_channels=12, n_classes=4, seed=seed)
        gru = GruForecaster(ctx["icu_channels"], hidden=32, seed=seed)
        mlp = MLP([64, 128, 128, 10], seed=seed)
        return {
            "resnet": (resnet, Adam(resnet.parameters(), lr=3e-3),
                       _cycle(DataLoader(ctx["earth"], 20, seed=seed,
                                         drop_last=True))),
            "gru": (gru, Adam(gru.parameters(), lr=5e-3),
                    _cycle(DataLoader(ctx["icu"], 64, seed=seed,
                                      drop_last=True))),
            "mlp": (mlp, Adam(mlp.parameters(), lr=1e-3),
                    _cycle(DataLoader(ctx["table"], 64, seed=seed,
                                      drop_last=True))),
        }

    @staticmethod
    def _step(name, model, opt, batches) -> float:
        xb, yb = next(batches)
        pred = model(Tensor(xb))
        if name == "gru":
            loss = losses.mae(pred, yb) + losses.l2_regularisation(
                model.regularised_parameters(), 1e-5)
        else:
            loss = losses.cross_entropy(pred, yb)
        opt.zero_grad()
        loss.backward()
        opt.step()
        return loss.item()

    def run(self, ctx, inputs, detail=False):
        if detail:
            with engine.collect() as stats:
                out = self._train(ctx, inputs)
            n = out.ops
            out.counts.update({
                "ml.engine.kernels_per_step": stats.kernels / n,
                "ml.engine.ops_per_kernel":
                    stats.fused_ops / stats.kernels if stats.kernels else 0.0,
                "ml.engine.allocs_per_step": stats.total_allocs / n,
                "ml.engine.alloc_bytes_per_step":
                    (stats.eager_alloc_bytes + stats.kernel_alloc_bytes) / n,
                "ml.engine.realizes_per_step": stats.realizes / n,
                "ml.engine.recomputes_per_step": stats.recomputes / n,
            })
            return out
        return self._train(ctx, inputs)

    def _train(self, ctx, inputs) -> Outcome:
        clock = time.perf_counter
        times: dict[str, list[float]] = {k: [] for k in ("op", *inputs)}
        trajectory: list[float] = []
        last: dict[str, float] = {}
        failed = 0
        for _ in range(ctx["steps"]):
            t_op = clock()
            ok = True
            for name, (model, opt, batches) in inputs.items():
                t0 = clock()
                value = self._step(name, model, opt, batches)
                times[name].append(clock() - t0)
                trajectory.append(value)
                last[name] = value
                ok = ok and math.isfinite(value)
            times["op"].append(clock() - t_op)
            failed += not ok
        return Outcome(
            ops=ctx["steps"], failed=failed, op_times=times,
            sim={"final_loss": sum(last.values())},
            digest=_digest(np.asarray(trajectory).tobytes()),
        )


class TrainEager(_Train):
    """ResNet-small, GRU forecaster and MLP steps on the eager engine: ml
    tensor, layers and optim do everything; the baseline a lazy-engine
    change must not slow."""

    name = "train_eager"
    mode = "eager"


class TrainLazy(_Train):
    """The identical three-model steps recorded, fused and executed by
    ml.engine: moves with engine changes while train_eager stays flat;
    its loss trajectory must equal eager's bit for bit."""

    name = "train_lazy"
    mode = "lazy"


# ---------------------------------------------------------------------------
# SPMD: data-parallel training and raw collectives
# ---------------------------------------------------------------------------

_CKPT = "dp2"
_CKPT_EVERY = 10


def _dp2_rank(comm, ctx, manager):
    return tracing.in_root(f"rank{comm.rank}", _dp2_steps, comm, ctx,
                           manager)


def _dp2_steps(comm, ctx, manager):
    seed = ctx["seed"]
    clock = time.perf_counter
    model = resnet_small(in_channels=12, n_classes=4, seed=seed)
    horovod.broadcast_parameters(model, comm)
    opt = horovod.DistributedOptimizer(
        Adam(model.parameters(), lr=3e-3), comm,
        integrity_config=IntegrityConfig())
    batches = _cycle(DistributedDataLoader(
        ctx["earth"], batch_size=20, rank=comm.rank,
        world_size=comm.size, seed=seed))
    step_losses, times = [], []
    saves = 0
    for step in range(1, ctx["steps"] + 1):
        t0 = clock()
        xb, yb = next(batches)
        loss = losses.cross_entropy(model(Tensor(xb)), yb)
        opt.zero_grad()
        loss.backward()
        opt.step()
        step_losses.append(loss.item())
        if comm.rank == 0 and step % _CKPT_EVERY == 0:
            manager.save(_CKPT, step=step, state=model.state_dict(),
                         replicate=True)
            saves += 1
        times.append(clock() - t0)
    restored = None
    if comm.rank == 0:
        restored = manager.restore_latest_verified(
            _CKPT, CheckpointPolicy(replicate=True))
    state = comm.state
    return {
        "losses": step_losses, "times": times, "saves": saves,
        "weights": [p.data for p in model.parameters()],
        "state": model.state_dict(), "restored": restored,
        "sim_time": comm.sim_time,
        "allreduce_calls": opt.allreduce_calls,
        "bytes_communicated": opt.bytes_communicated,
        "fusion_allocs": opt.fusion_allocs,
        "messages": state.messages_sent, "bytes": state.bytes_sent,
        "checksums": state.envelope_checksums,
        "fastpath": state.envelope_fastpath,
    }


def _mpi_counts(ranks: list[dict]) -> dict[str, float]:
    return {
        "mpi.messages": sum(r["messages"] for r in ranks),
        "mpi.bytes": sum(r["bytes"] for r in ranks),
        "mpi.envelope_checksums": sum(r["checksums"] for r in ranks),
        "mpi.envelope_fastpath": sum(r["fastpath"] for r in ranks),
    }


class TrainDp2(Workload):
    """The paper's Fig. 3 recipe on two ranks: ml compute, Horovod gradient
    fusion, ring allreduce with ABFT check, replicated checkpoint writes
    and a verified restore; compute dominates."""

    name = "train_dp2"
    op = "global step"
    roots = ("rank0",)

    def setup(self, seed, scale):
        steps = _scaled(40, scale, floor=_CKPT_EVERY)
        return {"seed": seed, "steps": steps - steps % _CKPT_EVERY,
                "earth": ArrayDataset(*_earth_patches(seed))}

    def prepare(self, ctx, pass_seed):
        return CheckpointManager(nam=NetworkAttachedMemory(capacity_GB=64),
                                 pfs=ParallelFileSystem("sssm"))

    def run(self, ctx, inputs, detail=False):
        ranks = mpi_runtime.run_spmd(
            _dp2_rank, 2, args=(ctx, inputs),
            integrity=IntegrityContext(config=IntegrityConfig()))
        r0 = ranks[0]
        restored = r0["restored"]
        n = ctx["steps"]
        failed = sum(not all(math.isfinite(r["losses"][i]) for r in ranks)
                     for i in range(n))
        weights = np.concatenate([w.ravel() for w in r0["weights"]])
        counts = _mpi_counts(ranks)
        counts.update({
            "distributed.allreduce_calls": r0["allreduce_calls"],
            "distributed.bytes_per_step": r0["bytes_communicated"] / n,
            "distributed.fusion_allocs": r0["fusion_allocs"],
            "storage.saves": r0["saves"],
            "storage.restores": 1,
        })
        return Outcome(
            ops=n, failed=failed, op_times={"op": r0["times"]},
            sim={"sim_comm_s": max(r["sim_time"] for r in ranks),
                 "final_loss": sum(r["losses"][-1] for r in ranks)
                 / len(ranks)},
            counts=counts,
            digest=_digest(weights.tobytes(),
                           np.asarray(r0["losses"]).tobytes()),
            checks={
                "ranks_weights_bitwise_equal": all(
                    np.array_equal(a, b) for r in ranks[1:]
                    for a, b in zip(r0["weights"], r["weights"])),
                "restored_equals_live": restored.step == n and all(
                    np.array_equal(restored.state[k], v)
                    for k, v in r0["state"].items()),
                # Batch losses are noisy: compare the ends of the curve.
                "loss_decreased": all(
                    np.mean(r["losses"][-5:]) < np.mean(r["losses"][:5])
                    for r in ranks),
            },
        )


def _coll_rank(comm, ctx):
    return tracing.in_root(f"rank{comm.rank}", _coll_rounds, comm, ctx)


def _wordsum(array: np.ndarray) -> int:
    """Sum of the array's 64-bit words: differs if any one word does."""
    return int(array.view(np.uint64).sum(dtype=np.uint64))


def _coll_rounds(comm, ctx):
    clock = time.perf_counter
    small, big = ctx["payloads"][comm.rank]
    sum_small, sum_big = ctx["sums"]
    size = comm.size
    results, times = [], []
    # The two rank threads share the interpreter lock: a call between
    # collectives that releases it (NumPy on a large array) hands the
    # lock to the peer and waits ~0.1 ms to get it back, over a tenth of
    # a round.  So the loop only keeps what it got, everything small is
    # compared after the last round, and the 512 KiB result is checked
    # by word sum (reads it once, catches any flipped word) on every
    # 16th round and element by element on the last.
    words_big = _wordsum(sum_big)
    wrong = 0
    for i in range(ctx["rounds"]):
        t0 = clock()
        got_small = comm.allreduce(small)
        got_big = comm.allreduce(big)          # ring path (512 KiB)
        got_header = comm.bcast(
            {"round": i, "lr": 0.1} if comm.rank == 0 else None)
        got_ids = comm.allgather(comm.rank * 1000 + i)
        got_float = comm.allreduce(float(comm.rank + i))
        times.append(clock() - t0)
        results.append((got_small, got_header, got_ids, got_float))
        if i % 16 == 0:
            wrong += _wordsum(got_big) != words_big
    wrong += not np.array_equal(got_big, sum_big)
    wrong += sum(
        not (np.array_equal(got_small, sum_small)
             and got_header == {"round": i, "lr": 0.1}
             and got_ids == [r * 1000 + i for r in range(size)]
             and got_float == float(sum(r + i for r in range(size))))
        for i, (got_small, got_header, got_ids, got_float)
        in enumerate(results))
    state = comm.state
    return {"wrong": wrong, "times": times, "sim_time": comm.sim_time,
            "messages": state.messages_sent, "bytes": state.bytes_sent,
            "checksums": state.envelope_checksums,
            "fastpath": state.envelope_fastpath}


class MpiColl(Workload):
    """Rounds of small and 512 KiB allreduce, bcast, allgather and scalar
    allreduce on two ranks with checksummed envelopes and rare injected
    bit flips: mpi transport, collectives and integrity do all the work;
    ml idle."""

    name = "mpi_coll"
    op = "round"
    roots = ("rank0",)

    #: Per-message bit-flip probability.  Above zero so envelopes carry
    #: real checksums (an unarmed transport takes the trusted fast path,
    #: which train_dp2 covers); rare enough that repairs stay noise.
    MESSAGE_P = 1e-3

    def setup(self, seed, scale):
        payloads = []
        for rank in range(2):
            rng = np.random.default_rng([seed, rank])
            payloads.append((rng.normal(size=64), rng.normal(size=65536)))
        sums = (payloads[0][0] + payloads[1][0],
                payloads[0][1] + payloads[1][1])
        return {"seed": seed, "rounds": _scaled(400, scale, floor=20),
                "payloads": payloads, "sums": sums}

    def prepare(self, ctx, pass_seed):
        return CorruptionInjector(FaultPlan.silent_corruption(
            ctx["seed"], message_p=self.MESSAGE_P))

    def run(self, ctx, inputs, detail=False):
        ranks = mpi_runtime.run_spmd(
            _coll_rank, 2, args=(ctx,),
            integrity=IntegrityContext(injector=inputs,
                                       config=IntegrityConfig()))
        counts = _mpi_counts(ranks)
        counts["resilience.faults_fired"] = len(inputs.injected)
        wrong = max(r["wrong"] for r in ranks)
        return Outcome(
            ops=ctx["rounds"], failed=wrong,
            op_times={"op": ranks[0]["times"]},
            sim={"sim_comm_s": max(r["sim_time"] for r in ranks)},
            counts=counts,
            digest=_digest(repr(sorted(inputs.injected)).encode()),
            checks={"collectives_match_numpy": wrong == 0},
        )


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    ServeSteady(), ServeChaos(), SchedBacklog(), TrainEager(), TrainLazy(),
    TrainDp2(), MpiColl())}
