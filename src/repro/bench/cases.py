"""The registered micro-benchmark cases behind ``repro bench``.

Six areas mirror the substrate layers the repo's perf story rests on
(ROADMAP item 4); the seventh, ``paper``, is :mod:`repro.bench.paper`:

* ``events``   — DES kernel throughput (`repro.simnet.events`),
* ``mpi``      — point-to-point / collective message cost and the
  checksummed-envelope tax (`repro.mpi`, `repro.resilience.integrity`),
* ``training`` — fused-gradient allreduce step (`repro.distributed`),
* ``serving``  — end-to-end online-serving latency tail (`repro.serving`),
* ``tensor``   — the lazy tensor engine: fusion ratios, buffer
  allocations per step and per-kernel device charges (`repro.ml.engine`),
* ``scheduler`` — matchmaking cost of draining a job backlog: scoring
  evaluations per placement (`repro.core.scheduler`).

Every case reports **deterministic** metrics (simulated time, operation
counters, rates over simulated seconds) plus digests that pin functional
outputs bit-for-bit, so ``BENCH_<area>.json`` is byte-identical across
same-seed runs.  Real speed is watched by ``benchmarks/e2e`` only.
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np

from repro.bench.registry import Budget, CaseRun, bench_case, expect

# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------


def stable_digest(*parts: Any) -> str:
    """Short hex digest of heterogeneous values, stable across runs.

    Arrays hash dtype/shape/bytes; floats hash their shortest repr (the
    same rendering JSON uses), so a digest match implies the JSON artifact
    would render the values identically too.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"nd:{part.dtype.str}:{part.shape}:".encode())
            h.update(part.tobytes())
        elif isinstance(part, (list, tuple)):
            h.update(b"seq:")
            h.update(":".join(repr(float(x)) if isinstance(x, float)
                              else repr(x) for x in part).encode())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def _round6(value: float) -> float:
    """Stabilize derived ratios: 6 significant-ish decimals is plenty for
    regression tracking and keeps artifacts readable."""
    return float(f"{value:.6g}")


# ---------------------------------------------------------------------------
# events — DES kernel
# ---------------------------------------------------------------------------


def _des_workload(n_procs: int, n_hops: int, seed: int,
                  n_arrivals: int = 0, series: bool = True):
    """A self-driving event soup: processes hopping through timeouts and
    contending on a shared resource — the scheduler/serving usage shape.
    ``n_arrivals`` adds a presorted stream (the serving trace shape), as one
    ``timeout_series`` or one timeout each, sampling the heap size."""
    from repro.simnet.events import Resource, Simulator

    sim = Simulator()
    res = Resource(sim, capacity=max(2, n_procs // 8), name="gate")
    rng = np.random.default_rng(seed)
    delays = rng.uniform(0.1, 2.0, size=(n_procs, n_hops))
    trace: list[float] = []
    peak = [0]

    def on_arrival(evt) -> None:
        peak[0] = max(peak[0], sim.pending)
        trace.extend((sim.now, float(evt.value)))

    def worker(idx: int):
        for hop in range(n_hops):
            yield sim.timeout(float(delays[idx, hop]))
            grant = res.acquire()
            yield grant
            yield sim.timeout(0.05)
            res.release()
        trace.append(sim.now)

    for i in range(n_procs):
        sim.process(worker(i), name=f"w{i}")
    arrivals = np.sort(rng.uniform(0.0, n_hops, size=n_arrivals)).tolist()
    if series:
        sim.timeout_series(arrivals, range(n_arrivals), on_arrival)
    else:
        for i, delay in enumerate(arrivals):
            sim.timeout(delay, i).add_callback(on_arrival)
    sim.run()
    return sim, trace, peak[0]


@bench_case(
    "des_event_throughput", area="events",
    budgets={
        "events_processed": Budget("lower", 0.10),
        "sim_rate_events_per_s": Budget("higher", 0.10),
    },
    description="DES kernel: timer + resource handoff event soup",
)
def des_event_throughput(quick: bool, seed: int) -> CaseRun:
    n_procs, n_hops = (48, 24) if quick else (256, 64)
    sim, trace, _ = _des_workload(n_procs, n_hops, seed)
    metrics = {
        "events_processed": float(sim.events_processed),
        "final_sim_time_s": _round6(sim.now),
        "sim_rate_events_per_s": _round6(sim.events_processed / sim.now),
    }
    digests = {"completion_trace": stable_digest(trace, sim.now)}
    return CaseRun(metrics=metrics, digests=digests)


@bench_case(
    "des_timeout_series", area="events",
    budgets={"events_processed": Budget("lower", 0.0),
             "peak_pending_events": Budget("lower", 0.0)},
    description="DES kernel: presorted timeout series over the event soup",
)
def des_timeout_series(quick: bool, seed: int) -> CaseRun:
    size = (48, 24, seed, 2_000) if quick else (256, 64, seed, 20_000)
    sim, trace, peak = _des_workload(*size)
    ref_sim, ref_trace, _ = _des_workload(*size, series=False)
    expect((trace, sim.now, sim.events_processed)
           == (ref_trace, ref_sim.now, ref_sim.events_processed),
           "timeout_series fires exactly as per-event timeouts do")
    return CaseRun(
        metrics={"events_processed": float(sim.events_processed),
                 "peak_pending_events": float(peak)},
        digests={"firing_trace": stable_digest(trace, sim.now)})


# ---------------------------------------------------------------------------
# mpi — message rate and the envelope tax
# ---------------------------------------------------------------------------


def _pingpong(rounds: int, payload_words: int, seed: int, integrity=None):
    """2-rank ping-pong; returns (rank-0 final buffer, per-rank states).

    Built on a raw :class:`~repro.mpi.transport.Transport` (rather than
    :func:`~repro.mpi.runtime.run_spmd`) so the per-rank counters survive
    for the deterministic metrics.
    """
    import threading

    from repro.mpi.comm import Communicator
    from repro.mpi.transport import Transport

    base = np.arange(payload_words, dtype=np.float64) + float(seed)
    transport = Transport(2)
    results: list[Any] = [None, None]

    def worker(rank: int) -> None:
        comm = Communicator(transport, rank, integrity=integrity)
        buf = base.copy()
        if rank == 0:
            for _ in range(rounds):
                comm.send(buf, dest=1, tag=1)
                buf = comm.recv(source=1, tag=2)
            results[0] = buf
        else:
            for _ in range(rounds):
                got = comm.recv(source=0, tag=1)
                comm.send(got + 1.0, dest=0, tag=2)

    threads = [threading.Thread(target=worker, args=(r,), daemon=True)
               for r in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    return results[0], transport.states


@bench_case(
    "p2p_message_rate", area="mpi",
    budgets={
        "sim_time_s": Budget("lower", 0.15),
        "sim_msgs_per_s": Budget("higher", 0.15),
    },
    description="2-rank ping-pong over the single-consumer inbox transport",
)
def p2p_message_rate(quick: bool, seed: int) -> CaseRun:
    rounds, words = (120, 256) if quick else (1500, 256)
    final, states = _pingpong(rounds, words, seed)
    msgs = sum(s.messages_sent for s in states)
    sim_t = max(s.sim_time for s in states)
    metrics = {
        "messages_total": float(msgs),
        "bytes_total": float(sum(s.bytes_sent for s in states)),
        "sim_time_s": _round6(sim_t),
        "sim_msgs_per_s": _round6(msgs / sim_t),
    }
    return CaseRun(metrics=metrics,
                   digests={"final_payload": stable_digest(final)})


@bench_case(
    "envelope_overhead", area="mpi",
    budgets={
        "checksums_per_message": Budget("lower", 0.0),
        "sim_time_s": Budget("lower", 0.15),
    },
    description="checksummed-envelope tax on the p2p path (verify on, "
                "no active corruption)",
)
def envelope_overhead(quick: bool, seed: int) -> CaseRun:
    from repro.resilience.integrity import IntegrityConfig, IntegrityContext

    rounds, words = (120, 1024) if quick else (1200, 1024)
    final, states = _pingpong(
        rounds, words, seed,
        integrity=IntegrityContext(config=IntegrityConfig()))
    msgs = sum(s.messages_sent for s in states)
    checksums = sum(s.envelope_checksums for s in states)
    fastpath = sum(s.envelope_fastpath for s in states)
    sim_t = max(s.sim_time for s in states)
    metrics = {
        "messages_total": float(msgs),
        "envelope_checksums": float(checksums),
        "envelope_fastpath": float(fastpath),
        "checksums_per_message": _round6(checksums / msgs),
        "sim_time_s": _round6(sim_t),
    }
    return CaseRun(metrics=metrics,
                   digests={"final_payload": stable_digest(final)})


def _allreduce_workload(iters: int, size: int, world: int, seed: int):
    from repro.mpi.runtime import run_spmd

    def fn(comm):
        rng = np.random.default_rng([seed, comm.rank])
        acc = None
        for _ in range(iters):
            local = rng.standard_normal(size)
            out = comm.allreduce(local)
            acc = out if acc is None else acc + out
        return acc, comm.sim_time, comm.state.bytes_sent

    return run_spmd(fn, world)


@bench_case(
    "ring_allreduce_rate", area="mpi",
    budgets={
        "sim_time_s": Budget("lower", 0.15),
    },
    description="4-rank ring allreduce of a fused-size buffer",
)
def ring_allreduce_rate(quick: bool, seed: int) -> CaseRun:
    iters, size, world = (8, 8192, 4) if quick else (40, 32768, 4)
    results = _allreduce_workload(iters, size, world, seed)
    accs = [r[0] for r in results]
    sim_t = max(r[1] for r in results)
    metrics = {
        "sim_time_s": _round6(sim_t),
        "bytes_sent_total": float(sum(r[2] for r in results)),
        "sim_allreduces_per_s": _round6(iters / sim_t),
    }
    return CaseRun(metrics=metrics,
                   digests={"reduced": stable_digest(accs[0])})


# ---------------------------------------------------------------------------
# training — fused-gradient allreduce step
# ---------------------------------------------------------------------------


def _training_workload(steps: int, world: int, seed: int, integrity=None):
    from repro.distributed.horovod import (DistributedOptimizer,
                                           broadcast_parameters)
    from repro.ml.losses import cross_entropy
    from repro.ml.models import MLP
    from repro.ml.optim import SGD
    from repro.ml.tensor import Tensor
    from repro.mpi.runtime import run_spmd

    rng = np.random.default_rng(seed)
    X = rng.standard_normal((64, 24))
    y = rng.integers(0, 4, size=64)

    def fn(comm):
        model = MLP([24, 48, 4], seed=seed)
        broadcast_parameters(model, comm)
        opt = DistributedOptimizer(SGD(model.parameters(), lr=0.05), comm)
        losses = []
        for step in range(steps):
            lo = (step * 16) % 48
            shard = slice(lo + comm.rank * 4, lo + (comm.rank + 1) * 4)
            loss = cross_entropy(model(Tensor(X[shard])), y[shard])
            opt.zero_grad()
            loss.backward()
            opt.step()
            losses.append(float(loss.item()))
        state = model.state_dict()
        return {
            "losses": losses,
            "weights": np.concatenate([state[k].ravel()
                                       for k in sorted(state)]),
            "sim_time": comm.sim_time,
            "bytes": opt.bytes_communicated,
            "calls": opt.allreduce_calls,
            "fusion_allocs": opt.fusion_allocs,
            "fusion_reuses": opt.fusion_reuses,
            "checksums": comm.state.envelope_checksums,
        }

    return run_spmd(fn, world, integrity=integrity)


@bench_case(
    "fused_allreduce_step", area="training",
    budgets={
        "fusion_allocs_per_step": Budget("lower", 0.0),
        "sim_time_s": Budget("lower", 0.15),
        "bytes_per_step": Budget("lower", 0.05),
        # The integrity overhead budget (E16), as counted work: checksums
        # computed per step on a second run with verification on.
        "envelope_checksums_per_step": Budget("lower", 0.0),
    },
    description="data-parallel MLP steps through the fused-buffer "
                "gradient allreduce",
)
def fused_allreduce_step(quick: bool, seed: int) -> CaseRun:
    from repro.resilience.integrity import IntegrityConfig, IntegrityContext

    steps, world = (12, 4) if quick else (48, 4)
    results = _training_workload(steps, world, seed)
    verified = _training_workload(
        steps, world, seed,
        integrity=IntegrityContext(config=IntegrityConfig()))
    r0 = results[0]
    metrics = {
        "steps": float(steps),
        "sim_time_s": _round6(max(r["sim_time"] for r in results)),
        "bytes_per_step": _round6(r0["bytes"] / steps),
        "allreduce_calls": float(r0["calls"]),
        "fusion_allocs_per_step": _round6(r0["fusion_allocs"] / steps),
        "fusion_reuses_per_step": _round6(r0["fusion_reuses"] / steps),
        "envelope_checksums_per_step": _round6(
            sum(r["checksums"] for r in verified) / steps),
    }
    digests = {
        "loss_trajectory": stable_digest(r0["losses"]),
        "final_weights": stable_digest(*(r["weights"] for r in results)),
    }
    return CaseRun(metrics=metrics, digests=digests)


@bench_case(
    "engine_lazy_train_step", area="training",
    budgets={
        "alloc_reduction": Budget("higher", 0.0),
        "weights_bitwise_equal": Budget("higher", 0.0),
        "modeled_step_speedup": Budget("higher", 0.0),
        "modeled_step_device_us": Budget("lower", 0.0),
        "graph_walks_after_warmup": Budget("lower", 0.0),
    },
    description="training step under ENGINE=lazy: allocation and modeled "
                "sim-gpu step-time gain over eager dispatch, outputs "
                "bit-identical",
)
def engine_lazy_train_step(quick: bool, seed: int) -> CaseRun:
    steps = 6 if quick else 24
    _, e_weights, eager = _engine_train("eager", steps, seed)
    _, l_weights, lazy = _engine_train("lazy", steps, seed)
    fused_s, unfused_s, _, step_s = _simgpu_step_cost(32, seed)
    metrics = {
        "steps": float(steps),
        "eager_allocs_per_step": _round6(eager["eager_ops"] / steps),
        "lazy_allocs_per_step": _round6(lazy["kernel_allocs"] / steps),
        "alloc_reduction": _round6(
            eager["eager_alloc_bytes"] / lazy["kernel_alloc_bytes"]),
        "step_compute_fused_us": _round6(fused_s * 1e6),
        "step_compute_unfused_us": _round6(unfused_s * 1e6),
        "modeled_step_speedup": _round6(unfused_s / fused_s),
        "modeled_step_device_us": _round6(step_s * 1e6),
        "graph_walks_after_warmup": float(lazy["graph_walks_after_warmup"]),
        "weights_bitwise_equal": float(
            np.array_equal(e_weights.view(np.uint64),
                           l_weights.view(np.uint64))),
    }
    return CaseRun(metrics=metrics,
                   digests={"final_weights": stable_digest(l_weights)})


# ---------------------------------------------------------------------------
# tensor — the lazy engine: fusion, allocations, per-kernel device cost
# ---------------------------------------------------------------------------


def _engine_chain(mode: str, n: int, seed: int):
    """A matmul feeding a diamond of elementwise chains with reduce
    epilogues — the fusion shapes the engine exists for.  Returns the
    realized output and the engine-stat snapshot for ``mode``."""
    from repro.ml import engine as eng
    from repro.ml.tensor import Tensor

    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((n, n))
    ws = rng.standard_normal((n, n))
    with eng.engine(mode):
        with eng.collect() as stats:
            x, w = Tensor(xs), Tensor(ws)
            h = x @ w + 1.0
            y = ((h * 2.0).tanh().relu() + h.sigmoid()).sum(axis=1)
            out = np.array(y.numpy(), copy=True)
            snap = stats.snapshot()
    return out, snap


@bench_case(
    "fused_elementwise_chain", area="tensor",
    budgets={
        "lazy_kernels": Budget("lower", 0.0),
        "lazy_allocs": Budget("lower", 0.0),
        "alloc_bytes_reduction": Budget("higher", 0.0),
        "outputs_bitwise_equal": Budget("higher", 0.0),
    },
    description="elementwise/reduce chain fusion: eager op-by-op vs "
                "fused lazy kernels, bit-identical outputs",
)
def fused_elementwise_chain(quick: bool, seed: int) -> CaseRun:
    n = 96 if quick else 384
    eager_out, eager = _engine_chain("eager", n, seed)
    lazy_out, lazy = _engine_chain("lazy", n, seed)
    metrics = {
        "eager_ops": float(eager["eager_ops"]),
        "eager_alloc_bytes": float(eager["eager_alloc_bytes"]),
        "lazy_kernels": float(lazy["kernels"]),
        "lazy_fused_ops": float(lazy["fused_ops"]),
        "lazy_allocs": float(lazy["kernel_allocs"]),
        "lazy_alloc_bytes": float(lazy["kernel_alloc_bytes"]),
        "ops_per_kernel": _round6(lazy["fused_ops"] / lazy["kernels"]),
        "alloc_bytes_reduction": _round6(
            eager["eager_alloc_bytes"] / lazy["kernel_alloc_bytes"]),
        "outputs_bitwise_equal": float(
            np.array_equal(eager_out.view(np.uint64),
                           lazy_out.view(np.uint64))),
    }
    return CaseRun(metrics=metrics,
                   digests={"chain_output": stable_digest(lazy_out)})


def _engine_train(mode: str, steps: int, seed: int):
    """Single-rank MLP training under the requested engine mode."""
    from repro.ml import engine as eng
    from repro.ml.losses import cross_entropy
    from repro.ml.models import MLP
    from repro.ml.optim import SGD
    from repro.ml.tensor import Tensor

    rng = np.random.default_rng(seed)
    X = rng.standard_normal((48, 24))
    y = rng.integers(0, 4, size=48)
    with eng.engine(mode):
        model = MLP([24, 48, 4], seed=seed)
        opt = SGD(model.parameters(), lr=0.05)
        losses = []
        with eng.collect() as stats:
            for step in range(steps):
                lo = (step * 16) % 48
                loss = cross_entropy(model(Tensor(X[lo:lo + 16])),
                                     y[lo:lo + 16])
                opt.zero_grad()
                loss.backward()
                opt.step()
                losses.append(float(loss.item()))
                if step == 0:
                    warmup = stats.graph_walks
            snap = stats.snapshot()
    snap["graph_walks_after_warmup"] = snap["graph_walks"] - warmup
    state = model.state_dict()
    weights = np.concatenate([state[k].ravel() for k in sorted(state)])
    return losses, weights, snap


def _simgpu_step_cost(batch: int, seed: int):
    """Per-kernel sim-gpu charge of one forward+loss graph: fused vs the
    one-kernel-per-op counterfactual (all from shapes — deterministic),
    and the sim-gpu clock over the whole step — forward, loss, backward,
    ``item()`` — which also pays for any kernel backward launches (a
    recompute of an activation forward did not keep)."""
    from repro.ml import engine as eng
    from repro.ml.engine import schedule
    from repro.ml.losses import cross_entropy
    from repro.ml.models import MLP
    from repro.ml.tensor import Tensor

    rng = np.random.default_rng(seed)
    X = rng.standard_normal((batch, 24))
    y = rng.integers(0, 4, size=batch)
    with eng.engine("lazy"), eng.use_device("sim-gpu") as dev:
        model = MLP([24, 48, 4], seed=seed)
        loss = cross_entropy(model(Tensor(X)), y)
        kernels = schedule(loss._payload())
        fused = sum(dev.kernel_time_s(k.flops, k.bytes_moved, k.n_ops)
                    for k in kernels)
        unfused = sum(dev.unfused_time_s(k) for k in kernels)
        dev.reset_clock()
        loss.backward()
        loss.item()
        step = dev.sim_time_s
    return fused, unfused, kernels, step


@bench_case(
    "mlp_train_step_engine", area="tensor",
    budgets={
        "lazy_allocs_per_step": Budget("lower", 0.0),
        "alloc_reduction": Budget("higher", 0.0),
        "weights_bitwise_equal": Budget("higher", 0.0),
        "recomputes_per_step": Budget("lower", 0.0),
        "plan_compiles_after_warmup": Budget("lower", 0.0),
        "graph_walks_after_warmup": Budget("lower", 0.0),
        "grad_copies_per_step": Budget("lower", 0.0),
    },
    description="MLP train steps: ENGINE=lazy vs eager allocations, "
                "bitwise-identical weights, no recompute, no re-planning",
)
def mlp_train_step_engine(quick: bool, seed: int) -> CaseRun:
    steps = 6 if quick else 24
    e_losses, e_weights, eager = _engine_train("eager", steps, seed)
    l_losses, l_weights, lazy = _engine_train("lazy", steps, seed)
    metrics = {
        "steps": float(steps),
        "eager_allocs_per_step": _round6(eager["eager_ops"] / steps),
        "lazy_allocs_per_step": _round6(lazy["kernel_allocs"] / steps),
        "alloc_reduction": _round6(
            eager["eager_alloc_bytes"] / lazy["kernel_alloc_bytes"]),
        "kernels_per_step": _round6(lazy["kernels"] / steps),
        "recomputes_per_step": _round6(lazy["recomputes"] / steps),
        # Every walk compiles: the two metrics are one count.
        "plan_compiles_after_warmup": float(lazy["graph_walks_after_warmup"]),
        "graph_walks_after_warmup": float(lazy["graph_walks_after_warmup"]),
        "grad_copies_per_step": _round6(lazy["grad_copies"] / steps),
        "weights_bitwise_equal": float(
            np.array_equal(e_weights.view(np.uint64),
                           l_weights.view(np.uint64))),
    }
    digests = {
        "loss_trajectory": stable_digest(l_losses),
        "final_weights": stable_digest(l_weights),
    }
    return CaseRun(metrics=metrics, digests=digests)


@bench_case(
    "simgpu_kernel_charge", area="tensor",
    budgets={
        "kernels": Budget("lower", 0.0),
        "modeled_fusion_speedup": Budget("higher", 0.0),
        "modeled_step_device_us": Budget("lower", 0.0),
    },
    description="sim-gpu device: per-fused-kernel A100 roofline charge "
                "vs the kernel-per-op counterfactual",
)
def simgpu_kernel_charge(quick: bool, seed: int) -> CaseRun:
    batch = 16 if quick else 64
    fused_s, unfused_s, kernels, step_s = _simgpu_step_cost(batch, seed)
    total_ops = sum(k.n_ops for k in kernels)
    metrics = {
        "kernels": float(len(kernels)),
        "graph_ops": float(total_ops),
        "fused_time_us": _round6(fused_s * 1e6),
        "unfused_time_us": _round6(unfused_s * 1e6),
        "modeled_fusion_speedup": _round6(unfused_s / fused_s),
        "modeled_step_device_us": _round6(step_s * 1e6),
    }
    return CaseRun(metrics=metrics, digests={
        "kernel_plan": stable_digest([k.name for k in kernels])})


# ---------------------------------------------------------------------------
# serving — latency tail of the online plane
# ---------------------------------------------------------------------------


def _serving_workload(quick: bool, seed: int):
    from repro.serving.engine import ServingConfig, simulate_serving
    from repro.serving.request import TraceConfig

    config = ServingConfig(
        trace=TraceConfig(rate_per_s=80.0,
                          duration_s=6.0 if quick else 30.0,
                          samples_per_request=4, seed=seed,
                          key_universe=1 << 16),
        initial_replicas=2,
    )
    return simulate_serving(config)


@bench_case(
    "serving_latency_tail", area="serving",
    budgets={
        "p99_s": Budget("lower", 0.25),
        "completed": Budget("higher", 0.05),
        # The tracing overhead budget (E15), as counted work: records the
        # enabled tracer holds per completed request.
        "trace_records_per_request": Budget("lower", 0.0),
    },
    description="online serving: simulated latency tail under a Poisson "
                "arrival trace",
)
def serving_latency_tail(quick: bool, seed: int) -> CaseRun:
    from repro import telemetry

    with telemetry.capture() as (tracer, _):
        report = _serving_workload(quick, seed)
    summary = report.metrics.latency_summary()
    metrics = {
        "admitted": float(report.metrics.admitted),
        "completed": float(report.metrics.completed),
        "p50_s": _round6(summary.p50_s),
        "p99_s": _round6(summary.p99_s),
        "trace_records_per_request": _round6(
            len(tracer) / report.metrics.completed),
    }
    return CaseRun(metrics=metrics,
                   digests={"report": stable_digest(report.to_text())})


def _defended_workload(quick: bool, seed: int, defend: bool, hedge: bool):
    """One serving run against a gray-failed replica.

    Capacity is pinned (autoscaler off) so the latency tail measures the
    defense layer, not scale-up lag, and the gray failure targets the
    booster node the first replica deterministically lands on.
    """
    from repro.resilience.faults import FaultInjector, FaultKind, \
        FaultPlan, FaultSpec
    from repro.serving import AutoscalerConfig, DefenseConfig
    from repro.serving.engine import ServingConfig, simulate_serving
    from repro.serving.request import TraceConfig

    duration = 6.0 if quick else 12.0
    plan = FaultPlan(seed=seed + 5, specs=(
        FaultSpec(kind=FaultKind.GRAY_FAILURE, time=2.0, module="esb",
                  node=0, duration=duration - 4.0, magnitude=8.0,
                  probability=0.6),
    ))
    config = ServingConfig(
        trace=TraceConfig(rate_per_s=120.0, duration_s=duration,
                          seed=seed + 3),
        initial_replicas=3,
        autoscaler=AutoscalerConfig(enabled=False),
        defense=DefenseConfig(enabled=defend, hedging_enabled=hedge),
    )
    return simulate_serving(config, fault_injector=FaultInjector(plan))


@bench_case(
    "serving_hedged_tail", area="serving",
    budgets={
        "defended_p99_s": Budget("lower", 0.25),
        "p99_cut_ratio": Budget("higher", 0.20),
        "duplicate_work_ratio": Budget("lower", 0.50),
        "duplicate_within_budget": Budget("higher", 0.0),
        "lost_requests": Budget("lower", 0.0),
    },
    description="gray-failure defense: hedged-request tail cut vs the "
                "undefended control, duplicate-work overhead within the "
                "15% budget",
)
def serving_hedged_tail(quick: bool, seed: int) -> CaseRun:
    """Three legs over the identical trace + fault plan: bare engine,
    defenses without hedging (isolates the breaker/brownout effect), and
    the full defense stack.  ``p99_cut_ratio`` is the headline — how many
    times the defended tail beats the undefended one."""
    undefended = _defended_workload(quick, seed, defend=False, hedge=False)
    nohedge = _defended_workload(quick, seed, defend=True, hedge=False)
    defended = _defended_workload(quick, seed, defend=True, hedge=True)
    dup_ratio = defended.duplicate_work_ratio
    metrics = {
        "undefended_p99_s": _round6(undefended.p99),
        "nohedge_p99_s": _round6(nohedge.p99),
        "defended_p99_s": _round6(defended.p99),
        "p99_cut_ratio": _round6(undefended.p99 / defended.p99
                                 if defended.p99 > 0 else 1.0),
        "hedges_issued": float(defended.metrics.hedges_issued),
        "hedges_backup_won": float(defended.metrics.hedges_backup_won),
        "duplicate_work_ratio": _round6(dup_ratio),
        "duplicate_within_budget": 1.0 if dup_ratio < 0.15 else 0.0,
        "breaker_transitions": float(defended.breaker_transitions),
        "lost_requests": float(defended.metrics.admitted
                               - defended.metrics.completed),
    }
    digests = {
        "undefended_report": stable_digest(undefended.to_text()),
        "defended_report": stable_digest(defended.to_text()),
    }
    return CaseRun(metrics=metrics, digests=digests)


# ---------------------------------------------------------------------------
# scheduler — matchmaking cost of draining a backlog
# ---------------------------------------------------------------------------


@bench_case(
    "scheduler_backlog_drain", area="scheduler",
    budgets={"evals_per_placement": Budget("lower", 0.25),
             "states_scored_per_placement": Budget("lower", 0.0)},
    description="batch scheduler: phase_runtime evaluations per placement "
                "while a burst backlog drains through crashes and requeues "
                "(O(modules), not O(backlog))",
)
def scheduler_backlog_drain(quick: bool, seed: int) -> CaseRun:
    from unittest import mock

    import repro.core.scheduler as scheduler_mod
    from repro.core import deep_system, synthetic_workload_mix
    from repro.resilience.faults import FaultInjector, FaultPlan

    system = deep_system()
    targets = {key: mod.n_nodes
               for key, mod in system.compute_modules().items()}
    injector = FaultInjector(FaultPlan.random(
        seed, targets, horizon_s=36000.0, n_crashes=6, repair_s=1200.0))
    sched = scheduler_mod.MsaScheduler(system, fault_injector=injector)
    sched.submit_all(synthetic_workload_mix(100 if quick else 300, seed,
                                            mean_interarrival_s=1.0))
    # The scheduler's own reference to the runtime model: what it calls,
    # not what repro.core.jobs exports.
    with mock.patch.object(scheduler_mod, "phase_runtime",
                           wraps=scheduler_mod.phase_runtime) as counted:
        report = sched.run()
    evals = counted.call_count
    placements = len(report.allocations)
    metrics = {
        "phase_runtime_evals": float(evals),
        "evals_per_placement": _round6(evals / placements),
        "states_scored_per_placement": _round6(
            sched.states_scored / placements),
        "allocations": float(placements),
        "requeues": float(report.resilience.total_retries),
        "events": float(sched.sim.events_processed),
        "sim_makespan_s": _round6(report.makespan),
        "sim_energy_kwh": _round6(report.energy_kwh),
    }
    return CaseRun(metrics=metrics,
                   digests={"summary": stable_digest(report.summary())})
