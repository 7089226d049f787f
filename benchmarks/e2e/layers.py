"""Which public callables the traced run wraps, and the per-layer
metrics derived from the spans.

Layers are this repository's packages.  :data:`WRAPS` is the whole
instrumentation: every entry names a public callable by the module
attribute through which callers reach it, so the patch is seen at call
time and ``src/`` is not edited.  Two registration hooks are wrapped as
well — ``Event.add_callback`` and ``FaultInjector.on`` — so that a
function handed to the event loop is attributed to the layer of the
module that defined it; this is what separates ``simnet``'s own event
loop time from the ``serving``/``core`` code it calls back into.

:data:`PER_LAYER` is the ordered list of per-layer metrics
(``BENCHMARK.json`` repeats it; the self-check keeps them equal) and
:func:`layer_metrics` computes every one of them for one workload.
"""

from __future__ import annotations

import importlib
from statistics import median
from typing import Any, Callable, Optional

import stats
from tracing import BENCH, Recorder, group_and_layer

LAYERS = ("simnet", "mpi", "distributed", "ml", "ml.engine", "serving",
          "core", "storage", "resilience", "telemetry")

#: ``(module holding the attribute, class or None, attributes, group)``.
#: ``group`` defaults to the holding module; it is given when a function
#: is reached through another module's namespace (``from x import f``).
WRAPS: list[tuple[str, Optional[str], tuple[str, ...], Optional[str]]] = [
    # simnet
    ("repro.simnet.events", "Simulator", ("run", "timeout", "schedule"), None),
    # serving
    ("repro.serving.engine", "ServingEngine", ("__init__", "run"), None),
    ("repro.serving.engine", None, ("generate_trace",), "serving.request"),
    ("repro.serving.admission", "AdmissionController", ("decide",), None),
    ("repro.serving.cache", "ResultCache",
     ("lookup", "complete", "contains", "abandon"), None),
    ("repro.serving.batcher", "MicroBatcher",
     ("enqueue", "requeue_front", "ready_model", "next_deadline", "take",
      "set_wait_stretch"), None),
    ("repro.serving.replicas", "ReplicaPool",
     ("idle_replicas", "find", "place", "batch_time", "retire", "crash",
      "retirement_candidate"), None),
    ("repro.serving.replicas", "Autoscaler", ("decide", "note"), None),
    ("repro.serving.replicas", None, ("place_standalone",), "core.scheduler"),
    ("repro.serving.metrics", "ServingMetrics",
     ("record_rejection", "record_admission", "record_completion",
      "record_batch", "record_failover", "record_hedge_issued",
      "record_hedge_resolved", "record_duplicate_response",
      "record_breaker_transition", "record_brownout_transition",
      "check_conservation"), None),
    ("repro.serving.defense", "CircuitBreaker",
     ("state", "record_failure", "record_success", "allows_dispatch"), None),
    ("repro.serving.defense", "HedgePolicy", ("deadline",), None),
    ("repro.serving.defense", "BrownoutController", ("tick",), None),
    # core
    ("repro.core.scheduler", "MsaScheduler",
     ("__init__", "submit_all", "run"), None),
    ("repro.core.scheduler", None, ("phase_runtime",), "core.jobs"),
    ("repro.core.module", "ComputeModule", ("allocate", "release"), None),
    # ml
    ("repro.ml.layers", "Module", ("__call__",), None),
    ("repro.ml.tensor", "Tensor", ("backward", "item"), None),
    ("repro.ml.optim", "Optimizer", ("zero_grad",), None),
    ("repro.ml.optim", "Adam", ("step",), None),
    ("repro.ml.optim", "SGD", ("step",), None),
    ("repro.ml.losses", None,
     ("cross_entropy", "mae", "l2_regularisation"), None),
    ("repro.ml.data", "ArrayDataset", ("__getitem__",), None),
    ("repro.ml.data", "DistributedSampler", ("indices",), None),
    # ml.engine
    ("repro.ml.engine.cpu", None, ("schedule",), "ml.engine.fuser"),
    ("repro.ml.engine.cpu", "Device", ("realize",), None),
    # distributed
    ("repro.distributed.horovod", "DistributedOptimizer",
     ("synchronize", "step", "zero_grad"), None),
    ("repro.distributed.horovod", None, ("broadcast_parameters",), None),
    # mpi
    ("repro.mpi.runtime", None, ("run_spmd",), None),
    ("repro.mpi.comm", "Communicator",
     ("allreduce", "bcast", "allgather", "send", "recv", "barrier"), None),
    ("repro.mpi.transport", "Transport", ("put", "get"), None),
    # resilience
    ("repro.resilience.integrity", None,
     ("checksum_payload", "verified_grad_allreduce"), None),
    ("repro.resilience.integrity", "IntegrityContext",
     ("outbound", "inbound"), None),
    ("repro.resilience.detect", "PhiAccrualDetector",
     ("register", "forget", "heartbeat", "suspect"), None),
    ("repro.resilience.retry", "RetryBudget",
     ("note_request", "try_spend", "spend_forced"), None),
    ("repro.resilience.retry", "RetryPolicy", ("delay", "delay_within"), None),
    ("repro.resilience.faults", "FaultInjector", ("arm",), None),
    # storage
    ("repro.storage.checkpoint", "CheckpointManager",
     ("save", "restore_latest_verified"), None),
    # telemetry: the disabled tracer's sites, i.e. what "off" still costs
    ("repro.telemetry.spans", "Tracer", ("record", "instant"), None),
]

_COLLECTIVES = ("allreduce", "bcast", "allgather", "send", "recv", "barrier")


def install(rec: Recorder) -> Callable[[], None]:
    """Patch every entry of :data:`WRAPS`; returns the undo function."""
    undo: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, new: Any) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for module_name, cls_name, attrs, group in WRAPS:
        module = importlib.import_module(module_name)
        owner = getattr(module, cls_name) if cls_name else module
        group_, layer = group_and_layer(
            f"repro.{group}" if group else module_name)
        for attr in attrs:
            name = ".".join(p for p in (group_, cls_name, attr) if p)
            patch(owner, attr, rec.wrap(owner.__dict__[attr], name, layer))

    from repro.resilience.faults import FaultInjector
    from repro.simnet.events import Event

    add_callback = Event.add_callback
    on = FaultInjector.on
    patch(Event, "add_callback",
          lambda self, fn: add_callback(self, rec.wrap_callback(fn)))
    patch(FaultInjector, "on",
          lambda self, kind, handler: on(self, kind,
                                         rec.wrap_callback(handler)))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


class Breakdown:
    """Span aggregates of the threads that carry a workload's breakdown,
    averaged per traced pass."""

    def __init__(self, rec: Recorder, roots: tuple[str, ...],
                 passes: int) -> None:
        for root in roots:
            chosen = [st for st in rec.threads if st.root == root]
            if chosen:
                break
        else:
            raise LookupError(f"no thread recorded a root span in {roots}")
        self.rows: dict[tuple[str, str], list[float]] = {}
        for st in chosen:
            for key, (calls, self_s, incl_s) in st.agg.items():
                row = self.rows.setdefault(key, [0.0, 0.0, 0.0])
                row[0] += calls / passes
                row[1] += self_s / passes
                row[2] += incl_s / passes
        #: Traced wall of one pass on the chosen thread(s).
        self.wall = sum(row[2] for (_, layer), row in self.rows.items()
                        if layer == BENCH)
        self.unattributed = sum(row[1] for (_, layer), row
                                in self.rows.items() if layer == BENCH)

    def _sum(self, column: int, *, layer: str = "", prefix: str = "",
             names: tuple[str, ...] = ()) -> float:
        return sum(row[column] for (name, lay), row in self.rows.items()
                   if (layer and lay == layer)
                   or (prefix and name.startswith(prefix))
                   or name in names)

    def layer_self(self, layer: str) -> float:
        return self._sum(1, layer=layer)

    def layer_calls(self, layer: str) -> float:
        return self._sum(0, layer=layer)

    def group_self(self, group: str) -> float:
        return self._sum(1, prefix=group + ".")

    def self_s(self, *names: str) -> float:
        return self._sum(1, names=names)

    def incl_s(self, *names: str) -> float:
        return self._sum(2, names=names)

    def calls(self, *names: str) -> float:
        return self._sum(0, names=names)


#: ``(name, unit, better)`` for every per-layer metric, in report order.
PER_LAYER: list[tuple[str, str, str]] = [
    row for layer in LAYERS for row in (
        (f"{layer}.self_s", "s", "lower"),
        (f"{layer}.share", "ratio", "lower"),
        (f"{layer}.calls", "count", "lower"))
] + [
    ("simnet.events", "count", "lower"),
    ("simnet.us_per_event", "us", "lower"),
    ("serving.engine.self_s", "s", "lower"),
    ("serving.admission.self_s", "s", "lower"),
    ("serving.cache.self_s", "s", "lower"),
    ("serving.batcher.self_s", "s", "lower"),
    ("serving.replicas.self_s", "s", "lower"),
    ("serving.metrics.self_s", "s", "lower"),
    ("serving.request.self_s", "s", "lower"),
    ("serving.us_per_request", "us", "lower"),
    ("serving.batches", "count", "lower"),
    ("serving.mean_batch_size", "count", "higher"),
    ("serving.cache_hit_rate", "ratio", "higher"),
    ("serving.defense.self_s", "s", "lower"),
    ("serving.hedges_issued", "count", "lower"),
    ("serving.hedge_win_ratio", "ratio", "higher"),
    ("serving.breaker_transitions", "count", "lower"),
    ("serving.brownout_transitions", "count", "lower"),
    ("serving.refused", "count", "lower"),
    ("serving.failovers", "count", "lower"),
    ("serving.held_responses", "count", "lower"),
    ("core.scheduler.self_s", "s", "lower"),
    ("core.jobs.self_s", "s", "lower"),
    ("core.phase_runtime_calls", "count", "lower"),
    ("core.allocations", "count", "lower"),
    ("core.requeues", "count", "lower"),
    ("core.us_per_job", "us", "lower"),
    ("core.mean_wait_s", "s", "lower"),
    ("core.place_standalone.self_s", "s", "lower"),
    ("ml.forward_s", "s", "lower"),
    ("ml.backward_s", "s", "lower"),
    ("ml.optim_s", "s", "lower"),
    ("ml.data_s", "s", "lower"),
    ("ml.resnet.step_p50_ms", "ms", "lower"),
    ("ml.gru.step_p50_ms", "ms", "lower"),
    ("ml.mlp.step_p50_ms", "ms", "lower"),
    ("ml.step_p95_ms", "ms", "lower"),
    ("ml.engine.kernels_per_step", "count", "lower"),
    ("ml.engine.ops_per_kernel", "count", "higher"),
    ("ml.engine.allocs_per_step", "count", "lower"),
    ("ml.engine.alloc_bytes_per_step", "B", "lower"),
    ("ml.engine.realizes_per_step", "count", "lower"),
    ("ml.engine.recomputes_per_step", "count", "lower"),
    ("ml.engine.schedule_s", "s", "lower"),
    ("ml.engine.execute_s", "s", "lower"),
    ("distributed.sync_s", "s", "lower"),
    ("distributed.allreduce_calls", "count", "lower"),
    ("distributed.bytes_per_step", "B", "lower"),
    ("distributed.fusion_allocs", "count", "lower"),
    ("mpi.messages", "count", "lower"),
    ("mpi.bytes", "B", "lower"),
    ("mpi.us_per_message", "us", "lower"),
    ("mpi.wait_s", "s", "lower"),
    ("mpi.collective_calls", "count", "lower"),
    ("mpi.envelope_checksums", "count", "lower"),
    ("mpi.envelope_fastpath", "count", "higher"),
    ("mpi.round_p95_ms", "ms", "lower"),
    ("storage.save_s", "s", "lower"),
    ("storage.restore_s", "s", "lower"),
    ("storage.saves", "count", "lower"),
    ("storage.restores", "count", "lower"),
    ("storage.bytes_written", "B", "lower"),
    ("storage.bytes_read", "B", "lower"),
    ("resilience.integrity.self_s", "s", "lower"),
    ("resilience.detect.self_s", "s", "lower"),
    ("resilience.faults_fired", "count", "lower"),
    ("resilience.corruptions_undetected", "count", "lower"),
    ("telemetry.capture_overhead_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
    # The host around the untraced passes: ops_per_s before it is scaled
    # to reference host speed, and the scale (calibrate.py; 1.0 = the
    # reference box, lower = a slower host).
    ("host.raw_ops_per_s", "1/s", "higher"),
    ("host.speed", "ratio", "higher"),
    # Host time per op: end-to-end in meaning, listed here because on
    # the simulation workloads it only restates ops_per_s.
    ("step_p50_ms", "ms", "lower"),
    # Outcome metrics: deterministic per seed (sim clock) or a share
    # of failed ops; a host-only change must leave them untouched.
    ("fail_ratio", "ratio", "lower"),
    ("sim_p99_ms", "ms", "lower"),
    ("sim_slo_attain", "ratio", "higher"),
    ("sim_dup_work", "ratio", "lower"),
    ("sim_makespan_s", "s", "lower"),
    ("sim_energy_kwh", "kWh", "lower"),
    ("sim_comm_s", "s", "lower"),
    ("final_loss", "loss", "lower"),
]


def _registry_total(registry, family: str, **labels: str) -> float:
    want = set(labels.items())
    return float(sum(inst.value for key, inst in registry.members(family)
                     if want <= set(key)))


def layer_metrics(bd: Breakdown, *, n_spans: int, untraced_wall_s: float,
                  traced_wall_s: float, capture_wall_s: float,
                  op_times: dict[str, list[float]], outcome, registry,
                  fail_ratio: float, host_speed: float,
                  raw_ops_per_s: float) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric of one workload.

    ``bd`` comes from the traced passes, ``outcome`` is one traced pass's
    :class:`~workloads.Outcome` (passes are identical in a traced run),
    ``op_times`` pools the untraced passes, and ``registry`` is the
    metrics registry of the pass run inside ``telemetry.capture()``.
    Metrics of a layer the workload bypasses read 0.  ``op_times`` (the
    ``*_p50_ms`` / ``*_p95_ms`` metrics) are at reference host speed, as
    in the untraced run; span times and walls are raw host times of this
    run (shares and ratios need no scaling), and ``host.speed`` says how
    fast the host was while they were taken.
    """
    from repro.resilience.integrity import corruption_totals

    counts = outcome.counts
    ops = outcome.ops
    m: dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = bd.layer_self(layer)
        m[f"{layer}.share"] = bd.layer_self(layer) / bd.wall
        m[f"{layer}.calls"] = bd.layer_calls(layer)
    m.update({k: float(v) for k, v in counts.items()})
    m.update({k: float(v) for k, v in outcome.sim.items()})

    events = counts.get("simnet.events", 0)
    if events:
        m["simnet.us_per_event"] = untraced_wall_s / events * 1e6
    for group in ("engine", "admission", "cache", "batcher", "replicas",
                  "metrics", "request", "defense"):
        m[f"serving.{group}.self_s"] = bd.group_self(f"serving.{group}")
    if bd.layer_calls("serving"):
        m["serving.us_per_request"] = untraced_wall_s / ops * 1e6
    m["core.scheduler.self_s"] = (
        bd.group_self("core.scheduler")
        - bd.self_s("core.scheduler.place_standalone"))
    m["core.jobs.self_s"] = bd.group_self("core.jobs")
    m["core.phase_runtime_calls"] = bd.calls("core.jobs.phase_runtime")
    m["core.place_standalone.self_s"] = bd.self_s(
        "core.scheduler.place_standalone")
    if "core.jobs" in counts:
        m["core.us_per_job"] = untraced_wall_s / counts["core.jobs"] * 1e6

    m["ml.forward_s"] = bd.incl_s("ml.layers.Module.__call__") + sum(
        bd.incl_s(f"ml.losses.{fn}")
        for fn in ("cross_entropy", "mae", "l2_regularisation"))
    m["ml.backward_s"] = bd.incl_s("ml.tensor.Tensor.backward")
    m["ml.optim_s"] = bd.incl_s("ml.optim.Adam.step", "ml.optim.SGD.step")
    m["ml.data_s"] = bd.incl_s("ml.data.ArrayDataset.__getitem__",
                               "ml.data.DistributedSampler.indices")
    for model in ("resnet", "gru", "mlp"):
        if model in op_times:
            m[f"ml.{model}.step_p50_ms"] = median(op_times[model]) * 1e3
    per_op = op_times.get("op", [])
    m["step_p50_ms"] = (median(per_op) if per_op
                        else untraced_wall_s / ops) * 1e3
    p95 = stats.percentile(per_op, 95) if per_op else None
    if p95 is not None:
        key = "ml.step_p95_ms" if bd.layer_calls("ml") else "mpi.round_p95_ms"
        m[key] = p95 * 1e3
    m["ml.engine.schedule_s"] = bd.incl_s("ml.engine.fuser.schedule")
    m["ml.engine.execute_s"] = (bd.incl_s("ml.engine.cpu.Device.realize")
                                - m["ml.engine.schedule_s"])

    m["distributed.sync_s"] = bd.incl_s(
        "distributed.horovod.DistributedOptimizer.synchronize")
    messages = counts.get("mpi.messages", 0)
    if messages:
        m["mpi.us_per_message"] = untraced_wall_s / messages * 1e6
    m["mpi.wait_s"] = bd.incl_s("mpi.transport.Transport.get")
    m["mpi.collective_calls"] = bd.calls(
        *(f"mpi.comm.Communicator.{op}" for op in _COLLECTIVES))

    m["storage.save_s"] = bd.incl_s("storage.checkpoint.CheckpointManager.save")
    m["storage.restore_s"] = bd.incl_s(
        "storage.checkpoint.CheckpointManager.restore_latest_verified")
    m["storage.bytes_written"] = _registry_total(
        registry, "checkpoint_bytes_total", direction="write")
    m["storage.bytes_read"] = _registry_total(
        registry, "checkpoint_bytes_total", direction="read")

    m["resilience.integrity.self_s"] = bd.group_self("resilience.integrity")
    m["resilience.detect.self_s"] = bd.group_self("resilience.detect")
    injected, detected = corruption_totals(registry)
    m["resilience.corruptions_undetected"] = injected - detected

    m["telemetry.capture_overhead_ratio"] = (
        capture_wall_s / untraced_wall_s - 1.0)
    m["trace.overhead_ratio"] = traced_wall_s / untraced_wall_s - 1.0
    m["trace.unattributed_share"] = bd.unattributed / bd.wall
    m["trace.spans"] = float(n_spans)
    m["host.raw_ops_per_s"] = raw_ops_per_s
    m["host.speed"] = host_speed
    m["fail_ratio"] = fail_ratio
    return {name: m[name] for name, _, _ in PER_LAYER}
