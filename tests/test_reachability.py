"""Every definition and member in ``src/repro`` has a root.

A definition earns its place by being reachable from something this
repository runs for a reason:

* ``repro.cli`` and every command it wires up;
* every registered ``repro bench`` case of every area (the ``paper``
  area's cases are E1–E14 and the ablations);
* ``repro.scenarios.SCENARIOS``;
* the wall-clock benchmark, ``benchmarks/e2e/*.py``, including the
  module / class / attribute names its ``layers.WRAPS`` table patches;
* the examples that a tier-1 test runs (:data:`EXAMPLE_ROOTS`).

Package ``__init__`` re-exports are not roots: a name that is only
re-exported is not used.  The closure is an AST walk, in the style of
``test_no_host_clock.py``.  ``import`` / ``from … import`` bindings and
``module.attr`` resolve to ``(module, name)`` exactly, through re-exports
(``np.zeros`` is NumPy's and matches nothing here); any other attribute
and any identifier-shaped string matches every definition of that name.
So a name match may keep a dead definition alive, but a live one is
never reported dead.

Members are definitions too.  A reached class runs only its bases,
decorators and class-level statements; each method or property is its
own definition, reached when it is dunder, named by a ``WRAPS`` row, or
matched by name (an attribute, a keyword or an identifier string) from
reached code.  The closure is a fixpoint over both.

Write-only state fails as well: an attribute that reached code stores
(``=``, ``+=``) but that no reached code loads, as an attribute or an
identifier string.  A class that reads itself whole (``asdict(self)``,
``vars(self)``, a loop over ``self.__slots__``) reads every field.

The same scan fails on a module-level import its module never uses
(``# noqa: F401`` marks an import kept for its side effect).

Every settable value has a root too.  A settable value is a field with a
default in a ``frozen=True`` dataclass, or a defaulted parameter of a
reached function or method; an option no root sets is a constant in
disguise.  It counts as set when reached code calls its owner by name (a
dataclass field's or ``__init__`` parameter's owner is the class; ``cls``
and ``super().__init__`` resolve to the class they sit in) and passes it
by keyword or by position, or names a field in a ``dataclasses.replace``
call; ``field(default_factory=C)`` calls ``C`` with nothing.  A call with
a ``*`` or ``**`` splat sets every value of its owner, and a function or
class that reached code names other than as a callee, an attribute base,
an annotation or an ``isinstance`` argument (passed as a value) has every
value set.  As with the member match, a live knob is never reported dead.
:meth:`Program.settable` is the one enumeration of settable values;
``test_line_roots.py``'s value rule watches the same ones at run time.
"""

from __future__ import annotations

import ast
import functools
import re
from dataclasses import dataclass, field
from pathlib import Path
from types import FunctionType
from typing import Iterable, Optional

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
E2E = REPO_ROOT / "benchmarks" / "e2e"
EXAMPLE_ROOTS = ("msa_operations.py", "quickstart.py")

#: ``"module.name"`` → why it stays although no root reaches it, or (for
#: a function or class) executes its every line: the one allowlist of
#: these rules and of ``test_line_roots.py``.
ALLOWLIST = {
    "repro.mpi.collectives.rabenseifner_allreduce":
        "the only executed twin of the closed form E9's expect selects at "
        "64 MiB; ROADMAP item 5(a)'s differential compares the two",
    "repro.distributed.horovod._unflatten_into_grads":
        "the scatter half of the bit-identity reference for the pooled "
        "fusion buffer (_flatten_grads, which ZeRO fuses with) that "
        "test_perf_regression_pins.py, kept unedited, imports from here",
    "repro.simnet.events.Simulator.all_of":
        "builds the scenario of the run-vs-step pin in "
        "test_perf_regression_pins.py, kept unedited",
    "repro.simnet.events.EventQueue.peek_time":
        "the same pin's reference loop steps the queue by it",
    "repro.mpi.runtime.SpmdFailure.original":
        "error handling: the failed rank's exception, for a caller of "
        "run_spmd to handle by type",
    # Settable values no root sets.
    "repro.resilience.faults.FaultPlan.random.n_stragglers":
        "an unedited pin passes it: test_perf_regression_pins.py's "
        "degraded-fabric schedule draws stragglers from FaultPlan.random",
    "repro.resilience.faults.FaultPlan.random.n_degrades":
        "an unedited pin passes it: the same schedule's link degrades",
    "repro.resilience.faults.FaultPlan.random.slowdown":
        "an unedited pin passes it: the same schedule's straggler factor",
    "repro.core.presets.small_msa_system.cm_nodes":
        "an unedited pin passes it: test_scheduler_dispatch_oracle.py, "
        "test_scheduler_placement_table.py and test_perf_regression_pins.py "
        "size their systems by it",
    "repro.core.presets.small_msa_system.esb_nodes":
        "an unedited pin passes it: the same three pinned files",
    "repro.core.presets.small_msa_system.dam_nodes":
        "an unedited pin passes it: the same three pinned files",
    "repro.simnet.events.Simulator.resource.name":
        "an unedited pin passes it: the run-vs-step pin in "
        "test_perf_regression_pins.py names its resource",
    # Settable values that take one value in every root call
    # (test_line_roots.py's value rule).  Only DESIGN §18's five
    # exemptions may keep one.  (1) Input from outside src/: a CLI option
    # or a benchmarks/e2e call site.
    "repro.bench.runner.run_bench.areas":
        "input from outside src/: repro bench --areas",
    "repro.bench.runner.run_bench.quick":
        "input from outside src/: repro bench --quick",
    "repro.serving.request.TraceConfig.slo_deadline_s":
        "input from outside src/: repro serve --slo",
    "repro.resilience.policy.CheckpointPolicy.replicate":
        "input from outside src/: benchmarks/e2e/workloads.py's train_dp2 "
        "restore passes CheckpointPolicy(replicate=True)",
    "repro.storage.checkpoint.CheckpointManager.save.replicate":
        "input from outside src/: train_dp2's save(replicate=True)",
    "repro.resilience.faults.FaultPlan.random.repair_s":
        "input from outside src/: sched_backlog's FaultPlan.random("
        "repair_s=1200.0)",
    "repro.datasets.icu.IcuConfig.n_patients":
        "input from outside src/: the train workloads' IcuConfig",
    "repro.datasets.icu.IcuConfig.min_hours":
        "input from outside src/: the same IcuConfig",
    "repro.datasets.icu.IcuConfig.max_hours":
        "input from outside src/: the same IcuConfig",
    "repro.datasets.icu.make_imputation_windows.window":
        "input from outside src/: the train workloads' windows",
    "repro.datasets.icu.make_imputation_windows.target_channel":
        "input from outside src/: the same windows",
    "repro.ml.data.DataLoader.drop_last":
        "input from outside src/: the train workloads' DataLoaders",
    "repro.ml.models.resnet.resnet_small.in_channels":
        "input from outside src/: the train workloads' resnet_small",
    "repro.ml.models.resnet.resnet_small.n_classes":
        "input from outside src/: the same resnet_small",
    # (2) A seed: a workload input, not a policy.
    "repro.analytics.mllib.RandomForest.seed": "a seed",
    "repro.bench.runner.run_bench.seed": "a seed (repro bench --seed)",
    "repro.core.streaming.StreamingConfig.seed": "a seed",
    "repro.datasets.icu.IcuConfig.seed": "a seed",
    "repro.distributed.horovod.run_elastic_training.seed": "a seed",
    "repro.ml.data.DataLoader.seed": "a seed",
    "repro.ml.data.train_test_split.seed": "a seed",
    "repro.ml.models.autoencoder.SpectralAutoencoder.seed": "a seed",
    "repro.ml.models.covidnet.CovidNet.seed": "a seed",
    "repro.ml.models.gru_forecaster.Cnn1dForecaster.seed": "a seed",
    "repro.ml.models.gru_forecaster.GruForecaster.seed": "a seed",
    "repro.ml.models.resnet.ResNet.seed": "a seed",
    "repro.ml.models.resnet.resnet_small.seed": "a seed",
    "repro.scenarios.run_scenario.seed": "a seed (repro trace|drill --seed)",
    "repro.svm.smo.SVC.seed": "a seed",
    # (3) A field of a record type: its constancy is what a check asserts.
    "repro.scenarios.Facts.lost_requests":
        "a record field: the checks assert lost_requests == 0",
    "repro.scenarios.Facts.max_rollback_versions":
        "a record field: the rollback-bounded check asserts it",
    "repro.scenarios.Facts.brownout_path":
        "a record field: the chaos checks read the brownout path",
    "repro.scenarios.Facts.invariant_gauges":
        "a record field: the checks assert no invariant gauge is set",
    "repro.distributed.horovod.ElasticRecovery.rollback_versions":
        "a record field: the SDC drill bounds it",
    "repro.workflows.containers.ContainerImage.needs_gpu":
        "a record field: E11 expects the kernel's container to need a GPU",
    # (4) An input only a fault path varies.
    "repro.serving.replicas.ReplicaPool.place.avoid":
        "an input only a fault path varies: _placement_avoid feeds it when "
        "the detector suspects a node",
    # (5) An unedited pin passes it.
    "repro.simnet.events.Simulator.run.until":
        "an unedited pin passes it: test_perf_regression_pins.py's "
        "run(until=0.3)",
    "repro.ml.engine.simgpu.SimGpuDevice.gpu":
        "an unedited pin passes it: test_perf_regression_pins.py runs the "
        "sim-gpu:v100 device",
    "repro.core.jobs.CoAllocatedPhase.coupling_bytes":
        "an unedited pin passes it: test_perf_regression_pins.py and "
        "test_scheduler_dispatch_oracle.py build their co-allocations with it",
    "repro.core.scheduler.rank_placements.n_nodes":
        "an unedited pin passes it: test_scheduler_placement_table.py ranks "
        "four-node placements",
    # Functions with lines no root executes (test_line_roots.py).  Failure
    # and fault paths: safety code a healthy run never enters.
    "repro.bench.paper._raises":
        "an expectation's failure answer (the call did not raise)",
    "repro.bench.runner.compare_docs":
        "the regression gate's failure paths: a regression, a missing or "
        "removed case or metric, a drifted digest",
    "repro.bench.runner.CompareReport.to_text":
        "renders the gate's regressions, improvements and notes",
    "repro.bench.runner.Delta.describe":
        "one line of the gate's regression report",
    "repro.cli.cmd_bench":
        "the gate's exit 1, and the full-mode baseline directory CI names "
        "explicitly",
    "repro.cli.cmd_scenario":
        "a drill's FAILED CHECKS exit 1",
    "repro.core.scheduler.MsaScheduler._on_node_crash":
        "a crash on a node the system lacks or that is already down",
    "repro.core.scheduler.MsaScheduler._fail_running":
        "a job out of requeue attempts fails for good",
    "repro.core.scheduler.MsaScheduler._on_straggler":
        "a straggler on an idle node, or one past its phase's end",
    "repro.core.scheduler._degrade_factor":
        "a degraded link (--faults degrade=) under a transfer between "
        "modules; the pinned example's degrade meets no multi-module job",
    "repro.core.scheduler.PlacementTable.__init__":
        "the same degraded-link factor on a phase's inter-module transfer",
    "repro.core.scheduler.MsaScheduler._start_coalloc":
        "the degraded-link factor on coupling traffic, and a component "
        "refusing a badly matching module (the co-allocation waits)",
    "repro.core.scheduler.MsaScheduler._dispatch":
        "strict FCFS stops at a head that cannot start",
    "repro.distributed.horovod.run_elastic_training._rank_main."
    "_apply_checkpoint_rot":
        "a rot spec delivered twice, or one that lands before the first "
        "checkpoint",
    "repro.distributed.horovod.run_elastic_training._rank_main._recover":
        "recovery before any checkpoint exists",
    "repro.mpi.runtime.SpmdFailure.__init__":
        "a failed rank's exception, re-raised to the caller",
    "repro.mpi.transport.Transport.abort":
        "a failed rank wakes every blocked receiver",
    "repro.mpi.transport.Transport.get":
        "the abort sentinel wakes a blocked receiver",
    "repro.resilience.retry.RetryPolicy.delay":
        "the backoff cap",
    "repro.resilience.retry.RetryBudget.try_spend":
        "a retry refused by an exhausted budget",
    "repro.resilience.retry.RetryBudget.spend_forced":
        "a forced retry overdrawing the budget",
    "repro.resilience.faults.partition_cut":
        "a cut drawn empty or whole is forced to split the replicas",
    "repro.resilience.integrity.verified_grad_allreduce":
        "a checksum alarm whose audit finds no offender (float jitter)",
    "repro.resilience.integrity.CorruptionInjector.maybe_corrupt_message":
        "a plan without message bit flips",
    "repro.resilience.integrity.CorruptionInjector.corrupt_contribution":
        "a gradient corruption consumed once, not twice",
    "repro.serving.engine.ServingEngine._on_crash":
        "a crash on a node with no replica or already down, and the crash "
        "of one side of a hedged pair",
    "repro.serving.engine.ServingEngine._on_batch_done":
        "a hedged twin's duplicate response is discarded",
    "repro.serving.metrics.ServingMetrics.record_duplicate_response":
        "counts that discarded duplicate",
    "repro.serving.engine.ServingEngine._on_hedge_timer":
        "a hedge skipped while the retry budget is dry",
    "repro.serving.engine.ServingEngine._ensure_capacity":
        "nowhere to place a replica until a repair",
    "repro.serving.engine.ServingEngine._placement_avoid":
        "re-placement avoiding suspected and partition-far nodes",
    "repro.serving.engine.ServingEngine._response_hold":
        "the bound on chained partition holds",
    "repro.serving.engine.ServingEngine._on_heartbeat_tick":
        "a probe tick skips a replica that is down",
    "repro.serving.replicas.ReplicaPool.place":
        "placement with nodes to avoid, and no room left",
    "repro.serving.cache.ResultCache.abandon":
        "a failed request releases its waiters without caching a result",
    "repro.storage.checkpoint.CheckpointManager._restore_one":
        "the PFS fallback restore, and a shard-digest mismatch",
    "repro.storage.checkpoint.CheckpointManager._mark_corrupt":
        "a quarantined copy failing again counts once",
    "repro.storage.pfs.ParallelFileSystem.open":
        "opens the PFS replica of that fallback restore",
    "repro.storage.pfs.ParallelFileSystem.read_time":
        "a read over a failed OST",
    "repro.workflows.containers.ContainerRuntime.can_run":
        "a runtime's refusals: format, GPU, driver",
    "repro.ml.engine.cpu.Device._compile":
        "the bound on the plan cache",
    "repro.ml.engine.graph.LazyExpr.make":
        "the bound on the entry table",
    "repro.ml.engine.graph.bind":
        "a recorded binding that no longer fits walks (the fallback legs "
        "of test_ml_engine_match.py)",
    "repro.telemetry.metrics._NullInstrument.set":
        "the disabled registry's no-op gauge",
    "repro.telemetry.metrics._NullInstrument.observe_many":
        "the disabled registry's no-op histogram",
    # Guards for degenerate input the API accepts (empty, a single rank,
    # nothing to pad, a mode to restore): safety code as well.
    "repro.analytics.mllib.DecisionTree._grow":
        "a leaf where no threshold separates a node (duplicate rows)",
    "repro.analytics.rdd.RDD._partitions":
        "a cached RDD evaluated a second time",
    "repro.analytics.rdd.RDD.tree_aggregate":
        "the odd-count carry of the pairwise combine",
    "repro.analytics.rdd.MiniSparkContext.cached_fast_fraction":
        "nothing cached yet",
    "repro.core.energy.PowerModel.load_watts":
        "a node with no phase draws idle power",
    "repro.core.scheduler.ScheduleReport.mean_wait":
        "an empty schedule",
    "repro.core.scheduler.ScheduleReport.mean_turnaround":
        "an empty schedule",
    "repro.core.scheduler.place_standalone":
        "no module has room",
    "repro.core.system.MSASystem.inter_module_transfer_time":
        "a transfer within one module is free",
    "repro.simnet.topology.Topology.transfer_time":
        "a transfer from a node to itself is free",
    "repro.simnet.topology.Topology.path_bandwidth":
        "a route from a node to itself has no bottleneck",
    "repro.storage.pfs.StripeLayout.targets_for":
        "an empty byte range touches no OST",
    "repro.core.stats.sorted_percentile":
        "the top rank of a sample",
    "repro.datasets.icu.berlin_severity":
        "the Berlin definition's mild and no-ARDS bands",
    "repro.distributed.horovod.DistributedOptimizer._fuse_grads":
        "a parameter without a gradient contributes zeros",
    "repro.distributed.horovod.DistributedOptimizer.synchronize":
        "a fused buffer with fewer elements than ranks",
    "repro.distributed.perfmodel.InferencePerfModel.sustained_flops":
        "a replica on a CPU-only node",
    "repro.ml.data.DataLoader.__len__":
        "a partial last batch",
    "repro.ml.data.DistributedSampler.indices":
        "wrap-padding when ranks outnumber samples",
    "repro.ml.functional.pad1d":
        "a zero pad",
    "repro.ml.layers.Module.named_parameters":
        "parameters held in a list",
    "repro.ml.losses._target_tensor":
        "integer targets against an integer prediction",
    "repro.ml.losses.l2_regularisation":
        "no parameters",
    "repro.ml.models.gru_forecaster.GruForecaster.predict":
        "predict called in training mode restores it",
    "repro.ml.tensor.Tensor.__init__":
        "a Tensor or integer data wrapped in a Tensor",
    "repro.ml.tensor.Tensor._coerce":
        "a non-scalar operand",
    "repro.ml.tensor.Tensor._scatter_buffer":
        "a gradient the accumulator may not alias",
    "repro.ml.tensor.Tensor.__matmul__":
        "1-D operands",
    "repro.ml.tensor.Tensor.__getitem__":
        "fancy-index gradient scatter",
    "repro.ml.tensor.Tensor.pad2d":
        "a zero pad",
    "repro.mpi.collectives.recursive_doubling_allreduce":
        "a single rank",
    "repro.mpi.collectives.ring_allgather":
        "a single rank",
    "repro.mpi.collectives.ring_allreduce_inplace":
        "a single rank",
    "repro.mpi.collectives.ring_reduce_scatter":
        "a single rank",
    "repro.mpi.gce.GlobalCollectiveEngine.allreduce_time":
        "a single rank",
    "repro.mpi.comm.Communicator.compute":
        "a compute span when tracing is on",
    "repro.mpi.transport.wire_size":
        "a payload that is not an array",
    "repro.mpi.transport._matches":
        "a wildcard tag",
    "repro.quantum.annealer.SimulatedQuantumAnnealer._check_embeddable":
        "a sparse problem embeds without chains",
    "repro.quantum.qsvm.QuantumSVM.fit":
        "an annealer read without support vectors",
    "repro.quantum.qsvm.QSvmEnsemble.fit":
        "a member whose subset holds one class",
    "repro.resilience.detect.PhiAccrualDetector.mean_interval":
        "no heartbeat interval observed yet",
    "repro.resilience.report.ResilienceReport.mttr_s":
        "no recoveries",
    "repro.scenarios._sdc.run":
        "a run without losses to compare",
    "repro.serving.replicas.Autoscaler.decide":
        "a pool below its minimum",
    "repro.serving.request._poisson_times":
        "a draw short of the horizon is redrawn larger",
    "repro.simnet.events.Event.add_callback":
        "a callback added after the event fired runs at once",
    "repro.simnet.events.Simulator.run":
        "a run stopped at a horizon (until)",
    "repro.storage.tiers.TieredStore.put":
        "a tier with less than a byte free",
    "repro.storage.tiers.TieredStore.resident_fraction_fast":
        "an empty dataset",
    "repro.svm.cascade._sv_set":
        "a machine without support vectors",
    "repro.svm.cascade.cascade_train":
        "a merge that holds one class",
    "repro.svm.smo.SVC.fit":
        "a pair with a non-negative second derivative",
    "repro.svm.smo.SVC.decision_function":
        "an unfitted or support-vector-free machine",
    "repro.telemetry.set_registry":
        "restoring the disabled default",
    "repro.telemetry.metrics.MetricsRegistry.broken_invariants":
        "an invariant gauge above zero",
    "repro.telemetry.metrics.MetricsRegistry.to_text":
        "a histogram with no observations",
    "repro.workflows.containers.ContainerImage.digest":
        "an image with environment variables",
    # References a tier-1 test compares against.
    "repro.analytics.mllib.RandomForest.fit":
        "its serial branch is the reference of "
        "test_rdd_and_serial_forest_agree",
    "repro.resilience.faults.FaultPlan.random":
        "the straggler and degrade draws of the pinned degraded-fabric "
        "schedule (test_perf_regression_pins.py, unedited)",
    "repro.resilience.faults.FaultPlan.none":
        "the fault-free arm tier-1 tests compare faulted runs against",
    "repro.simnet.events.Simulator.step":
        "the run-vs-step pin's reference loop "
        "(test_perf_regression_pins.py, unedited)",
    "repro.simnet.events.EventQueue.pop":
        "the step loop's pop",
    "repro.simnet.events.Simulator.resource":
        "builds that pin's resource",
    "repro.mpi.modular.ModularCostModel.beta":
        "the CommCostModel surface a Communicator binds; a modular model "
        "prices each message through ptp_between instead",
    "repro.mpi.modular.ModularCostModel.ptp":
        "the same surface: Communicator hoists cost_model.ptp",
    # Patched by name: deleting one breaks the e2e benchmark (rule i).
    "repro.mpi.comm.Communicator.barrier":
        "named in benchmarks/e2e/layers.py:WRAPS (rule i)",
    "repro.mpi.collectives.dissemination_barrier":
        "what Communicator.barrier, named in benchmarks/e2e/layers.py:WRAPS "
        "(rule i), runs",
    # Library calls no root makes that tier-1 tests use; deleting one
    # deletes its tests (ROADMAP item 8).
    "repro.ml.tensor.Tensor.max":
        "max's backward: the per-primitive gradcheck "
        "(test_ml_engine_gradcheck.py)",
    "repro.ml.tensor.Tensor.transpose":
        "transpose(axes) and its backward: that gradcheck",
    "repro.ml.engine.ops.resolve_reshape":
        "reshape with -1 on the lazy engine (test_ml_engine_gradcheck.py)",
    "repro.ml.engine.ops._transpose_infer":
        "transpose on the lazy engine (the same gradcheck)",
    "repro.ml.engine.ops._exec_pow":
        "a general exponent (the pow gradcheck)",
    "repro.ml.layers.Module.zero_grad":
        "the training loops of the model tests",
    "repro.quantum.qubo.Qubo.energies":
        "test_quantum.py's test_batch_energies",
    "repro.quantum.qsvm.QuantumSVM.predict":
        "test_quantum.py's QSVM tests",
    "repro.quantum.qsvm.QuantumSVM.score":
        "the same tests",
    "repro.resilience.detect.PhiAccrualDetector.monitored":
        "test_resilience_detect.py's inventory tests",
    "repro.resilience.detect.PhiAccrualDetector.suspicion_levels":
        "the same tests",
    "repro.resilience.detect.PhiAccrualDetector.publish":
        "the same tests",
    "repro.simnet.link.Link.transfer_time":
        "test_simnet_topology.py's link tests",
    "repro.simnet.events.Process._resume":
        "a process yielding a bare delay (test_simnet_events.py)",
    "repro.telemetry.metrics.Histogram.values":
        "test_serving_engine.py's shared-registry test",
    "repro.telemetry.metrics.MetricsRegistry.value":
        "the counter reads of the telemetry tests",
    "repro.telemetry.spans.Tracer.clear":
        "test_telemetry_core.py's tracer tests",
    "repro.core.streaming.StreamingReport.latency_summary":
        "test_core_stats.py's test_report_latency_summary",
    "repro.core.stats.LatencySummary.meets_deadline":
        "test_core_stats.py and test_streaming.py's deadline tests",
}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")
_LOOSE = "<module>"

#: A reference target: ``("module", dotted)`` or ``("def", module, name)``.
Target = tuple


@dataclass
class Source:
    """One parsed file: its top-level definitions, import bindings and the
    statements that run when it is imported."""

    name: str
    tree: ast.Module
    lines: list[str]
    is_package: bool = False
    defs: dict[str, list[ast.AST]] = field(default_factory=dict)
    bindings: dict[str, Target] = field(default_factory=dict)
    imports: list[tuple[str, int]] = field(default_factory=list)
    loose: list[ast.AST] = field(default_factory=list)
    exported: set[str] = field(default_factory=set)


@dataclass
class Settable:
    """The owner of settable values: a frozen dataclass or a function."""

    module: str
    node: ast.AST
    #: The names a call to it uses (a class for its fields and ``__init__``).
    names: set[str]
    #: Every parameter after ``self`` (or every field), in order.
    params: list[str]
    #: The defaulted ones: its settable values.
    defaulted: list[str]
    fields: bool


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
#: Calls that read every field of the object they are given.
_READ_ALL = {"asdict", "astuple", "fields", "vars"}


def _is_slots(node: ast.AST) -> bool:
    return "__slots__" in _targets(node)


def _shell(node: ast.AST) -> ast.AST:
    """What a reached class itself runs: bases, decorators and the class
    body without its methods (each method is its own definition)."""
    if not isinstance(node, ast.ClassDef):
        return node
    return ast.Module(body=[*node.bases, *node.keywords,
                            *node.decorator_list,
                            *(s for s in node.body if not isinstance(s, _FUNCS)
                              and not _is_slots(s))],
                      type_ignores=[])


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if getattr(d, "id", getattr(d, "attr", None)) == "dataclass":
            return True
    return False


def _is_frozen(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Call) and any(
        k.arg == "frozen" and getattr(k.value, "value", False)
        for k in d.keywords) for d in node.decorator_list)


def _fields(node: ast.ClassDef) -> list[str]:
    """The dataclass fields a class body declares."""
    if not _is_dataclass(node):
        return []
    return [s.target.id for s in node.body
            if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
            and "ClassVar" not in ast.unparse(s.annotation)]


def _targets(node: ast.AST) -> list[str]:
    """Names a top-level assignment binds."""
    if isinstance(node, ast.Assign):
        out = []
        for t in node.targets:
            elts = t.elts if isinstance(t, ast.Tuple) else [t]
            out += [e.id for e in elts if isinstance(e, ast.Name)]
        return out
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _import_targets(node: ast.AST, package: str,
                    modules: Iterable[str]) -> list[tuple[str, Target]]:
    """``(bound name, target)`` for every name an import statement binds."""
    out = []
    if isinstance(node, ast.Import):
        for a in node.names:
            if a.asname:
                out.append((a.asname, ("module", a.name)))
            else:
                head = a.name.partition(".")[0]
                out.append((head, ("module", head)))
    elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
        base = node.module or ""
        if node.level:
            parts = package.split(".")
            parts = parts[:len(parts) - node.level + 1]
            base = ".".join(parts + ([base] if base else []))
        for a in node.names:
            sub = f"{base}.{a.name}"
            target = (("module", sub) if sub in modules
                      else ("def", base, a.name))
            out.append((a.asname or a.name, target))
    return out


class Program:
    """Every source file of ``src/repro`` plus the root files."""

    def __init__(self, files: dict[str, tuple[str, bool]]) -> None:
        # files: dotted module name → (source text, is package __init__)
        self.sources: dict[str, Source] = {}
        for name, (text, is_package) in files.items():
            self.sources[name] = Source(name, ast.parse(text),
                                        text.splitlines(), is_package)
        for src in self.sources.values():
            self._index(src)
        # Top-level definitions by name, and ``Class.member`` keys by the
        # member's own name.
        self.by_name: dict[str, list[tuple[str, str]]] = {}
        self.members: dict[str, list[tuple[str, str]]] = {}
        for src in self.sources.values():
            for name in src.defs:
                cls, _, member = name.rpartition(".")
                index = self.members if cls else self.by_name
                index.setdefault(member, []).append((src.name, name))

    def _index(self, src: Source) -> None:
        package = src.name if src.is_package else src.name.rpartition(".")[0]
        body = list(src.tree.body)
        while body:
            node = body.pop(0)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                src.defs.setdefault(node.name, []).append(node)
                if isinstance(node, ast.ClassDef):
                    for sub in node.body:
                        if isinstance(sub, _FUNCS):
                            src.defs.setdefault(f"{node.name}.{sub.name}",
                                                []).append(sub)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                noqa = "noqa" in src.lines[node.lineno - 1]
                for bound, target in _import_targets(node, package,
                                                     self.sources):
                    src.bindings[bound] = target
                    if not noqa:
                        src.imports.append((bound, node.lineno))
            elif isinstance(node, ast.If):
                src.loose.append(node.test)
                body[:0] = [*node.body, *node.orelse]
            elif isinstance(node, ast.Try):
                body[:0] = [*node.body, *node.orelse, *node.finalbody,
                            *(s for h in node.handlers for s in h.body)]
            elif (names := _targets(node)) and "__all__" in names:
                src.exported.update(
                    e.value for e in ast.walk(node)
                    if isinstance(e, ast.Constant) and isinstance(e.value, str))
            elif names and not all(_is_dunder(n) for n in names):
                for n in names:
                    if not _is_dunder(n):
                        src.defs.setdefault(n, []).append(node)
            else:
                src.loose.append(node)

    # -- resolution ---------------------------------------------------------
    def resolve(self, module: str, name: str) -> Optional[Target]:
        """What ``name`` in ``module``'s namespace refers to, followed
        through re-exports; a target outside the program (``numpy.zeros``)
        is returned as is, an unbound name is None."""
        src = self.sources.get(module)
        if src is None:
            return ("def", module, name)
        if name in src.defs:
            return ("def", module, name)
        target = src.bindings.get(name)
        if target is None:
            sub = f"{module}.{name}"
            return ("module", sub) if sub in self.sources else None
        if target[0] == "module":
            return target
        return self.resolve(target[1], target[2])

    def is_foreign(self, target: Target) -> bool:
        return target[1] not in self.sources

    def references(self, module: str, node: ast.AST
                   ) -> tuple[set[Target], set[str]]:
        """Exact targets and by-name matches that ``node`` refers to."""
        node = _shell(node)
        src = self.sources[module]
        package = src.name if src.is_package else module.rpartition(".")[0]
        local: dict[str, Target] = {}
        exact: set[Target] = set()
        names: set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Import, ast.ImportFrom)):
                for bound, target in _import_targets(sub, package,
                                                     self.sources):
                    local[bound] = target
                    exact.add(target)

        def lookup(name: str) -> Optional[Target]:
            target = local.get(name)
            if target is None:
                return self.resolve(module, name)
            if target[0] == "def":
                return self.resolve(target[1], target[2])
            return target

        def chain(attr: ast.Attribute) -> None:
            attrs = []
            base: ast.AST = attr
            while isinstance(base, ast.Attribute):
                attrs.append(base.attr)
                base = base.value
            attrs.reverse()
            if not isinstance(base, ast.Name):
                names.update(attrs)
                visit(base)
                return
            target = lookup(base.id)
            while target is not None and target[0] == "module" and attrs:
                if self.is_foreign(target):
                    return                  # numpy.zeros: exact, not ours
                next_ = self.resolve(target[1], attrs[0])
                if next_ is None:
                    break
                exact.add(target)
                target = next_
                attrs.pop(0)
            if target is not None:
                exact.add(target)
            names.update(attrs)

        def visit(tree: ast.AST) -> None:
            stack = [tree]
            while stack:
                cur = stack.pop()
                if isinstance(cur, ast.Attribute):
                    chain(cur)
                    continue
                if isinstance(cur, ast.Name) and not isinstance(cur.ctx,
                                                                ast.Store):
                    if (target := lookup(cur.id)) is not None:
                        exact.add(target)
                elif (isinstance(cur, ast.Constant)
                      and isinstance(cur.value, str)
                      and _IDENT.fullmatch(cur.value)):
                    if cur.value in self.sources:
                        exact.add(("module", cur.value))
                    names.update(cur.value.split("."))
                elif isinstance(cur, ast.keyword) and cur.arg:
                    names.add(cur.arg)
                stack.extend(ast.iter_child_nodes(cur))

        visit(node)
        return exact, names

    # -- closure ------------------------------------------------------------
    def closure(self, roots: Iterable[Target]) -> set[tuple[str, str]]:
        """Every ``(module, name)`` reached; ``name`` is ``<module>`` for a
        module's import-time statements."""
        reached: set[tuple[str, str]] = set()
        matched: set[str] = set()
        work: list[tuple[str, str]] = []

        def reach(target: Optional[Target]) -> None:
            if target is None or self.is_foreign(target) and (
                    target[0] == "def"):
                return
            if target[0] == "def":
                reach(("module", target[1]))
                target = self.resolve(target[1], target[2])
                if target is not None and target[0] == "def":
                    reach(("module", target[1]))
                    work.append((target[1], target[2]))
                else:
                    reach(target)
                return
            parts = target[1].split(".")
            for i in range(1, len(parts) + 1):
                mod = ".".join(parts[:i])
                if mod in self.sources:
                    work.append((mod, _LOOSE))

        def match(name: str) -> None:
            if name not in matched:
                matched.add(name)
                for key in self.by_name.get(name, ()):
                    reach(("def", *key))
                for module, member in self.members.get(name, ()):
                    if (module, member.partition(".")[0]) in reached:
                        work.append((module, member))

        for target in roots:
            reach(target)
        while work:
            key = work.pop()
            if key in reached:
                continue
            reached.add(key)
            module, name = key
            src = self.sources[module]
            nodes = src.loose if name == _LOOSE else src.defs[name]
            if "." in name:
                work.append((module, name.partition(".")[0]))
            elif name != _LOOSE and isinstance(nodes[0], ast.ClassDef):
                # A member is reached by being dunder, by a bare name in
                # the class body (``__call__ = run``) or by a name match.
                shell = {n.id for n in ast.walk(_shell(nodes[0]))
                         if isinstance(n, ast.Name)}
                for sub in nodes[0].body:
                    if isinstance(sub, _FUNCS) and (
                            _is_dunder(sub.name) or sub.name in matched
                            or sub.name in shell):
                        work.append((module, f"{name}.{sub.name}"))
            for node in nodes:
                exact, names = self.references(module, node)
                for target in exact:
                    reach(target)
                for n in names:
                    match(n)
        return reached

    def unreached(self, reached: set[tuple[str, str]],
                  package: str = "repro") -> list[str]:
        """Unreached definitions; a member is named only if its class is
        reached (an unreached class goes whole)."""
        return sorted(f"{src.name}.{name}"
                      for src in self.sources.values()
                      if src.name.split(".")[0] == package
                      for name in src.defs if (src.name, name) not in reached
                      and ("." not in name or (src.name, name.partition(
                          ".")[0]) in reached))

    def write_only(self, reached: set[tuple[str, str]],
                   package: str = "repro") -> list[str]:
        """``module.Owner.attr`` for every attribute or dataclass field that
        reached code stores (``=``, ``+=``) but that no reached code loads,
        as an attribute or an identifier string.  A class whose reached
        code reads ``asdict(self)`` / ``vars(self)`` / ``self.__slots__``
        (or whose base does) reads every field it has."""
        loads: set[str] = set()
        stored: set[str] = set()
        read_all: set[str] = set()
        bases: dict[str, set[str]] = {}
        # attr -> the classes that declare it as a field or store it on
        # ``self``; failing those, the definitions that store it.
        owners: dict[str, set[tuple[str, str]]] = {}
        sites: dict[str, set[tuple[str, str]]] = {}
        for module, name in reached:
            src = self.sources[module]
            nodes = src.loose if name == _LOOSE else src.defs[name]
            owner = name.partition(".")[0]
            for node in nodes:
                if isinstance(node, ast.ClassDef):
                    bases[name] = {ast.unparse(b).rpartition(".")[2]
                                   for b in node.bases} - {name}
                    for f in _fields(node):
                        owners.setdefault(f, set()).add((module, name))
                for sub in ast.walk(_shell(node)):
                    if isinstance(sub, ast.Attribute):
                        if isinstance(sub.ctx, ast.Store):
                            stored.add(sub.attr)
                            if getattr(sub.value, "id", None) == "self":
                                owners.setdefault(sub.attr, set()).add(
                                    (module, owner))
                            else:
                                sites.setdefault(sub.attr, set()).add(
                                    (module, name))
                        else:
                            loads.add(sub.attr)
                            if sub.attr in ("__slots__", "__dict__"):
                                read_all.add(owner)
                    elif (isinstance(sub, ast.Constant)
                          and isinstance(sub.value, str)
                          and _IDENT.fullmatch(sub.value)):
                        loads.update(sub.value.split("."))
                    elif (isinstance(sub, ast.Call) and getattr(
                            sub.func, "id", getattr(sub.func, "attr", None))
                          in _READ_ALL and sub.args
                          and getattr(sub.args[0], "id", None) == "self"):
                        read_all.add(owner)

        def reads_all(cls: str) -> bool:
            return cls in read_all or any(map(reads_all, bases.get(cls, ())))

        return sorted(f"{module}.{owner}.{attr}" for attr in stored - loads
                      for module, owner in owners.get(attr) or sites[attr]
                      if module.split(".")[0] == package
                      and not reads_all(owner))

    def settable(self, reached: set[tuple[str, str]],
                 package: str = "repro") -> dict[str, Settable]:
        """Every owner of settable values, by label: a ``frozen=True``
        dataclass (``module.Class``, its defaulted fields) or a reached
        function or method (``module.func``; an ``__init__`` is
        ``module.Class``, its defaulted parameters).  The one definition
        both this scanner and ``test_line_roots.py``'s value rule use."""
        owners: dict[str, Settable] = {}
        for module, name in reached:
            if name == _LOOSE or module.split(".")[0] != package:
                continue
            node = self.sources[module].defs[name][0]
            cls, _, member = name.rpartition(".")
            if isinstance(node, ast.ClassDef):
                if _is_frozen(node):
                    body = [s for s in node.body if isinstance(s, ast.AnnAssign)
                            and s.target.id in _fields(node)]
                    owners[f"{module}.{name}"] = Settable(
                        module, node, {name}, [s.target.id for s in body],
                        [s.target.id for s in body if s.value is not None],
                        True)
            elif isinstance(node, _FUNCS) and (
                    not _is_dunder(member) or member == "__init__"):
                args = node.args
                params = [a.arg for a in (*args.posonlyargs, *args.args)]
                defaulted = params[len(params) - len(args.defaults):] + [
                    a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None]
                if cls and not any(getattr(d, "id", None) == "staticmethod"
                                   for d in node.decorator_list):
                    params = params[1:]
                init = member == "__init__"
                owners[f"{module}.{cls if init else name}"] = Settable(
                    module, node, {cls} if init else {member},
                    params + [a.arg for a in args.kwonlyargs], defaulted,
                    False)
        return owners

    def unset(self, reached: set[tuple[str, str]],
              package: str = "repro") -> list[str]:
        """Every settable value (:meth:`settable`) that no reached code
        sets: ``module.Class.field``, ``module.func.param`` or, for an
        ``__init__`` parameter, ``module.Class.param``.  A call sets what
        it passes to every owner of its callee's name, a splat sets all of
        them, and a name used as a value (not called, not an attribute
        base, not an annotation or an ``isinstance`` argument) sets every
        value of what it names."""
        owners = self.settable(reached, package)
        bases: dict[str, set[str]] = {}
        for module, name in reached:
            if name == _LOOSE or module.split(".")[0] != package:
                continue
            node = self.sources[module].defs[name][0]
            if isinstance(node, ast.ClassDef):
                bases.setdefault(name, set()).update(
                    ast.unparse(b).rpartition(".")[2] for b in node.bases)
        keywords: dict[str, set[str]] = {}
        positional: dict[str, int] = {}
        as_value: set[str] = set()
        replaced: set[str] = set()

        def ancestors(names: set[str]) -> set[str]:
            """The classes a call to one of ``names`` also constructs."""
            out, todo = set(), list(names)
            while todo:
                if (cls := todo.pop()) not in out:
                    out.add(cls)
                    todo += bases.get(cls, ())
            return out

        for module, name in reached:
            src = self.sources[module]
            nodes = src.loose if name == _LOOSE else src.defs[name]
            cls = name.partition(".")[0] if "." in name else ""
            for node in nodes:
                skip: set[int] = set()
                for sub in ast.walk(_shell(node)):
                    if isinstance(sub, ast.Call):
                        skip.add(id(sub.func))
                        f = sub.func
                        target = getattr(f, "id", getattr(f, "attr", None))
                        if target in ("isinstance", "issubclass"):
                            skip.update(map(id, sub.args))
                        elif target == "field":
                            # ``default_factory=C`` calls C with nothing.
                            skip.update(id(k.value) for k in sub.keywords)
                        elif target == "replace":
                            replaced.update(k.arg for k in sub.keywords)
                        elif target is not None:
                            # ``cls(...)`` builds the class it sits in,
                            # ``super().__init__(...)`` that class's bases.
                            callees = ({cls} if target == "cls" and cls else
                                       bases.get(cls, set())
                                       if target == "__init__" and cls
                                       else {target})
                            splat = any(isinstance(a, ast.Starred)
                                        for a in sub.args) or any(
                                k.arg is None for k in sub.keywords)
                            for t in ancestors(callees):
                                if splat:
                                    as_value.add(t)
                                keywords.setdefault(t, set()).update(
                                    k.arg for k in sub.keywords)
                                positional[t] = max(positional.get(t, 0),
                                                    len(sub.args))
                    elif isinstance(sub, ast.Attribute):
                        skip.add(id(sub.value))
                        if id(sub) not in skip:
                            as_value.add(sub.attr)
                    elif isinstance(sub, ast.Name):
                        if id(sub) not in skip and isinstance(sub.ctx,
                                                              ast.Load):
                            as_value.add(sub.id)
                    elif isinstance(sub, (ast.arg, ast.AnnAssign)):
                        if sub.annotation is not None:
                            skip.update(map(id, ast.walk(sub.annotation)))
                    elif isinstance(sub, _FUNCS) and sub.returns is not None:
                        skip.update(map(id, ast.walk(sub.returns)))
        out = []
        for label, owner in owners.items():
            if owner.names & as_value:
                continue
            given = set(replaced) if owner.fields else set()
            for n in owner.names:
                given |= keywords.get(n, set())
                given.update(owner.params[:positional.get(n, 0)])
            out += [f"{label}.{p}" for p in owner.defaulted if p not in given]
        return sorted(out)

    def unused_imports(self, package: str = "repro") -> list[str]:
        """Module-level imports in ``package`` that their module never
        reads (an ``__init__`` reads what its ``__all__`` lists, a string
        annotation the names it spells)."""
        out = []
        for src in self.sources.values():
            if src.name.split(".")[0] != package:
                continue
            used = set(src.exported)
            for n in ast.walk(src.tree):
                if isinstance(n, ast.Name):
                    used.add(n.id)
                elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
                      and _IDENT.fullmatch(n.value)):
                    used.update(n.value.split("."))
            out += [f"{src.name}:{line} {bound}" for bound, line in src.imports
                    if bound not in used]
        return sorted(out)


# ---------------------------------------------------------------------------
# the repository's program and roots
# ---------------------------------------------------------------------------

def _module_name(path: Path, root: Path) -> tuple[str, bool]:
    parts = list(path.relative_to(root).with_suffix("").parts)
    is_package = parts[-1] == "__init__"
    if is_package:
        parts.pop()
    return ".".join(parts), is_package


def wraps_targets(layers_source: str) -> list[Target]:
    """The ``(module, class or None, attrs, group)`` rows of ``WRAPS``."""
    for node in ast.parse(layers_source).body:
        if isinstance(node, ast.AnnAssign) and getattr(
                node.target, "id", None) == "WRAPS":
            rows = ast.literal_eval(node.value)
            break
    else:
        raise AssertionError("layers.py has no WRAPS table")
    targets: list[Target] = []
    for module, cls, attrs, _group in rows:
        if cls:
            targets.append(("def", module, cls))
            targets += [("def", module, f"{cls}.{attr}") for attr in attrs]
        else:
            targets += [("def", module, attr) for attr in attrs]
    return targets


def registered_cases() -> list[Target]:
    """Every registered ``repro bench`` case function.  A case registered
    through a wrapper (``paper_case``) is the top-level function the
    wrapper closes over."""
    from repro.bench import runner  # noqa: F401 — registers every area
    from repro.bench.registry import all_cases

    targets = []
    for case in all_cases():
        fns = [case.run] + [cell.cell_contents
                            for cell in case.run.__closure__ or ()]
        targets += [("def", fn.__module__, fn.__name__) for fn in fns
                    if isinstance(fn, FunctionType)
                    and fn.__qualname__ == fn.__name__]
    return targets


def stale_entries(allowlist: dict[str, str], dead: Iterable[str]) -> list[str]:
    """Allowlisted names that are reached after all, or no longer exist."""
    return sorted(set(allowlist) - set(dead))


@functools.cache
def repository() -> tuple[Program, tuple[str, ...], tuple[str, ...],
                          tuple[str, ...], dict[str, Settable]]:
    """The program, what its roots do not reach, the state that what they
    reach only writes, the settable values that nothing they reach sets,
    and the owners of every settable value they reach."""
    files = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        name, is_package = _module_name(path, SRC)
        files[name] = (path.read_text(), is_package)
    root_files = {f"benchmarks.e2e.{p.stem}": p for p in E2E.glob("*.py")}
    root_files.update({f"examples.{Path(f).stem}": REPO_ROOT / "examples" / f
                       for f in EXAMPLE_ROOTS})
    files.update({name: (path.read_text(), False)
                  for name, path in root_files.items()})
    program = Program(files)
    roots: list[Target] = [("module", "repro.cli"),
                           ("def", "repro.scenarios", "SCENARIOS")]
    for name in root_files:
        roots.append(("module", name))
        roots += [("def", name, d) for d in program.sources[name].defs]
    roots += registered_cases()
    # The rows the e2e benchmark patches by name.
    roots += wraps_targets((E2E / "layers.py").read_text())
    reached = program.closure(roots)
    return (program, tuple(program.unreached(reached)),
            tuple(program.write_only(reached)), tuple(program.unset(reached)),
            program.settable(reached))


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

def test_every_definition_has_a_root():
    dead = [d for d in repository()[1] if d not in ALLOWLIST]
    assert not dead, (
        f"{len(dead)} definitions and members in src/repro are reached by "
        f"no root (delete them, or allowlist with a reason):\n  "
        + "\n  ".join(dead))


def test_no_write_only_state():
    dead = [d for d in repository()[2] if d not in ALLOWLIST]
    assert not dead, (
        f"{len(dead)} attributes in src/repro are stored but never read "
        f"(delete them, or allowlist with a reason):\n  " + "\n  ".join(dead))


def test_every_settable_value_is_set_by_a_root():
    unset = [v for v in repository()[3] if v not in ALLOWLIST]
    assert not unset, (
        f"{len(unset)} settable values in src/repro are set by no root (make "
        f"each a constant or delete it with its branch, or allowlist it with "
        f"a reason):\n  " + "\n  ".join(unset))


def defined_names() -> set[str]:
    """The qualified name of every function and class in ``src/repro``,
    nested ones included (``module.Class.method``, ``module.f.inner``)."""
    names: set[str] = set()

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (*_FUNCS, ast.ClassDef)):
                names.add(f"{prefix}.{child.name}")
                walk(child, f"{prefix}.{child.name}")
            else:
                walk(child, prefix)

    for path in (SRC / "repro").rglob("*.py"):
        walk(ast.parse(path.read_text()), _module_name(path, SRC)[0])
    return names


def test_allowlist_is_not_stale():
    """An entry these rules need is one they report.  Any other entry must
    name a function or class, for test_line_roots.py's line rule, or a
    settable value, for its value rule; its slow test fails on an entry
    that no rule needs."""
    _, dead, write_only, unset, owners = repository()
    values = tuple(f"{label}.{v}" for label, owner in owners.items()
                   for v in owner.defaulted)
    stale = stale_entries(ALLOWLIST, dead + write_only + unset + values
                          + tuple(defined_names()))
    assert not stale, f"allowlisted but reached or gone: {stale}"
    assert all(reason.strip() for reason in ALLOWLIST.values())


def test_no_unused_module_level_import():
    unused = repository()[0].unused_imports()
    assert not unused, "imports never read:\n  " + "\n  ".join(unused)


def test_every_registered_case_is_one_root():
    from repro.bench.registry import all_cases, areas

    assert {"events", "mpi", "training", "serving", "tensor", "scheduler",
            "paper"} <= set(areas())
    assert len(registered_cases()) == len(all_cases())


# -- the scanner's own spellings ------------------------------------------

def _toy(**modules: str) -> Program:
    return Program({name.replace("__", "."): (text, name.endswith("pkg"))
                    for name, text in modules.items()})


def test_scanner_flags_an_injected_unreached_def():
    program = _toy(
        pkg="from pkg.a import used, dead\n__all__ = ['used', 'dead']\n",
        pkg__a="def used():\n    return 1\n\ndef dead():\n    return 2\n",
        root="from pkg import used\nused()\n")
    reached = program.closure([("module", "root")])
    # The package re-export of ``dead`` is not a use.
    assert program.unreached(reached, "pkg") == ["pkg.a.dead"]


def test_scanner_resolves_imports_and_module_attributes_exactly():
    program = _toy(
        pkg="",
        pkg__a="X = 1\n_Y = 2\ndef f():\n    return _Y\n\ndef g():\n    pass\n",
        pkg__b="def g():\n    pass\n\ndef zeros():\n    pass\n",
        root=("import numpy as np\nimport pkg.a as a\nfrom pkg import b\n"
              "a.f()\nb.g\nnp.zeros(3)\n"))
    reached = program.closure([("module", "root")])
    # ``b.g`` and ``np.zeros`` are exact: namesakes stay unreached.
    assert program.unreached(reached, "pkg") == [
        "pkg.a.X", "pkg.a.g", "pkg.b.zeros"]


def test_scanner_matches_other_attributes_and_strings_by_name():
    program = _toy(
        pkg="",
        pkg__a=("class C:\n    def method(self):\n        pass\n"
                "def method():\n    pass\n"
                "def by_string():\n    pass\n"
                "def dead():\n    pass\n"),
        root=("from pkg.a import C\nC().method()\n"
              "getattr(C, 'by_string')\n"
              "'two words dead'\n"))
    reached = program.closure([("module", "root")])
    assert program.unreached(reached, "pkg") == ["pkg.a.dead"]


def test_scanner_keeps_a_def_reached_only_through_a_wraps_string():
    layers = ('WRAPS: list = [\n'
              '    ("pkg.a", "Patched", ("run",), None),\n'
              '    ("pkg.a", None, ("helper",), "pkg.group"),\n]\n')
    program = _toy(
        pkg="",
        pkg__a=("class Patched:\n    def run(self):\n        pass\n"
                "def helper():\n    pass\n"
                "def dead():\n    pass\n"))
    reached = program.closure(wraps_targets(layers))
    assert program.unreached(reached, "pkg") == ["pkg.a.dead"]


def test_scanner_catches_a_stale_allowlist_entry():
    program = _toy(pkg="", pkg__a="def live():\n    pass\n",
                   root="from pkg.a import live\nlive()\n")
    dead = program.unreached(program.closure([("module", "root")]), "pkg")
    allowlist = {"pkg.a.live": "reached, so stale", "pkg.a.gone": "missing"}
    assert stale_entries(allowlist, dead) == ["pkg.a.gone", "pkg.a.live"]


def test_scanner_flags_an_unused_module_level_import():
    program = _toy(
        pkg="from pkg.a import f, g\n__all__ = ['f']\n",
        pkg__a=("import os\nimport sys  # noqa: F401\n"
                "from typing import Optional\n"
                "def f(x: Optional[int]):\n    return x\n"
                "def g():\n    pass\n"))
    assert program.unused_imports("pkg") == ["pkg.a:1 os", "pkg:1 g"]


def test_scanner_flags_an_unreached_method():
    program = _toy(
        pkg="",
        pkg__a=("class C:\n    def used(self):\n        pass\n"
                "    def dead(self):\n        pass\n"),
        root="from pkg.a import C\nC().used()\n")
    reached = program.closure([("module", "root")])
    assert program.unreached(reached, "pkg") == ["pkg.a.C.dead"]


def test_scanner_keeps_methods_reached_by_attribute_string_dunder_or_wraps():
    layers = 'WRAPS: list = [("pkg.a", "C", ("patched",), None)]\n'
    program = _toy(
        pkg="",
        pkg__a=("class C:\n"
                "    def __len__(self):\n        return self.helper()\n"
                "    def helper(self):\n        return 0\n"
                "    def by_attr(self):\n        pass\n"
                "    def by_string(self):\n        pass\n"
                "    def patched(self):\n        pass\n"
                "    def dead(self):\n        pass\n"),
        root=("from pkg.a import C\nc = C()\nc.by_attr()\n"
              "getattr(c, 'by_string')\n"))
    reached = program.closure([("module", "root"), *wraps_targets(layers)])
    assert program.unreached(reached, "pkg") == ["pkg.a.C.dead"]


def test_scanner_flags_a_write_only_attribute():
    program = _toy(
        pkg="",
        pkg__a=("class C:\n    def __init__(self):\n"
                "        self.kept = 0\n        self.lost = 0\n"
                "    def tick(self):\n        self.lost += 1\n"
                "        return self.kept\n"),
        root="from pkg.a import C\nC().tick()\n")
    reached = program.closure([("module", "root")])
    assert program.write_only(reached, "pkg") == ["pkg.a.C.lost"]


def test_scanner_keeps_fields_read_through_asdict_or_slots():
    program = _toy(
        pkg="",
        pkg__a=("from dataclasses import asdict, dataclass\n"
                "@dataclass\nclass D:\n    n: int = 0\n"
                "    def bump(self):\n        self.n += 1\n"
                "    def dump(self):\n        return asdict(self)\n"
                "class S:\n    __slots__ = ('a',)\n"
                "    def __init__(self):\n        self.a = 1\n"
                "    def dump(self):\n"
                "        return [getattr(self, k) for k in self.__slots__]\n"
                "class P:\n    __slots__ = ('b',)\n"
                "    def __init__(self):\n        self.b = 1\n"),
        root=("from pkg.a import D, S, P\nd = D()\nd.bump()\nd.dump()\n"
              "S().dump()\nP()\n"))
    reached = program.closure([("module", "root")])
    assert program.write_only(reached, "pkg") == ["pkg.a.P.b"]


def test_scanner_flags_a_never_set_field_and_parameter():
    program = _toy(
        pkg="",
        pkg__a=("from dataclasses import dataclass\n"
                "@dataclass(frozen=True)\nclass Cfg:\n"
                "    rate: float\n    burst: float = 5.0\n"
                "    jitter: float = 0.1\n"
                "@dataclass\nclass Loose:\n    free: int = 0\n"
                "def run(cfg, steps=3, seed=0):\n    return Loose()\n"),
        root=("from pkg.a import Cfg, run\n"
              "run(Cfg(1.0, burst=2.0), seed=1)\n"))
    reached = program.closure([("module", "root")])
    # Only frozen fields and defaulted parameters are settable values.
    assert program.unset(reached, "pkg") == [
        "pkg.a.Cfg.jitter", "pkg.a.run.steps"]


def test_scanner_counts_keyword_position_replace_and_splat_as_set():
    program = _toy(
        pkg="",
        pkg__a=("import dataclasses\nfrom dataclasses import dataclass\n"
                "@dataclass(frozen=True)\nclass Cfg:\n"
                "    a: int = 0\n    b: int = 0\n    c: int = 0\n"
                "class Pool:\n"
                "    def __init__(self, n=1, m=2):\n        self.n = n\n"
                "    def go(self, x=0, y=0):\n        return x\n"
                "    @classmethod\n    def make(cls, k=0):\n"
                "        return cls(m=k)\n"
                "def step(lr=0.1, momentum=0.0):\n    return lr\n"),
        root=("import dataclasses\nfrom pkg.a import Cfg, Pool, step\n"
              "dataclasses.replace(Cfg(1), c=3)\n"
              "Pool(5).go(y=1)\nPool.make(k=1)\nstep(**{})\n"))
    reached = program.closure([("module", "root")])
    # Cfg.a by position, Cfg.c through replace, Pool.n by position,
    # Pool.m from ``cls(m=...)``, go's y by keyword, step's two by splat.
    assert program.unset(reached, "pkg") == [
        "pkg.a.Cfg.b", "pkg.a.Pool.go.x"]


def test_scanner_counts_a_function_passed_as_a_value_as_set():
    program = _toy(
        pkg="",
        pkg__a=("from dataclasses import dataclass, field\n"
                "def cb(evt, delay=0.0):\n    return evt\n"
                "def direct(x=1):\n    return x\n"
                "@dataclass(frozen=True)\nclass Inner:\n    t: int = 3\n"
                "@dataclass(frozen=True)\nclass Outer:\n"
                "    inner: Inner = field(default_factory=Inner)\n"),
        root=("from pkg.a import cb, direct, Outer, Inner\n"
              "print([cb])\ndirect()\n"
              "isinstance(Outer(inner=Inner(t=1)), Inner)\nOuter()\n"))
    reached = program.closure([("module", "root")])
    # ``cb`` escapes as a value; ``isinstance`` and ``default_factory``
    # do not make Inner's ``t`` set, the call ``Inner(t=1)`` does.
    assert program.unset(reached, "pkg") == ["pkg.a.direct.x"]
