"""Every module-level constant and record class in ``src/repro`` is used,
no state is write-only and no import is unused.

``test_line_roots.py`` runs the repository's roots under a line tracer and
fails on every function line no root executes: a dead function, method or
class with methods is its finding, as a settable value no root varies is
its value rule's.  A line tracer cannot see a definition without lines of
its own: a module-level constant, or a class without methods (a record,
an enum, an exception).  The name rule here covers those
(:meth:`Program.unused`).  One counts as used when

* its own module loads the name outside its definition;
* a module that imports it, from its module or from a package that holds
  its module, loads the name the import binds; or
* an attribute (``.NAME``) or an identifier-shaped string anywhere in the
  program spells it.

The program is ``src/repro`` plus the root files: the wall-clock benchmark
``benchmarks/e2e/*.py`` and the pinned examples (:data:`EXAMPLE_ROOTS`).
The import statement itself and a package's ``__all__`` entry are not
uses: a name that is only re-exported is not used.  The rule is scoped by
module: ``GiB`` in two modules is two constants, and neither is used
because a third module spells its own ``GiB``.

Write-only state fails as well: an attribute that the program stores
(``=``, ``+=``) but never loads, as an attribute or an identifier string.
A class that reads itself whole (``asdict(self)``, ``vars(self)``, a loop
over ``self.__slots__``) reads every field.

The same scan fails on a module-level import its module never uses
(``# noqa: F401`` marks an import kept for its side effect).

:meth:`Program.settable` is the one enumeration of settable values (a
defaulted field of a ``frozen=True`` dataclass, or a defaulted parameter
of a function or method), which ``test_line_roots.py``'s value rule
watches at run time.
"""

from __future__ import annotations

import ast
import functools
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
E2E = REPO_ROOT / "benchmarks" / "e2e"
EXAMPLE_ROOTS = ("msa_operations.py", "quickstart.py")

#: ``"module.name"`` → why it stays although a rule reports it (a function
#: or class with a line no root executes or an ``if`` that goes one way, a
#: value that takes one value, state only written): the one allowlist of
#: these rules and of ``test_line_roots.py``.
ALLOWLIST = {
    "repro.mpi.collectives.rabenseifner_allreduce":
        "the only executed twin of the closed form E9's expect selects at "
        "64 MiB; test_simnet_costs.py's differential holds the two equal",
    "repro.distributed.horovod._unflatten_into_grads":
        "the scatter half of the bit-identity reference for the pooled "
        "fusion buffer (_flatten_grads, which ZeRO fuses with) that "
        "test_perf_regression_pins.py imports from here",
    "repro.simnet.events.Simulator.all_of":
        "builds the scenario of the run-vs-step pin in "
        "test_perf_regression_pins.py",
    "repro.simnet.events.EventQueue.peek_time":
        "run_until (test_simnet_events.py) steps the queue by it to stop a "
        "run at a horizon",
    "repro.mpi.runtime.SpmdFailure.original":
        "error handling: the failed rank's exception, for a caller of "
        "run_spmd to handle by type",
    # Settable values that take one value in every root call
    # (test_line_roots.py's value rule).  Only DESIGN §18's six
    # exemptions may keep one.  (1) Input from outside src/: a CLI option
    # or a benchmarks/e2e call site.
    "repro.cli.main.argv":
        "input from outside src/: the repro console script calls main() "
        "without it, so argparse reads sys.argv",
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
    # (5) A pin passes it: an oracle input or a reference (DESIGN §18).
    "repro.resilience.faults.FaultPlan.random.slowdown":
        "a pin passes it: test_perf_regression_pins.py's degraded-fabric "
        "schedule sets the straggler factor",
    "repro.core.presets.small_msa_system.cm_nodes":
        "a pin passes it: test_scheduler_dispatch_oracle.py, "
        "test_scheduler_placement_table.py and test_perf_regression_pins.py "
        "size their systems by it",
    "repro.core.presets.small_msa_system.esb_nodes":
        "a pin passes it: the same three pinned files",
    "repro.core.presets.small_msa_system.dam_nodes":
        "a pin passes it: the same three pinned files",
    "repro.core.jobs.CoAllocatedPhase.coupling_bytes":
        "a pin passes it: test_perf_regression_pins.py and "
        "test_scheduler_dispatch_oracle.py build their co-allocations with it",
    "repro.core.scheduler.rank_placements.n_nodes":
        "a pin passes it: test_scheduler_placement_table.py ranks "
        "four-node placements",
    # (6) A reference: the default's leg is what a tier-1 test compares
    # against.
    "repro.analytics.mllib.RandomForest.fit.ctx":
        "a reference: its None leg is the serial forest "
        "test_rdd_and_serial_forest_agree compares the RDD fit with",
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
    "repro.core.scheduler.MsaScheduler._on_link_recover":
        "overlapping degrades: the module stays degraded while another "
        "degrade of it holds",
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
    "repro.serving.engine.ServingEngine._cancel_hedge_losers":
        "a hedge loser whose side already finished or crashed",
    "repro.serving.engine.ServingEngine._on_tick":
        "a scale-up that finds no room to place a replica",
    "repro.serving.cache.ResultCache.abandon":
        "a failed request releases its waiters without caching a result",
    "repro.storage.checkpoint.CheckpointManager._restore_one":
        "the PFS fallback restore, and a shard-digest mismatch",
    "repro.storage.checkpoint.CheckpointManager._mark_corrupt":
        "a quarantined copy failing again counts once",
    "repro.storage.checkpoint.CheckpointManager.corrupt":
        "rot striking an already-rotten copy counts once",
    "repro.storage.pfs.ParallelFileSystem.open":
        "opens the PFS replica of that fallback restore",
    "repro.storage.pfs.ParallelFileSystem.read_time":
        "a read over a failed OST",
    "repro.workflows.containers.ContainerRuntime.can_run":
        "a runtime's refusals: format, GPU, driver",
    "repro.telemetry.metrics._NullInstrument.set":
        "the disabled registry's no-op gauge",
    "repro.telemetry.metrics._NullInstrument.observe_many":
        "the disabled registry's no-op histogram",
    # Guards for degenerate input the API accepts (empty, a single rank,
    # nothing to pad, a mode to restore): safety code as well.
    "repro.analytics.mllib.DecisionTree._grow":
        "a leaf where no threshold separates a node (duplicate rows)",
    "repro.analytics.mllib.DecisionTree._best_split":
        "data with a single feature: it is the only candidate",
    "repro.analytics.rdd._sizeof":
        "a partition of more than 64 items is sized from a sample",
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
    "repro.storage.pfs.StripeLayout.targets_for":
        "an empty byte range touches no OST",
    "repro.core.stats.sorted_percentile":
        "the top rank of a sample",
    "repro.datasets.icu.berlin_severity":
        "the Berlin definition's mild and no-ARDS bands",
    "repro.distributed.deepspeed.ZeroStage1Optimizer._grad_shard":
        "a single rank",
    "repro.distributed.deepspeed.ZeroStage2Optimizer._grad_shard":
        "a second step reuses the moments its first step sized",
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
    "repro.ml.layers.Module.named_parameters":
        "parameters held in a list",
    "repro.ml.losses.l2_regularisation":
        "no parameters",
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
    "repro.mpi.collectives.binomial_reduce":
        "a rank count that is not a power of two",
    "repro.mpi.collectives.recursive_doubling_allreduce":
        "a single rank",
    "repro.mpi.collectives.ring_allgather":
        "a single rank",
    "repro.mpi.gce.GlobalCollectiveEngine.allreduce_time":
        "a single rank",
    "repro.mpi.comm.Communicator.compute":
        "a compute span when tracing is on",
    "repro.mpi.transport.wire_size":
        "a payload that is not an array",
    "repro.mpi.transport._matches":
        "a wildcard tag",
    "repro.mpi.comm.Communicator.recv":
        "a wildcard tag (ANY_TAG), which a user tag check would refuse",
    "repro.ml.layers.Module._children":
        "a list of parameters, not modules (named_parameters' list case)",
    "repro.quantum.annealer.SimulatedQuantumAnnealer._check_embeddable":
        "a sparse problem embeds without chains",
    "repro.quantum.annealer.AnnealResult.lowest":
        "duplicate anneal samples",
    "repro.quantum.qsvm.QuantumSVM.fit":
        "an annealer read without support vectors",
    "repro.quantum.qsvm.QSvmEnsemble.fit":
        "a member whose subset holds one class",
    "repro.resilience.detect.PhiAccrualDetector.mean_interval":
        "no heartbeat interval observed yet",
    "repro.resilience.report.ResilienceReport.mttr_s":
        "no recoveries",
    "repro.resilience.report.ResilienceReport.publish_metrics":
        "no recoveries: no MTTR gauge",
    "repro.scenarios._sdc.run":
        "a run without losses to compare",
    "repro.serving.engine.ServingReport.to_text":
        "a serve with no completed request has no latency rows",
    "repro.serving.replicas.Autoscaler.decide":
        "a pool below its minimum",
    "repro.serving.request._poisson_times":
        "a draw short of the horizon is redrawn larger",
    "repro.simnet.events.Event.add_callback":
        "a callback added after the event fired runs at once",
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
    "repro.telemetry.metrics.MetricsRegistry.to_prometheus":
        "a histogram with no observations has no quantile rows",
    "repro.workflows.containers.ContainerImage.digest":
        "an image with environment variables",
    # References a tier-1 test compares against.
    "repro.analytics.mllib.RandomForest.fit":
        "its serial branch is the reference of "
        "test_rdd_and_serial_forest_agree",
    "repro.resilience.faults.FaultPlan.none":
        "the fault-free arm tier-1 tests compare faulted runs against",
    "repro.simnet.events.Simulator.step":
        "the run-vs-step pin's reference loop "
        "(test_perf_regression_pins.py), and run_until's",
    "repro.simnet.events.EventQueue.pop":
        "the step loop's pop",
    "repro.simnet.events.Simulator.resource":
        "builds that pin's resource",
    # Patched by name: deleting one breaks the e2e benchmark (rule i).
    "repro.mpi.comm.Communicator.barrier":
        "named in benchmarks/e2e/layers.py:WRAPS (rule i)",
    "repro.mpi.collectives.dissemination_barrier":
        "what Communicator.barrier, named in benchmarks/e2e/layers.py:WRAPS "
        "(rule i), runs",
    # Every primitive's whole contract on both engines: its backward, and
    # the lazy engine's shape rule and executor for every argument the API
    # accepts.  The roots use a subset; test_ml_engine_gradcheck.py checks
    # each primitive against finite differences and lazy against eager.
    # Safety code: without it a gradient would be silently wrong, or an
    # argument would work on one engine only.
    "repro.ml.tensor.Tensor.max":
        "the gradient of a max no caller detaches (log_softmax detaches "
        "its shift)",
    "repro.ml.tensor.Tensor.transpose":
        "the gradient through a transpose (E8's CNN transposes its input, "
        "which needs none)",
    "repro.ml.tensor.Tensor.tanh":
        "the tanh primitive (no root's model uses it since the tensor "
        "bench's fusion chain went; the GRU cell calls np.tanh itself)",
    "repro.ml.engine.ops._exec_tanh":
        "the tanh primitive's executor",
    "repro.ml.tensor.Tensor.sigmoid":
        "the sigmoid primitive (the GRU cell calls its executor directly)",
    "repro.ml.tensor.Tensor.numpy":
        "the public accessor of a tensor's array (roots read .data)",
    "repro.ml.engine.ops._reshape_infer":
        "the lazy engine's shape rule for reshape, -1 included, as eager "
        "NumPy accepts it",
    "repro.ml.engine.ops._transpose_infer":
        "the lazy engine's shape rule for transpose",
    "repro.ml.engine.ops._exec_pow":
        "an exponent other than 2 and 0.5 (those take a faster ufunc)",
    # The same contract for what needs no gradient: a backward closure
    # skips an operand with requires_grad off, and an optimizer a
    # parameter no loss reached (test_tensor_grads and gradcheck freeze
    # operands; test_ml_engine_match.py freezes a layer mid-run).
    "repro.ml.tensor.Tensor.__truediv__.backward":
        "a quotient whose numerator or denominator needs no gradient",
    "repro.ml.tensor.Tensor._matmul2d.backward":
        "a product whose right operand needs no gradient",
    "repro.ml.tensor.Tensor.stack.backward":
        "a stacked tensor that needs no gradient",
    "repro.ml.functional.conv2d.backward":
        "a convolution whose weight needs no gradient",
    "repro.ml.functional.max_pool2d":
        "pooling an input that needs no gradient builds no scatter index",
    "repro.ml.optim.SGD.step":
        "a parameter without a gradient (frozen, or no loss reached it)",
    "repro.ml.optim.Adam.step":
        "a parameter without a gradient (frozen, or no loss reached it)",
}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")
_LOOSE = "<module>"


@dataclass
class Source:
    """One parsed file: its top-level definitions and imports, and the
    statements that run when it is imported."""

    name: str
    tree: ast.Module
    lines: list[str]
    is_package: bool = False
    defs: dict[str, list[ast.AST]] = field(default_factory=dict)
    imports: list[tuple[str, int]] = field(default_factory=list)
    loose: list[ast.AST] = field(default_factory=list)
    exported: set[str] = field(default_factory=set)

    @property
    def package(self) -> str:
        return self.name if self.is_package else self.name.rpartition(".")[0]


@dataclass
class Settable:
    """The owner of settable values: a frozen dataclass or a function."""

    module: str
    node: ast.AST
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


def _is_ident(node: ast.AST) -> bool:
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and _IDENT.fullmatch(node.value) is not None)


def _shell(node: ast.AST) -> ast.AST:
    """A class without its methods (each method is its own definition):
    its bases, decorators and the rest of its body."""
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


def _bindings(node: ast.AST, package: str) -> list[tuple[str, str, str]]:
    """``(module, name, bound name)`` for every name an import statement
    binds; ``module`` is empty for a plain ``import``."""
    if isinstance(node, ast.Import):
        return [("", a.name, a.asname or a.name.partition(".")[0])
                for a in node.names]
    if not isinstance(node, ast.ImportFrom) or node.module == "__future__":
        return []
    base = node.module or ""
    if node.level:
        parts = package.split(".")
        parts = parts[:len(parts) - node.level + 1]
        base = ".".join(parts + ([base] if base else []))
    return [(base, a.name, a.asname or a.name) for a in node.names]


def _loads(tree: ast.AST) -> Counter:
    return Counter(n.id for n in ast.walk(tree)
                   if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))


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

    def _index(self, src: Source) -> None:
        body = list(src.tree.body)
        while body:
            node = body.pop(0)
            if isinstance(node, (*_FUNCS, ast.ClassDef)):
                src.defs.setdefault(node.name, []).append(node)
                if isinstance(node, ast.ClassDef):
                    for sub in node.body:
                        if isinstance(sub, _FUNCS):
                            src.defs.setdefault(f"{node.name}.{sub.name}",
                                                []).append(sub)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                if "noqa" not in src.lines[node.lineno - 1]:
                    src.imports += [(bound, node.lineno) for *_, bound
                                    in _bindings(node, src.package)]
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

    def definitions(self) -> list[tuple[str, str]]:
        """Every ``(module, name)``: each definition and each module's
        import-time statements (``name`` is ``<module>``)."""
        return [(src.name, name) for src in self.sources.values()
                for name in (_LOOSE, *src.defs)]

    def unused(self, package: str = "repro") -> list[str]:
        """``module.NAME`` of every module-level constant and class without
        methods in ``package`` that nothing uses (the name rule)."""
        spelled: set[str] = set()
        loads: dict[str, Counter] = {}
        imports: list[tuple[str, str, str, str]] = []
        for src in self.sources.values():
            loads[src.name] = _loads(src.tree)
            stack: list[ast.AST] = [src.tree]
            while stack:
                node = stack.pop()
                if "__all__" in _targets(node):
                    continue                # a re-export is not a use
                if isinstance(node, ast.Attribute):
                    spelled.add(node.attr)
                elif _is_ident(node):
                    spelled.update(node.value.split("."))
                imports += [(src.name, *b)
                            for b in _bindings(node, src.package)]
                stack.extend(ast.iter_child_nodes(node))
        out = []
        for src in self.sources.values():
            if src.name.split(".")[0] != package:
                continue
            for name, nodes in src.defs.items():
                if ("." in name or isinstance(nodes[0], _FUNCS)
                        or isinstance(nodes[0], ast.ClassDef) and any(
                            isinstance(s, _FUNCS) for s in nodes[0].body)):
                    continue                # the line rule's
                own = sum((_loads(n) for n in nodes), Counter())[name]
                if (name in spelled or loads[src.name][name] > own or any(
                        n == name and loads[by][bound]
                        and (src.name + ".").startswith(base + ".")
                        for by, base, n, bound in imports)):
                    continue
                out.append(f"{src.name}.{name}")
        return sorted(out)

    def write_only(self, package: str = "repro") -> list[str]:
        """``module.Owner.attr`` for every attribute or dataclass field that
        the program stores (``=``, ``+=``) but never loads, as an attribute
        or an identifier string.  A class that reads ``asdict(self)`` /
        ``vars(self)`` / ``self.__slots__`` (or whose base does) reads
        every field it has."""
        loads: set[str] = set()
        stored: set[str] = set()
        read_all: set[str] = set()
        bases: dict[str, set[str]] = {}
        # attr -> the classes that declare it as a field or store it on
        # ``self``; failing those, the definitions that store it.
        owners: dict[str, set[tuple[str, str]]] = {}
        sites: dict[str, set[tuple[str, str]]] = {}
        for module, name in self.definitions():
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
                    elif _is_ident(sub):
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

    def settable(self, package: str = "repro") -> dict[str, Settable]:
        """Every owner of settable values, by label: a ``frozen=True``
        dataclass (``module.Class``, its defaulted fields) or a function or
        method (``module.func``; an ``__init__`` is ``module.Class``, its
        defaulted parameters).  ``test_line_roots.py``'s value rule
        watches them."""
        owners: dict[str, Settable] = {}
        for module, name in self.definitions():
            if name == _LOOSE or module.split(".")[0] != package:
                continue
            node = self.sources[module].defs[name][0]
            cls, _, member = name.rpartition(".")
            if isinstance(node, ast.ClassDef):
                if _is_frozen(node):
                    body = [s for s in node.body if isinstance(s, ast.AnnAssign)
                            and s.target.id in _fields(node)]
                    owners[f"{module}.{name}"] = Settable(
                        module, node, [s.target.id for s in body],
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
                owners[f"{module}.{cls if member == '__init__' else name}"] = (
                    Settable(module, node,
                             params + [a.arg for a in args.kwonlyargs],
                             defaulted, False))
        return owners

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
                elif _is_ident(n):
                    used.update(n.value.split("."))
            out += [f"{src.name}:{line} {bound}" for bound, line in src.imports
                    if bound not in used]
        return sorted(out)


# ---------------------------------------------------------------------------
# the repository's program
# ---------------------------------------------------------------------------

def _module_name(path: Path, root: Path) -> tuple[str, bool]:
    parts = list(path.relative_to(root).with_suffix("").parts)
    is_package = parts[-1] == "__init__"
    if is_package:
        parts.pop()
    return ".".join(parts), is_package


def stale_entries(allowlist: dict[str, str], dead: Iterable[str]) -> list[str]:
    """Allowlisted names that are reached after all, or no longer exist."""
    return sorted(set(allowlist) - set(dead))


@functools.cache
def repository() -> tuple[Program, tuple[str, ...], tuple[str, ...],
                          dict[str, Settable]]:
    """The program, its constants and records that nothing uses, the state
    it only writes, and the owners of every settable value."""
    files = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        name, is_package = _module_name(path, SRC)
        files[name] = (path.read_text(), is_package)
    roots = [*E2E.glob("*.py"),
             *(REPO_ROOT / "examples" / f for f in EXAMPLE_ROOTS)]
    files.update({_module_name(p, REPO_ROOT)[0]: (p.read_text(), False)
                  for p in roots})
    program = Program(files)
    return (program, tuple(program.unused()), tuple(program.write_only()),
            program.settable())


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

def test_every_definition_has_a_root():
    """The name rule: every constant and record class is used (a function,
    method or class with methods is ``test_line_roots.py``'s)."""
    dead = [d for d in repository()[1] if d not in ALLOWLIST]
    assert not dead, (
        f"{len(dead)} module-level constants and classes without methods in "
        f"src/repro are used by nothing (delete them, or allowlist with a "
        f"reason):\n  " + "\n  ".join(dead))


def test_no_write_only_state():
    dead = [d for d in repository()[2] if d not in ALLOWLIST]
    assert not dead, (
        f"{len(dead)} attributes in src/repro are stored but never read "
        f"(delete them, or allowlist with a reason):\n  " + "\n  ".join(dead))


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
    name a function or class, for test_line_roots.py's line and branch
    rules, or a settable value, for its value rule; its slow test fails
    on an entry that no rule needs."""
    _, dead, write_only, owners = repository()
    values = tuple(f"{label}.{v}" for label, owner in owners.items()
                   for v in owner.defaulted)
    stale = stale_entries(ALLOWLIST, dead + write_only + values
                          + tuple(defined_names()))
    assert not stale, f"allowlisted but reached or gone: {stale}"
    assert all(reason.strip() for reason in ALLOWLIST.values())


def test_no_unused_module_level_import():
    unused = repository()[0].unused_imports()
    assert not unused, "imports never read:\n  " + "\n  ".join(unused)


# -- the scanner's own spellings ------------------------------------------

def _toy(**modules: str) -> Program:
    return Program({name.replace("__", "."): (text, name.endswith("pkg"))
                    for name, text in modules.items()})


def test_scanner_flags_an_injected_unreached_def():
    program = _toy(
        pkg=("from pkg.a import USED, DEAD, Dead, Used\n"
             "__all__ = ['USED', 'DEAD', 'Dead', 'Used']\n"),
        pkg__a=("USED = 1\nDEAD = 2\n"
                "class Used:\n    x: int = 0\n"
                "class Dead(Exception):\n    pass\n"
                "class Live:\n    def run(self):\n        return DEAD_TOO\n"
                "DEAD_TOO = 3\n"),
        root="from pkg import USED, Used\nprint(USED, Used())\n")
    # The package re-export of ``DEAD`` and ``Dead`` is not a use; a class
    # with methods, and what its methods load, are the line rule's.
    assert program.unused("pkg") == ["pkg.a.DEAD", "pkg.a.Dead"]


def test_scanner_resolves_imports_and_module_attributes_exactly():
    program = _toy(
        pkg="",
        pkg__a="GiB = 2 ** 30\n_Y = 2\ndef f():\n    return _Y * GiB\n",
        pkg__b="GiB = 2 ** 30\nKiB = 2 ** 10\n",
        pkg__c="from pkg.b import KiB as K\nSIZE = 4 * K\n",
        root="from pkg.c import SIZE\nSIZE\n")
    # ``GiB`` is two constants: pkg.a loads its own, and that keeps pkg.b's
    # alive no more than an import of pkg.b's ``KiB`` does.
    assert program.unused("pkg") == ["pkg.b.GiB"]


def test_scanner_matches_other_attributes_and_strings_by_name():
    program = _toy(
        pkg="",
        pkg__a=("BY_ATTR = 1\nBY_STRING = 2\nDEAD = 3\n"
                "class Mode:\n    FAST = 'fast'\n"),
        root=("import pkg.a as a\nobj = object()\nobj.BY_ATTR\n"
              "getattr(a, 'BY_STRING')\n'two words DEAD'\n"
              "'pkg.a.Mode'\n"))
    assert program.unused("pkg") == ["pkg.a.DEAD"]


def test_scanner_keeps_a_def_reached_only_through_a_wraps_string():
    program = _toy(
        pkg="",
        pkg__a=("class Patched:\n    pass\n"
                "HELPER = 1\nDEAD = 2\n"),
        layers=('WRAPS: list = [\n'
                '    ("pkg.a", "Patched", ("run",), None),\n'
                '    ("pkg.a", None, ("HELPER",), "pkg.group"),\n]\n'))
    assert program.unused("pkg") == ["pkg.a.DEAD"]


def test_scanner_catches_a_stale_allowlist_entry():
    program = _toy(pkg="", pkg__a="LIVE = 1\nDEAD = 2\n",
                   root="from pkg.a import LIVE\nLIVE\n")
    dead = program.unused("pkg")
    allowlist = {"pkg.a.LIVE": "used, so stale", "pkg.a.gone": "missing",
                 "pkg.a.DEAD": "needed"}
    assert stale_entries(allowlist, dead) == ["pkg.a.LIVE", "pkg.a.gone"]


def test_scanner_flags_an_unused_module_level_import():
    program = _toy(
        pkg="from pkg.a import f, g\n__all__ = ['f']\n",
        pkg__a=("import os\nimport sys  # noqa: F401\n"
                "from typing import Optional\n"
                "def f(x: Optional[int]):\n    return x\n"
                "def g():\n    pass\n"))
    assert program.unused_imports("pkg") == ["pkg.a:1 os", "pkg:1 g"]


def test_scanner_flags_a_write_only_attribute():
    program = _toy(
        pkg="",
        pkg__a=("class C:\n    def __init__(self):\n"
                "        self.kept = 0\n        self.lost = 0\n"
                "    def tick(self):\n        self.lost += 1\n"
                "        return self.kept\n"),
        root="from pkg.a import C\nC().tick()\n")
    assert program.write_only("pkg") == ["pkg.a.C.lost"]


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
    assert program.write_only("pkg") == ["pkg.a.P.b"]
