"""The four seeded end-to-end runs behind ``repro trace`` and ``repro drill``.

One path for all of them — :func:`run_scenario`: build the scenario's plan,
run it inside the single :func:`repro.telemetry.capture`, reconcile the
corruption ledger and the invariant gauges, export ``trace.json`` /
``metrics.prom`` / ``summary.txt`` (drills add ``report.txt``), and judge
the run by *named checks* — pure predicates over a small :class:`Facts`
record, each stated once in :data:`CHECKS`.  Their conjunction is the only
verdict; a failed check's name is what the CLI prints.

* ``train`` — a faulted batch workload through the MSA scheduler (node
  crashes, requeues) plus a faulted elastic training run (rank kill, ULFM
  shrink, a gradient bitflip, checkpoint rot, NAM/PFS checkpoint-restart):
  tracks ``scheduler``, ``mpi``, ``train``, ``storage`` and ``faults`` on
  one simulated timebase.
* ``serve`` — online serving with admission control, micro-batching, a
  replica crash mid-run and the autoscaler active: ``serving``, ``faults``.
* ``sdc`` — elastic training with one fault of *each* silent-corruption
  class armed (per-message bitflips, one rank's gradient corrupted before
  allreduce, bit-rot on a stored checkpoint).  Verification on: every
  injected corruption is detected (in transit, at the ABFT allreduce, on
  restore, or by the at-rest scrub), the rollback stays inside the
  retention window and the loss trajectory equals a fault-free reference
  run of the same seed; offending ranks are fenced through the scheduler's
  suspect-node machinery.  The ``verify=False`` arm is the control: the
  same faults must *visibly* corrupt the trajectory, proving the injector
  is live and detection does real work.
* ``chaos`` — serving under one fault of each *partial-failure* class (a
  bipartition that delays, never drops, traffic; a gray-failed replica
  that keeps answering probes; a hard node crash) while a storage sidecar
  loses an OST.  No admitted request may be lost in either arm —
  partitions hold responses until heal, hedges never double-complete,
  crashes requeue.  Defenses on: breakers trip and hedges race (a gray
  replica *answers* its probes, so that, not heartbeat suspicion, proves
  the defense layer worked).  The ``defend=False`` arm runs the bare
  engine: zero loss must still hold (it is structural, not a defense) and
  every defense counter must read zero.  The duplicate-work budget is
  gated by the serving bench case; here it is reported for the record.

Everything is a pure function of ``(name, seed, quick, arm)``: same
arguments, byte-identical files (asserted by the tests, diffed in CI).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from repro import telemetry
from repro.core.jobs import synthetic_workload_mix
from repro.core.presets import small_msa_system
from repro.core.scheduler import MsaScheduler, schedule_workload
from repro.distributed.horovod import run_elastic_training
from repro.ml.models import MLP
from repro.resilience.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
)
from repro.resilience.integrity import (
    IntegrityConfig,
    corruption_totals,
    publish_undetected,
)
from repro.resilience.policy import CheckpointPolicy
from repro.serving import (
    AdmissionPolicy,
    AutoscalerConfig,
    DefenseConfig,
    ServingConfig,
    ServingReport,
    TraceConfig,
    simulate_serving,
)
from repro.storage.checkpoint import CheckpointManager, CheckpointRetention
from repro.storage.nam import NetworkAttachedMemory
from repro.storage.pfs import ParallelFileSystem
from repro.telemetry.export import chrome_trace_json, run_summary

WORLD_SIZE = 4
#: Checkpoint retention window == the SDC drill's rollback bound.
KEEP_LAST = 3
#: Ceiling on wasted duplicate (hedge) work, as a fraction of busy time.
DUPLICATE_WORK_BUDGET = 0.15


@dataclass(frozen=True)
class Facts:
    """Everything a verdict may depend on; a scenario fills its own part."""

    # -- reconciled by run_scenario for every scenario ---------------------
    injected: float = 0.0
    undetected: float = 0.0
    #: Gauges above zero whose name mentions "invariant".
    invariant_gauges: tuple[tuple[str, tuple, float], ...] = ()
    # -- sdc ---------------------------------------------------------------
    max_rollback_versions: int = 0
    #: Largest |loss - fault-free loss| over the trajectory (NaN never matches).
    max_loss_deviation: float = 0.0
    # -- chaos -------------------------------------------------------------
    lost_requests: int = 0
    partition_windows: int = 0
    gray_episodes: int = 0
    crashes: int = 0
    suspicion_events: int = 0
    breaker_transitions: int = 0
    hedges_issued: int = 0
    brownout_path: tuple[int, ...] = ()
    #: The sidecar reported the OST loss as ok-but-degraded, then came back.
    storage_went_gray: bool = False
    storage_recovered: bool = False

    @property
    def trajectory_matches(self) -> bool:
        return self.max_loss_deviation <= 1e-9


#: The north-star invariants, each stated once.
CHECKS: dict[str, Callable[[Facts], bool]] = {
    "all-detected": lambda f: f.undetected == 0,
    "no-invariant-gauge": lambda f: not f.invariant_gauges,
    "corruption-injected": lambda f: f.injected > 0,
    "rollback-bounded": lambda f: f.max_rollback_versions <= KEEP_LAST,
    "trajectory-matches": lambda f: f.trajectory_matches,
    "trajectory-diverges": lambda f: not f.trajectory_matches,
    "zero-loss": lambda f: f.lost_requests == 0,
    "chaos-delivered": lambda f: (f.partition_windows > 0
                                  and f.gray_episodes > 0 and f.crashes > 0),
    "storage-gray-then-recovered": lambda f: (f.storage_went_gray
                                              and f.storage_recovered),
    "defenses-engaged": lambda f: (f.breaker_transitions > 0
                                   and f.hedges_issued > 0),
    "defenses-silent": lambda f: not (f.suspicion_events
                                      or f.breaker_transitions
                                      or f.hedges_issued or f.brownout_path),
}
_EVERY_RUN = ("all-detected", "no-invariant-gauge")


# -- the training fixture (train, sdc) ---------------------------------------

def _elastic_training(seed: int, data_seed, n_steps: int, batch_size: int,
                      fault_plan, name: str, anchor_every: int = 0,
                      expect_overflow: bool = False, **integrity):
    rng = np.random.default_rng(data_seed)
    X = np.concatenate([rng.normal(-2.0, 1.0, size=(64, 2)),
                        rng.normal(2.0, 1.0, size=(64, 2))])
    Y = np.array([0] * 64 + [1] * 64)

    def model_factory():
        if expect_overflow:
            # First call on each rank thread, which starts with numpy's
            # default error state: unverified corruption overflows by
            # design, and tier-1 runs with RuntimeWarning as an error.
            np.seterr(over="ignore", invalid="ignore")
        return MLP([2, 8, 2], seed=3)

    return run_elastic_training(
        model_factory=model_factory,
        X=X, Y=Y,
        n_steps=n_steps,
        batch_size=batch_size,
        world_size=WORLD_SIZE,
        seed=seed,
        fault_plan=fault_plan,
        checkpoint_manager=CheckpointManager(
            nam=NetworkAttachedMemory(capacity_GB=1),
            pfs=ParallelFileSystem("pfs", n_targets=4),
            retention=CheckpointRetention(keep_last=KEEP_LAST,
                                          anchor_every=anchor_every)),
        checkpoint_policy=CheckpointPolicy(every_steps=4, replicate=True),
        name=name,
        **integrity,
    )


def _train(seed: int, quick: bool):
    n_jobs = 4 if quick else 8
    n_steps = 8 if quick else 16
    system = small_msa_system()
    targets = {key: module.n_nodes
               for key, module in system.compute_modules().items()}
    crashes = FaultPlan.random(seed, targets=targets, horizon_s=40_000.0,
                               n_crashes=2, repair_s=1_200.0)
    # Rank kill + silent corruption (a gradient bitflip and checkpoint rot)
    # + NAM-first checkpoint-restart, so the metrics expose the integrity
    # counters.
    train_plan = FaultPlan.rank_kills(seed, {n_steps // 2: [1]}).merged(
        FaultPlan.silent_corruption(
            seed,
            gradient={max(1, n_steps // 4): [2]},
            checkpoint_rot=[(n_steps - 2, "nam")]))

    def run(registry):
        schedule_workload(
            system,
            synthetic_workload_mix(n_jobs=n_jobs, seed=seed,
                                   mean_interarrival_s=600.0),
            fault_injector=FaultInjector(crashes),
        )
        result = _elastic_training(seed, seed, n_steps, 16, train_plan,
                                   "trace-train")
        return result, Facts(), ""
    return run


# -- sdc ---------------------------------------------------------------------

def sdc_fault_plan(seed: int, n_steps: int) -> FaultPlan:
    """One fault of each silent-corruption class, deterministically placed."""
    return FaultPlan.silent_corruption(
        seed,
        message_p=0.02,
        gradient={n_steps // 2: [2]},
        checkpoint_rot=[(n_steps - 2, "nam")],
    )


def _sdc(seed: int, quick: bool, verify: bool = True):
    n_steps = 12 if quick else 24

    def training(fault_plan, verifying, **kw):
        return _elastic_training(
            seed, [seed, 0xD1], n_steps, 32, fault_plan, "sdc-drill",
            anchor_every=8, max_rollback=KEEP_LAST,
            integrity_config=IntegrityConfig(verify=verifying), **kw)

    # The fault-free reference runs here, before the capture opens, so its
    # traffic does not pollute the corruption ledger.
    reference = training(None, False)
    scheduler = MsaScheduler(small_msa_system())

    def on_quarantine(world_ranks: tuple) -> None:
        # World rank r of the training job runs on booster node r — the
        # mapping a placement would provide; fencing goes through the
        # scheduler's suspect-node machinery.
        for r in world_ranks:
            scheduler.quarantine("esb", r)

    def run(registry):
        result = training(sdc_fault_plan(seed, n_steps), verify,
                          on_quarantine=on_quarantine,
                          expect_overflow=not verify)
        deviations = [abs(a - b)
                      for a, b in zip(result.losses, reference.losses)]
        deviations += [float("inf")] * abs(len(result.losses)
                                           - len(reference.losses))
        facts = Facts(
            max_rollback_versions=max(
                (r.rollback_versions for r in result.recoveries), default=0),
            # np.max propagates NaN, so one NaN loss can never "match".
            max_loss_deviation=(float(np.max(deviations)) if deviations
                                else 0.0))
        return result, facts, _sdc_report(
            seed, verify, n_steps, result, registry,
            sorted(scheduler.suspect_nodes("esb")), facts)
    return run


def _sdc_report(seed: int, verify: bool, n_steps: int, result, registry,
                quarantined: list, facts: Facts) -> str:
    def by_kind(name: str) -> dict[str, int]:
        return {labels[0][1]: int(inst.value)
                for labels, inst in registry.members(name)}

    injected = by_kind("integrity_corruptions_injected")
    detected = by_kind("integrity_corruptions_detected")
    lines = [
        f"SDC drill report (seed {seed}, verification "
        f"{'on' if verify else 'off'})",
        "=" * 54,
        f"steps: {n_steps}  world: {WORLD_SIZE} -> {result.final_world_size}",
        "",
        "corruption ledger:",
    ]
    for kind, n in injected.items():
        lines.append(f"  {kind:<18} injected {n:3d}   "
                     f"detected {detected.get(kind, 0):3d}")
    lines += [
        f"  undetected: {sum(injected.values()) - sum(detected.values()):g}",
        "",
        f"recoveries: {len(result.recoveries)}",
    ]
    for r in result.recoveries:
        lines.append(
            f"  step {r.failed_step}: {r.reason} by world ranks "
            f"{list(r.dead_world_ranks)} -> restored step "
            f"{r.restored_step} from {r.restored_from} "
            f"(rollback {r.rollback_versions} versions)")
    lines += [
        f"max rollback depth: {facts.max_rollback_versions} "
        f"(bound {KEEP_LAST})",
        f"scrub: {result.scrub.get('checked', 0)} checked, "
        f"{result.scrub.get('corrupt', 0)} corrupt at rest",
        f"quarantined nodes: {quarantined}",
        f"loss trajectory matches fault-free reference: "
        f"{facts.trajectory_matches} "
        f"(max deviation {facts.max_loss_deviation:.3e})",
    ]
    return "\n".join(lines) + "\n"


# -- serve, chaos ------------------------------------------------------------

def _serve(seed: int, quick: bool):
    duration = 10.0 if quick else 25.0
    config = ServingConfig(
        trace=TraceConfig(rate_per_s=120.0, duration_s=duration,
                          samples_per_request=32, seed=seed,
                          key_universe=1 << 20),
        admission=AdmissionPolicy(max_queue_depth=256),
        autoscaler=AutoscalerConfig(enabled=True, min_replicas=2,
                                    max_replicas=8),
        initial_replicas=2,
        cache_capacity=128,
    )
    plan = FaultPlan(seed=seed, specs=(
        FaultSpec(kind=FaultKind.NODE_CRASH, time=duration / 5.0,
                  module="esb", node=0, duration=5.0),))

    def run(registry):
        report = simulate_serving(config, system=small_msa_system(),
                                  fault_injector=FaultInjector(plan),
                                  registry=registry)
        return report, Facts(), ""
    return run


def chaos_fault_plan(seed: int, duration_s: float) -> FaultPlan:
    """One fault of each partial-failure class, deterministically placed.

    The gray failure and the crash target the booster nodes the first
    replicas land on (placement is deterministic), so the faults hit the
    serving plane rather than empty corners of the system.
    """
    return FaultPlan(seed=seed, specs=(
        FaultSpec(kind=FaultKind.GRAY_FAILURE,
                  time=duration_s * 0.15, module="esb", node=0,
                  duration=duration_s * 0.35,
                  magnitude=8.0, probability=0.6),
        FaultSpec(kind=FaultKind.NETWORK_PARTITION,
                  time=duration_s * 0.55,
                  duration=duration_s * 0.12,
                  probability=0.4),
        FaultSpec(kind=FaultKind.NODE_CRASH,
                  time=duration_s * 0.75, module="esb", node=1,
                  duration=duration_s * 0.2),
    ))


def _chaos(seed: int, quick: bool, defend: bool = True):
    duration = 6.0 if quick else 12.0
    config = ServingConfig(
        trace=TraceConfig(rate_per_s=120.0, duration_s=duration,
                          seed=seed, bronze_fraction=0.25),
        initial_replicas=3,
        cache_capacity=64,
        # Pinned capacity: the drill measures the defenses, not the
        # autoscaler's scale-up lag.
        autoscaler=AutoscalerConfig(enabled=False),
        defense=DefenseConfig(enabled=defend),
    )
    plan = chaos_fault_plan(seed, duration)

    def run(registry):
        pfs = ParallelFileSystem("sssm", n_targets=4)
        pfs.fail_target(seed % pfs.n_targets)
        degraded = pfs.health()
        serving = simulate_serving(config, system=small_msa_system(),
                                   fault_injector=FaultInjector(plan),
                                   registry=registry)
        pfs.recover_target(seed % pfs.n_targets)
        facts = Facts(
            lost_requests=serving.metrics.admitted - serving.metrics.completed,
            partition_windows=serving.partition_windows,
            gray_episodes=serving.gray_episodes,
            crashes=len(serving.failover_events),
            suspicion_events=serving.suspicion_events,
            breaker_transitions=serving.breaker_transitions,
            hedges_issued=serving.metrics.hedges_issued,
            brownout_path=serving.brownout_path,
            # OST loss is a *gray* state: ok but degraded.
            storage_went_gray=degraded.ok and degraded.degraded,
            storage_recovered=pfs.healthy)
        return serving, facts, _chaos_report(seed, defend, serving,
                                             degraded.detail, facts)
    return run


def _chaos_report(seed: int, defend: bool, serving: ServingReport,
                  degraded_detail: str, facts: Facts) -> str:
    m = serving.metrics
    path = "->".join(str(level) for level in (0,) + serving.brownout_path)
    return "\n".join([
        f"chaos drill report (seed {seed}, defenses "
        f"{'on' if defend else 'off'})",
        "=" * 54,
        "request ledger:",
        f"  offered {m.offered}  admitted {m.admitted}  "
        f"completed {m.completed}",
        f"  rate-limited {m.rate_limited}  shed {m.shed}",
        f"  lost: {facts.lost_requests}",
        f"  deadline misses: {m.deadline_misses}  p99 {m.p99 * 1e3:.3f} ms",
        "",
        "chaos delivered:",
        f"  partitions {serving.partition_windows}  "
        f"gray {serving.gray_episodes}  crashes {facts.crashes}  "
        f"responses held {serving.held_responses}",
        "",
        "defense engagement:",
        f"  suspicion events: {serving.suspicion_events}",
        f"  breaker transitions: {serving.breaker_transitions}",
        f"  hedges: {m.hedges_issued} issued, "
        f"{m.hedges_backup_won} backup wins "
        f"(duplicate-work ratio {serving.duplicate_work_ratio:.4f}, "
        f"budget {DUPLICATE_WORK_BUDGET:g})",
        f"  brownout path: {path}",
        f"  retry budget: {serving.retry_budget_spent:.1f} spent, "
        f"{serving.retry_budget_refused} refused, "
        f"overdraft {serving.retry_budget_overdraft:.1f}",
        "",
        "storage sidecar:",
        f"  degraded window: {degraded_detail or '(none)'} "
        f"(ok={facts.storage_went_gray})",
        f"  recovered clean: {facts.storage_recovered}",
    ]) + "\n"


# -- the registry and the one runner -----------------------------------------

@dataclass(frozen=True)
class Scenario:
    #: The CLI sub-command that owns it (``repro <command> <name>``).
    command: str
    #: ``plan(seed, quick, **arm)`` does whatever must stay out of the
    #: capture and returns ``run(registry) -> (result, Facts, report)``.
    plan: Callable[..., Callable]
    checks: tuple[str, ...] = _EVERY_RUN
    #: The one switch the scenario accepts, and the checks with it off.
    arm: str = ""
    control_checks: tuple[str, ...] = ()
    #: ``drill chaos`` never exported the ``integrity_undetected`` gauge and
    #: its ``metrics.prom`` bytes are pinned: checked, but not published.
    publishes_ledger: bool = True


_CHAOS = (*_EVERY_RUN, "zero-loss", "chaos-delivered",
          "storage-gray-then-recovered")
SCENARIOS = {
    "train": Scenario("trace", _train),
    "serve": Scenario("trace", _serve),
    "sdc": Scenario(
        "drill", _sdc, arm="verify",
        checks=(*_EVERY_RUN, "corruption-injected", "rollback-bounded",
                "trajectory-matches"),
        # The control arm *expects* undetected corruption.
        control_checks=("no-invariant-gauge", "corruption-injected",
                        "trajectory-diverges")),
    "chaos": Scenario(
        "drill", _chaos, arm="defend", publishes_ledger=False,
        checks=(*_CHAOS, "defenses-engaged"),
        control_checks=(*_CHAOS, "defenses-silent")),
}


class ScenarioUsageError(ValueError):
    """An arm the scenario does not declare."""


def _check_names(name: str, arm: dict[str, bool]) -> tuple[str, ...]:
    scenario = SCENARIOS[name]
    for flag in arm:
        if flag != scenario.arm:
            raise ScenarioUsageError(
                f"scenario {name!r} has no {flag!r} arm (--no-{flag})")
    return scenario.checks if arm.get(scenario.arm, True) \
        else scenario.control_checks


def evaluate(name: str, facts: Facts, **arm: bool
             ) -> tuple[tuple[str, bool], ...]:
    """The scenario's named checks over ``facts``, in declaration order."""
    return tuple((check, bool(CHECKS[check](facts)))
                 for check in _check_names(name, arm))


@dataclass(frozen=True)
class ScenarioRun:
    #: File name -> text, in the order the CLI writes and lists them.
    files: dict[str, str]
    checks: tuple[tuple[str, bool], ...]
    facts: Facts
    #: The scenario's own outcome (``ElasticRunResult`` / ``ServingReport``).
    result: Any
    #: The raw spans in deterministic order.
    spans: tuple[telemetry.Span, ...]

    @property
    def failed(self) -> tuple[str, ...]:
        return tuple(check for check, passed in self.checks if not passed)

    @property
    def ok(self) -> bool:
        return not self.failed


def run_scenario(name: str, seed: int = 0, quick: bool = False,
                 **arm: bool) -> ScenarioRun:
    """Run one scenario: capture → reconcile → checks → files."""
    scenario = SCENARIOS[name]
    _check_names(name, arm)       # an undeclared arm fails before the run
    run = scenario.plan(seed, quick, **arm)
    with telemetry.capture() as (tracer, registry):
        result, facts, report = run(registry)
    # Reconcile the corruption ledger before exporting, so metrics.prom /
    # summary.txt carry the integrity counters and the undetected gauge.
    injected, detected = corruption_totals(registry)
    if scenario.publishes_ledger:
        publish_undetected(registry)
    facts = replace(
        facts, injected=injected, undetected=injected - detected,
        invariant_gauges=tuple(
            registry.gauges_over(0.0, name_contains="invariant")))
    checks = evaluate(name, facts, **arm)
    spans = tuple(tracer.spans)
    files = {}
    if report:
        verdict = "PASS" if all(ok for _, ok in checks) else "FAIL"
        files["report.txt"] = f"{report}\nverdict: {verdict}\n"
    files["trace.json"] = chrome_trace_json(spans)
    files["metrics.prom"] = registry.to_prometheus()
    files["summary.txt"] = run_summary(
        spans, registry,
        title=f"repro {scenario.command} {name} (seed {seed})")
    return ScenarioRun(files, checks, facts, result, spans)
