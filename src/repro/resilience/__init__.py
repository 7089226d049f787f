"""Fault injection and recovery for the MSA stack.

The paper's experience claim — MSA workloads keep running at 96–128 GPU
scale across co-allocated modules — holds only because the surrounding
stack tolerates node loss and stragglers.  This package supplies that
layer for the simulation:

* :mod:`repro.resilience.faults` — seeded :class:`FaultPlan`s and the
  :class:`FaultInjector` that turns them into simulated events,
* :mod:`repro.resilience.integrity` — silent-corruption injection and
  detection: checksummed message envelopes, the ABFT-verified allreduce
  (:class:`IntegrityConfig`, :class:`CorruptionInjector`) and the
  injected/detected/undetected reconciliation,
* :mod:`repro.resilience.detect` — the phi-accrual failure detector and
  structured :class:`ComponentHealth` reports shared by the serving,
  scheduling and storage planes,
* :mod:`repro.resilience.retry` — exponential backoff with deterministic
  jitter (:class:`RetryPolicy`),
* :mod:`repro.resilience.policy` — checkpoint cadence/placement
  (:class:`CheckpointPolicy`, NAM-first with PFS fallback),
* :mod:`repro.resilience.report` — fault vs recovery accounting
  (:class:`ResilienceReport`: MTTR, retries, lost work).

The end-to-end drills that exercise the layer (``repro drill sdc|chaos``)
are scenarios of :mod:`repro.scenarios`.

With an empty plan the layer is zero-cost: no events are scheduled and
every existing workload produces byte-identical results.
"""

from repro.resilience.detect import (
    ComponentHealth,
    PhiAccrualDetector,
)
from repro.resilience.faults import (
    DATA_FAULTS,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    partition_cut,
)
from repro.resilience.integrity import (
    CorruptionInjector,
    GradientCorruptionError,
    IntegrityConfig,
    IntegrityContext,
    corruption_totals,
    publish_undetected,
    verified_grad_allreduce,
)
from repro.resilience.policy import CheckpointPolicy
from repro.resilience.report import (
    FailoverEvent,
    FailureEvent,
    RecoveryEvent,
    RequeueEvent,
    ResilienceReport,
)
from repro.resilience.retry import RetryBudget, RetryPolicy

__all__ = [
    "ComponentHealth",
    "PhiAccrualDetector",
    "DATA_FAULTS",
    "partition_cut",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "CorruptionInjector",
    "GradientCorruptionError",
    "IntegrityConfig",
    "IntegrityContext",
    "corruption_totals",
    "publish_undetected",
    "verified_grad_allreduce",
    "CheckpointPolicy",
    "FailoverEvent",
    "FailureEvent",
    "RecoveryEvent",
    "RequeueEvent",
    "ResilienceReport",
    "RetryBudget",
    "RetryPolicy",
]
