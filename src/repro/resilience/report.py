"""Recovery-cost accounting: injected faults vs observed recoveries.

Serviceability claims need numbers: how long jobs took to get rescheduled
after a node died (MTTR), how many retries the workload burned, and how
much already-computed work was lost.  The scheduler and the elastic
trainer both feed a :class:`ResilienceReport`, and the bench/property
suites assert recovery cost against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.resilience.faults import FaultSpec


@dataclass(frozen=True)
class FailureEvent:
    """A job's phase was killed by an injected fault."""

    job_name: str
    phase_index: int
    time: float
    module_key: str
    node: int
    lost_node_seconds: float
    attempt: int                   # failure number for this job (1-based)


@dataclass(frozen=True)
class RequeueEvent:
    """A failed job was put back in the queue after backoff."""

    job_name: str
    attempt: int
    backoff_s: float
    time: float                    # when the requeue was scheduled


@dataclass(frozen=True)
class FailoverEvent:
    """An online-serving replica died and its in-flight work was drained.

    The serving engine records one of these per replica crash: which
    replica, where it lived, how many admitted requests were in flight at
    the kill, and the backoff applied before they re-entered the queue
    (driven by the shared :class:`~repro.resilience.retry.RetryPolicy`).
    A correct drill ends with every drained request completed on a
    surviving replica — requests lost would show up as an accounting gap
    the serving tests refuse.
    """

    replica_id: int
    module_key: str
    node: int
    time: float
    requests_drained: int
    backoff_s: float


@dataclass(frozen=True)
class RecoveryEvent:
    """A previously failed job started running again."""

    job_name: str
    attempt: int
    failed_at: float
    restarted_at: float

    @property
    def time_to_recover(self) -> float:
        return self.restarted_at - self.failed_at


@dataclass
class ResilienceReport:
    """Everything that went wrong and how the system coped."""

    faults_injected: list[tuple[float, "FaultSpec"]] = field(default_factory=list)
    failures: list[FailureEvent] = field(default_factory=list)
    requeues: list[RequeueEvent] = field(default_factory=list)
    recoveries: list[RecoveryEvent] = field(default_factory=list)
    jobs_failed_permanently: list[str] = field(default_factory=list)
    repairs: list[tuple[float, str, int]] = field(default_factory=list)

    # -- headline metrics ----------------------------------------------------
    @property
    def total_retries(self) -> int:
        return len(self.requeues)

    @property
    def lost_node_seconds(self) -> float:
        return sum(f.lost_node_seconds for f in self.failures)

    @property
    def mttr_s(self) -> Optional[float]:
        """Mean time from a failure to the job running again."""
        if not self.recoveries:
            return None
        return sum(r.time_to_recover for r in self.recoveries) / len(self.recoveries)

    def publish_metrics(self, reg) -> None:
        """Publish the report's headline numbers into a metrics registry."""
        reg.gauge("resilience_faults_injected").set(len(self.faults_injected))
        reg.gauge("resilience_phase_failures").set(len(self.failures))
        reg.gauge("resilience_retries").set(self.total_retries)
        reg.gauge("resilience_recoveries").set(len(self.recoveries))
        reg.gauge("resilience_permanent_failures").set(
            len(self.jobs_failed_permanently))
        reg.gauge("resilience_lost_node_seconds").set(self.lost_node_seconds)
        mttr = self.mttr_s
        if mttr is not None:
            reg.gauge("resilience_mttr_seconds").set(mttr)

    def summary(self) -> str:
        rows = [
            "resilience report:",
            f"  faults injected   : {len(self.faults_injected)}",
            f"  phase failures    : {len(self.failures)}",
            f"  retries           : {self.total_retries}",
            f"  recoveries        : {len(self.recoveries)}",
            f"  permanent failures: {len(self.jobs_failed_permanently)}",
            f"  lost work         : {self.lost_node_seconds:,.0f} node-s",
        ]
        mttr = self.mttr_s
        rows.append(f"  MTTR              : "
                    + (f"{mttr:,.0f} s" if mttr is not None else "n/a"))
        return "\n".join(rows)
