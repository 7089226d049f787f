"""(Near) real-time RS processing — the Fig. 3 A workload.

The paper's RS application list opens with "'(near) real-time processing'
in case of earth disasters": satellite scenes arrive continuously and must
be classified within a latency bound.  This module models that pipeline on
the discrete-event engine: a Poisson scene stream, a pool of inference
servers (ESB nodes), FCFS queueing, and per-scene latency accounting.

Outputs are the service metrics a real-time deployment is judged on —
latency percentiles, queue depth, utilisation — and
:func:`capacity_for_deadline` answers the provisioning question ("how many
ESB nodes keep p99 under the deadline at this scene rate?").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.stats import percentile
from repro.simnet.events import Resource, Simulator


#: Lognormal sigma on the per-scene service time.
SERVICE_JITTER = 0.1
#: Largest pool :func:`capacity_for_deadline` tries.
MAX_SERVERS = 256
#: Simulated seconds of the stream each capacity candidate is tried on.
PLANNING_DURATION_S = 800.0


@dataclass(frozen=True)
class StreamingConfig:
    """One real-time scenario."""

    arrival_rate_per_s: float          # Poisson scene arrivals
    service_time_s: float              # per-scene inference time on 1 node
    n_servers: int                     # inference nodes allocated
    duration_s: float = 3600.0         # simulated horizon
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.arrival_rate_per_s > 0 and self.service_time_s > 0):
            raise ValueError("rates and service times must be positive")
        if self.n_servers < 1:
            raise ValueError("need at least one server")
        if not (self.duration_s > 0):             # NaN fails too
            raise ValueError("duration must be positive")

    @property
    def offered_load(self) -> float:
        """ρ = λ·s / c — the M/M/c-style utilisation this config implies."""
        return (self.arrival_rate_per_s * self.service_time_s
                / self.n_servers)


@dataclass
class StreamingReport:
    """Measured service quality of one simulated run."""

    n_completed: int
    latencies_s: np.ndarray
    utilisation: float
    max_queue_depth: int

    def percentile(self, q: float) -> float:
        if self.n_completed == 0:
            raise ValueError("no completed scenes")
        return percentile(self.latencies_s, q)

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def meets_deadline(self, deadline_s: float) -> bool:
        return self.p99 <= deadline_s


def simulate_stream(config: StreamingConfig) -> StreamingReport:
    """Run the arrival/service process on the DES engine."""
    sim = Simulator()
    servers = Resource(sim, capacity=config.n_servers, name="esb-pool")
    rng = np.random.default_rng(config.seed)
    latencies: list[float] = []
    busy_time = [0.0]
    queue_depth = [0]
    max_depth = [0]

    def scene(arrival: float):
        grant = servers.acquire()
        queue_depth[0] += 1
        max_depth[0] = max(max_depth[0], queue_depth[0])
        yield grant
        queue_depth[0] -= 1
        service = config.service_time_s * float(
            rng.lognormal(0.0, SERVICE_JITTER))
        busy_time[0] += service
        yield sim.timeout(service)
        servers.release()
        latencies.append(sim.now - arrival)

    def source():
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / config.arrival_rate_per_s))
            if t > config.duration_s:
                return
            yield sim.timeout(t - sim.now)
            sim.process(scene(sim.now), name=f"scene@{t:.1f}")

    sim.process(source(), name="scene-source")
    sim.run()
    total_capacity = config.n_servers * max(sim.now, 1e-12)
    return StreamingReport(
        n_completed=len(latencies),
        latencies_s=np.asarray(latencies),
        utilisation=busy_time[0] / total_capacity,
        max_queue_depth=max_depth[0],
    )


def capacity_for_deadline(
    arrival_rate_per_s: float,
    service_time_s: float,
    deadline_s: float,
) -> tuple[int, StreamingReport]:
    """Smallest server count whose p99 latency meets the deadline."""
    if deadline_s <= service_time_s:
        raise ValueError("deadline must exceed a single service time")
    n = max(1, int(np.ceil(arrival_rate_per_s * service_time_s)))
    while n <= MAX_SERVERS:
        report = simulate_stream(StreamingConfig(
            arrival_rate_per_s=arrival_rate_per_s,
            service_time_s=service_time_s,
            n_servers=n,
            duration_s=PLANNING_DURATION_S,
        ))
        if report.n_completed > 0 and report.meets_deadline(deadline_s):
            return n, report
        n += max(1, n // 4)
    raise RuntimeError(f"no capacity ≤ {MAX_SERVERS} meets the deadline")
