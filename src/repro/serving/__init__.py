"""Online model serving on the MSA simulator.

The paper's workload story is train-on-CM/ESB, infer "in (near) real
time" on whatever module is free — this package is that second half as a
first-class subsystem: seeded arrival traces, SLO admission control, a
result cache, dynamic micro-batching, matchmade replica placement with
module-aware autoscaling, and crash failover that never loses an admitted
request.  Everything runs on :mod:`repro.simnet.events`, so whole serving
scenarios replay deterministically.
"""

from repro.serving.admission import (
    AdmissionController,
    AdmissionPolicy,
    TokenBucket,
)
from repro.serving.batcher import MicroBatcher
from repro.serving.cache import ResultCache
from repro.serving.defense import DefenseConfig
from repro.serving.engine import (
    ServingConfig,
    ServingEngine,
    ServingReport,
    simulate_serving,
)
from repro.serving.metrics import ServingMetrics
from repro.serving.replicas import (
    Autoscaler,
    AutoscalerConfig,
    ReplicaPool,
)
from repro.serving.request import (
    ArrivalPattern,
    Request,
    TraceConfig,
    generate_trace,
)

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "ArrivalPattern",
    "Autoscaler",
    "AutoscalerConfig",
    "DefenseConfig",
    "MicroBatcher",
    "ReplicaPool",
    "Request",
    "ResultCache",
    "ServingConfig",
    "ServingEngine",
    "ServingMetrics",
    "ServingReport",
    "TokenBucket",
    "TraceConfig",
    "generate_trace",
    "simulate_serving",
]
