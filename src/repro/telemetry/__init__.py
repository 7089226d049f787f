"""Unified telemetry: spans, metrics and cross-layer trace export.

The observability layer the paper's lessons-learned implicitly demand —
the authors tuned Horovod with its timeline tool and reasoned about
module-level placement from measured comms/compute interleaving.  This
package gives every subsystem in the reproduction (scheduler, MPI runtime,
distributed training, fault injection, storage tiers, online serving) one
shared instrument panel:

* :class:`Tracer` — nestable simulated-clock spans with subsystem tracks,
* :class:`MetricsRegistry` — labeled counters/gauges/histograms,
* exporters — one Chrome trace-event JSON across all layers, a
  Prometheus-style text dump, and a human-readable summary,
* process-wide defaults — instrumentation sites call :func:`get_tracer` /
  :func:`get_registry`; both default to disabled no-ops so untraced runs
  pay one attribute check per site.  :func:`capture` swaps in enabled
  instances for the duration of a traced scenario and restores the old
  ones afterwards.

Every capture is byte-deterministic for a given seed: spans order on
``(sim time, track, lane, seq)``, metric dumps sort their families, and
nothing reads the wall clock.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Optional

from repro.telemetry.export import (
    chrome_complete_event,
    chrome_instant_event,
    chrome_trace_json,
    run_summary,
    to_chrome_trace,
)
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.spans import Span, Tracer

# -- process-wide defaults ---------------------------------------------------

#: Disabled singletons: the zero-cost path for uninstrumented runs.
_DISABLED_TRACER = Tracer(enabled=False)
_DISABLED_REGISTRY = MetricsRegistry(enabled=False)

_default_tracer: Tracer = _DISABLED_TRACER
_default_registry: MetricsRegistry = _DISABLED_REGISTRY
_swap_lock = threading.Lock()


def get_tracer() -> Tracer:
    """The process-wide tracer every instrumentation site records into."""
    return _default_tracer


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _default_registry


def set_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Install (or with ``None`` reset) the default tracer; returns the old."""
    global _default_tracer
    with _swap_lock:
        old = _default_tracer
        _default_tracer = tracer if tracer is not None else _DISABLED_TRACER
    return old


def set_registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Install (or with ``None`` reset) the default registry; returns the old."""
    global _default_registry
    with _swap_lock:
        old = _default_registry
        _default_registry = registry if registry is not None \
            else _DISABLED_REGISTRY
    return old


@contextmanager
def capture():
    """Run a scenario with fresh, enabled telemetry defaults.

    >>> with telemetry.capture() as (tracer, registry):
    ...     simulate_serving(config)
    >>> trace_json = chrome_trace_json(tracer.spans)

    The previous defaults are restored on exit, so captures never leak
    into each other — the property that makes same-seed captures
    byte-identical.
    """
    tracer = Tracer(enabled=True)
    registry = MetricsRegistry(enabled=True)
    old_tracer = set_tracer(tracer)
    old_registry = set_registry(registry)
    try:
        yield tracer, registry
    finally:
        set_tracer(old_tracer)
        set_registry(old_registry)


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "capture",
    "chrome_complete_event",
    "chrome_instant_event",
    "chrome_trace_json",
    "get_registry",
    "get_tracer",
    "run_summary",
    "set_registry",
    "set_tracer",
    "to_chrome_trace",
]
