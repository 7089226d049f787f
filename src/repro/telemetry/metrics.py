"""The metrics half of the telemetry layer: one registry, labeled families.

Every subsystem publishes counters, gauges and histograms into a
:class:`MetricsRegistry` — ``collective_bytes{op="allreduce"}``,
``checkpoint_bytes_total{target="nam"}``,
``serving_requests_total{outcome="admitted"}`` — so a run's metrics dump is
one document regardless of how many layers contributed.  Percentile math
delegates to :mod:`repro.core.stats`, the same implementation every other
latency surface in the repo uses.

Determinism rules (the dumps are asserted byte-identical in tests):

* exposition sorts families by name and members by label values,
* histogram sums use ``math.fsum`` (exactly rounded, order-independent),
  so observations recorded concurrently by rank threads cannot introduce
  float-association jitter,
* counter increments from threaded contexts must be integral — bytes and
  call counts — which float addition represents exactly.
"""

from __future__ import annotations

import math
import threading
from typing import Any

from repro.core.stats import percentile

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _fmt_value(v: float) -> str:
    """Prometheus-style value: integers render without a decimal point."""
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _fmt_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("_value", "_lock")

    def __init__(self, lock: threading.Lock) -> None:
        self._value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        if not (amount >= 0):                   # NaN fails too
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go anywhere."""

    __slots__ = ("_value", "_lock")

    def __init__(self, lock: threading.Lock) -> None:
        self._value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """A sample distribution; quantiles via :mod:`repro.core.stats`."""

    __slots__ = ("_values", "_lock")

    def __init__(self, lock: threading.Lock) -> None:
        self._values: list[float] = []
        self._lock = lock

    def observe(self, value: float) -> None:
        with self._lock:
            self._values.append(float(value))

    def observe_many(self, values: list[float]) -> None:
        """``observe`` each of ``values`` in order, under one lock."""
        with self._lock:
            self._values.extend(map(float, values))

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def sum(self) -> float:
        with self._lock:
            return math.fsum(self._values)

    def percentile(self, q: float) -> float:
        with self._lock:
            return percentile(self._values, q)


class _NullInstrument:
    """Shared no-op counter/gauge/histogram for a disabled registry."""

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values: list[float]) -> None:
        pass

    value = 0.0
    count = 0
    sum = 0.0
    values: list[float] = []

    def percentile(self, q: float) -> float:
        raise ValueError("percentile of a disabled registry")


_NULL = _NullInstrument()

_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Named families of labeled counters, gauges and histograms.

    ``registry.counter("collective_bytes", op="allreduce")`` get-or-creates
    the family member for that exact label set; re-registering a name with
    a different kind raises.  A disabled registry hands out shared no-op
    instruments, so instrumentation sites never need their own guard.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._kinds: dict[str, str] = {}
        self._families: dict[str, dict[LabelKey, Any]] = {}

    # -- family accessors ----------------------------------------------------
    def _get(self, kind: str, name: str, labels: dict[str, Any]):
        if not self.enabled:
            return _NULL
        key = _label_key(labels)
        with self._lock:
            existing = self._kinds.get(name)
            if existing is None:
                self._kinds[name] = kind
                self._families[name] = {}
            elif existing != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {existing}, "
                    f"not {kind}")
            family = self._families[name]
            inst = family.get(key)
            if inst is None:
                inst = _KINDS[kind](self._lock)
                family[key] = inst
            return inst

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get("histogram", name, labels)

    # -- reading -------------------------------------------------------------
    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._families)

    def members(self, name: str) -> list[tuple[LabelKey, Any]]:
        with self._lock:
            return sorted(self._families.get(name, {}).items())

    def broken_invariants(self) -> list[tuple[str, LabelKey, float]]:
        """Members of the gauges named ``*invariant*`` that are above zero
        — the CI invariant check."""
        out = []
        for name in self.names():
            if self._kinds[name] != "gauge" or "invariant" not in name:
                continue
            for key, g in self.members(name):
                if g.value > 0.0:
                    out.append((name, key, g.value))
        return out

    # -- exposition ----------------------------------------------------------
    def to_prometheus(self) -> str:
        """Prometheus text exposition, deterministically ordered."""
        lines: list[str] = []
        for name in self.names():
            kind = self._kinds[name]
            lines.append(f"# TYPE {name} {kind}")
            for key, inst in self.members(name):
                if kind == "histogram":
                    labels = dict(key)
                    lines.append(f"{name}_count{_fmt_labels(key)} "
                                 f"{_fmt_value(inst.count)}")
                    lines.append(f"{name}_sum{_fmt_labels(key)} "
                                 f"{_fmt_value(inst.sum)}")
                    for q in (50.0, 95.0, 99.0):
                        if inst.count:
                            qkey = _label_key({**labels, "quantile": f"{q:g}"})
                            lines.append(f"{name}{_fmt_labels(qkey)} "
                                         f"{_fmt_value(inst.percentile(q))}")
                else:
                    lines.append(f"{name}{_fmt_labels(key)} "
                                 f"{_fmt_value(inst.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_text(self) -> str:
        """Human-readable run summary of every family, one indented row
        per member."""
        indent = "  "
        rows: list[str] = []
        for name in self.names():
            kind = self._kinds[name]
            for key, inst in self.members(name):
                label = _fmt_labels(key)
                if kind == "histogram":
                    if inst.count:
                        rows.append(
                            f"{indent}{name}{label}: n={inst.count} "
                            f"sum={inst.sum:.6g} p50={inst.percentile(50):.6g} "
                            f"p99={inst.percentile(99):.6g}")
                    else:
                        rows.append(f"{indent}{name}{label}: n=0")
                else:
                    rows.append(f"{indent}{name}{label}: "
                                f"{_fmt_value(inst.value)}")
        return "\n".join(rows)
