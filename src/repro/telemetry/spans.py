"""Spans: the tracing half of the unified telemetry layer.

A :class:`Span` is one named interval on the *simulated* clock, tagged with
the subsystem it came from (``track``) and the lane within that subsystem
(``lane`` — a rank, a module key, a replica id).  A :class:`Tracer`
collects spans from every instrumented layer — scheduler decisions, MPI
collectives, training steps, fault injections, storage transfers, serving
stages — into one buffer that the exporters
(:mod:`repro.telemetry.export`) turn into a single Chrome trace.

Determinism is a design requirement, not an accident: every span carries a
per-``(track, lane)`` sequence number assigned under a lock, so even spans
recorded concurrently by SPMD rank threads sort into exactly one order
(``(start_s, track, lane, seq)``).  Same seed → byte-identical trace, which
is what lets the tests assert on trace artifacts.

The tracer is cheap when disabled: every instrumentation site checks
``tracer.enabled`` before touching the clock, so a production run with
telemetry off pays one attribute load per site.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterable, NamedTuple

#: Well-known span categories (the Chrome trace ``cat`` field).  Free-form
#: strings are allowed; these are the ones the built-in instrumentation uses.
CATEGORIES = ("scheduler", "comm", "compute", "train", "fault", "storage",
              "serving", "io")


class Span(NamedTuple):
    """One interval (or instant) on the simulated clock.

    A NamedTuple rather than a dataclass: spans are recorded on the hot
    path of every instrumented site, and tuple construction is what keeps
    the enabled tracer's overhead inside the E15 budget.
    """

    name: str
    category: str
    start_s: float
    duration_s: float
    track: str = "main"          # subsystem: "scheduler" | "mpi" | "serving" ...
    lane: str = "0"              # rank / module key / replica id within track
    seq: int = 0                 # per-(track, lane) recording order
    attrs: tuple[tuple[str, Any], ...] = ()

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    @property
    def is_instant(self) -> bool:
        return self.duration_s == 0.0

    def attr_dict(self) -> dict[str, Any]:
        return dict(self.attrs)

    def sort_key(self) -> tuple:
        return (self.start_s, self.track, self.lane, self.seq)


class Tracer:
    """Thread-safe span collector over the simulated clock.

    ``enabled=False`` makes every recording method a no-op — the default
    process-wide tracer ships disabled so uninstrumented runs pay nothing
    and hold nothing.  :func:`repro.telemetry.capture` swaps in an enabled
    tracer for the duration of a traced scenario.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        # Raw (pre-seq) records.  list.append is atomic under the GIL, so
        # the hot path needs no lock; the lock only guards snapshot/clear.
        self._raw: list[tuple] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._raw)

    # -- recording -----------------------------------------------------------
    def record(self, name: str, category: str, start_s: float,
               duration_s: float, track: str = "main", lane: str = "0",
               **attrs: Any) -> None:
        """Record a completed span (caller supplies sim-time start/duration).

        Seq numbers are assigned lazily at snapshot time from the append
        order: within one ``(track, lane)`` that order is the lane's own
        happens-before order (a lane is written by one logical actor), so
        the deferred assignment is both deterministic and lock-free here.
        Attrs keep call-site kwarg order; the JSON exporter sorts keys, so
        trace bytes don't depend on it.
        """
        if not self.enabled:
            return
        if duration_s < 0:
            raise ValueError(f"span {name!r} has negative duration")
        self._raw.append((name, category, start_s, duration_s, track, lane,
                          tuple(attrs.items())))

    def instant(self, name: str, category: str, t_s: float,
                track: str = "main", lane: str = "0", **attrs: Any) -> None:
        """Record a zero-duration marker (fault fired, job submitted, ...)."""
        if not self.enabled:
            return
        self._raw.append((name, category, t_s, 0.0, track, lane,
                          tuple(attrs.items())))

    def emit(self, raw: tuple) -> None:
        """Append one raw record ``(name, category, start_s, duration_s,
        track, lane, ((key, value), ...))`` — what :meth:`record` and
        :meth:`instant` build from their keyword arguments.  For sites
        that fire per request behind their own ``if tracer.enabled:``
        check, where the keyword call is most of the cost of tracing."""
        self._raw.append(raw)

    @contextmanager
    def span(self, name: str, category: str, clock: Callable[[], float],
             track: str = "main", lane: str = "0", **attrs: Any):
        """Context manager reading ``clock()`` (a sim-time source) at
        enter/exit.  With tracing disabled the clock is never called."""
        if not self.enabled:
            yield
            return
        start = clock()
        try:
            yield
        finally:
            self.record(name, category, start, clock() - start,
                        track=track, lane=lane, **attrs)

    # -- reading -------------------------------------------------------------
    @property
    def spans(self) -> list[Span]:
        """A deterministically ordered snapshot of everything recorded."""
        with self._lock:
            snapshot = list(self._raw)
        seq: dict[tuple[str, str], int] = {}
        spans = []
        for name, category, start_s, duration_s, track, lane, attrs in snapshot:
            key = (track, lane)
            n = seq.get(key, 0)
            seq[key] = n + 1
            spans.append(Span(name, category, start_s, duration_s,
                              track, lane, n, attrs))
        return sorted(spans, key=Span.sort_key)

    def tracks(self) -> list[str]:
        return sorted({s.track for s in self.spans})

    def by_track(self, track: str) -> list[Span]:
        return [s for s in self.spans if s.track == track]

    def by_category(self, category: str) -> list[Span]:
        return [s for s in self.spans if s.category == category]

    def clear(self) -> None:
        with self._lock:
            self._raw.clear()


def validate_nesting(spans: Iterable[Span], tol: float = 1e-9
                     ) -> list[tuple[Span, Span]]:
    """Check spans nest properly within each ``(track, lane)``.

    Two spans on the same lane must either be disjoint or one must contain
    the other — a partial overlap means an instrumentation bug (an "end"
    recorded against the wrong clock).  Returns the offending
    ``(outer, inner)`` pairs; an empty list means the trace is well-formed.
    Instants are exempt (they sit *at* boundaries by construction).
    """
    violations: list[tuple[Span, Span]] = []
    lanes: dict[tuple[str, str], list[Span]] = {}
    for s in spans:
        if not s.is_instant:
            lanes.setdefault((s.track, s.lane), []).append(s)
    for lane_spans in lanes.values():
        # Parents before children: earlier start first, longer span first.
        lane_spans.sort(key=lambda s: (s.start_s, -s.end_s, s.seq))
        stack: list[Span] = []
        for s in lane_spans:
            while stack and s.start_s >= stack[-1].end_s - tol:
                stack.pop()
            if stack and s.end_s > stack[-1].end_s + tol:
                violations.append((stack[-1], s))
            stack.append(s)
    return violations
