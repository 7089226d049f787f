"""Exporters: one Chrome trace across every subsystem, plus metrics dumps.

The Chrome trace-event JSON (``chrome://tracing`` / Perfetto) is the lingua
franca the paper's tuning workflow leaned on via Horovod's timeline tool.
Here it is generalised: every telemetry ``track`` (scheduler, mpi, train,
storage, serving, faults) becomes one trace *process* with a readable
``process_name``, every ``lane`` within it one *thread*, and all spans sit
on the single simulated timebase — so a faulted elastic-training run shows
scheduler placements, ring-allreduce steps, checkpoint writes and the
fault that caused them interleaved in one viewer.

All output is byte-deterministic for a given span list: processes/threads
are numbered in sorted order and events sort on the spans' deterministic
``(start, track, lane, seq)`` key.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Optional

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Span


def chrome_complete_event(
    name: str,
    category: str,
    pid: int,
    tid: int,
    start_s: float,
    duration_s: float,
    args: dict[str, Any],
) -> dict[str, Any]:
    """One Chrome 'X' (complete) event; timestamps in µs of simulated time."""
    return {
        "name": name,
        "cat": category,
        "ph": "X",
        "pid": pid,
        "tid": tid,
        "ts": start_s * 1e6,
        "dur": duration_s * 1e6,
        "args": args,
    }


def chrome_instant_event(
    name: str,
    category: str,
    pid: int,
    tid: int,
    t_s: float,
    args: dict[str, Any],
) -> dict[str, Any]:
    """One Chrome 'i' (instant) event, thread-scoped."""
    return {
        "name": name,
        "cat": category,
        "ph": "i",
        "s": "t",
        "pid": pid,
        "tid": tid,
        "ts": t_s * 1e6,
        "args": args,
    }


def chrome_meta_event(name: str, pid: int, tid: Optional[int],
                      value: Any) -> dict[str, Any]:
    """One Chrome 'M' event: a name (str) or a sort index for a pid/tid."""
    evt: dict[str, Any] = {"name": name, "ph": "M", "pid": pid,
                           "args": {"name": value} if isinstance(value, str)
                           else {"sort_index": value}}
    if tid is not None:
        evt["tid"] = tid
    return evt


def assign_ids(spans: Iterable[Span]) -> tuple[dict[str, int],
                                               dict[tuple[str, str], int]]:
    """Deterministic pid per track, tid per (track, lane)."""
    tracks = sorted({s.track for s in spans})
    pids = {track: i + 1 for i, track in enumerate(tracks)}
    tids: dict[tuple[str, str], int] = {}
    for track in tracks:
        lanes = sorted({s.lane for s in spans if s.track == track})
        for j, lane in enumerate(lanes):
            tids[(track, lane)] = j
    return pids, tids


def to_chrome_trace(spans: Iterable[Span]) -> dict[str, Any]:
    """The unified trace: metadata naming each track/lane, then all events
    in deterministic ``(start, track, lane, seq)`` order."""
    spans = sorted(spans, key=Span.sort_key)
    pids, tids = assign_ids(spans)
    events: list[dict[str, Any]] = []
    for track, pid in sorted(pids.items()):
        events.append(chrome_meta_event("process_name", pid, None, track))
        events.append(chrome_meta_event("process_sort_index", pid, None, pid))
        for (t, lane), tid in sorted(tids.items()):
            if t == track:
                events.append(chrome_meta_event("thread_name", pid, tid, lane))
    for s in spans:
        pid, tid = pids[s.track], tids[(s.track, s.lane)]
        if s.is_instant:
            events.append(chrome_instant_event(
                s.name, s.category, pid, tid, s.start_s, s.attr_dict()))
        else:
            events.append(chrome_complete_event(
                s.name, s.category, pid, tid, s.start_s, s.duration_s,
                s.attr_dict()))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_trace_json(spans: Iterable[Span]) -> str:
    """Byte-deterministic JSON of :func:`to_chrome_trace`."""
    return json.dumps(to_chrome_trace(spans), sort_keys=True,
                      separators=(",", ":"))


def run_summary(spans: Iterable[Span], registry: MetricsRegistry,
                title: str = "telemetry run summary") -> str:
    """Human-readable rollup: per-track span counts and busy time, then the
    full metrics dump.  Deterministic for a given capture."""
    spans = sorted(spans, key=Span.sort_key)
    rows = [title, "=" * len(title), ""]
    by_track: dict[str, list[Span]] = {}
    for s in spans:
        by_track.setdefault(s.track, []).append(s)
    rows.append(f"spans: {len(spans)} across {len(by_track)} subsystems")
    for track in sorted(by_track):
        ts = by_track[track]
        intervals = [s for s in ts if not s.is_instant]
        busy = sum(s.duration_s for s in intervals)
        lanes = {s.lane for s in ts}
        end = max((s.end_s for s in ts), default=0.0)
        rows.append(
            f"  {track:<10}: {len(ts):5d} spans "
            f"({len(ts) - len(intervals)} instants), {len(lanes)} lanes, "
            f"busy {busy:.6g} s, horizon {end:.6g} s")
    rows += ["", "metrics:", registry.to_text()]
    return "\n".join(rows) + "\n"
