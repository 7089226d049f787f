"""In-memory span recorder for the traced benchmark run.

Nothing in ``src/`` knows about this module: spans are recorded from the
benchmark's side, by wrapping the public callables of each layer (see
``layers.py`` for the table) and the callbacks registered through the
public ``Event.add_callback``.  A span is ``(name, layer, start, end,
parent)``; stacks are per thread, so the two SPMD rank threads nest
independently.

Per thread and per span name the recorder keeps three numbers:

* ``calls``,
* ``self_s`` — the span's duration minus the part its child spans
  cover, so self times of one thread add up to its root span's duration,
* ``incl_s`` — duration counted only for the outermost span of a name
  (``Module.__call__`` nests inside itself; the inclusive time of
  "forward" must not count the inner calls twice).

The first :data:`KEEP` raw spans are kept and can be written as a
Chrome trace when the run ends; aggregates cover every span.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Any, Callable, Optional

#: Raw spans kept for the Chrome-trace dump (aggregates are unbounded).
KEEP = 50_000

#: Layer of spans opened by the benchmark itself (roots): their self
#: time is what no layer accounts for.
BENCH = "bench"


class ThreadSpans:
    """One thread's open-span stack and aggregates."""

    __slots__ = ("tid", "stack", "agg", "depth", "next_id", "root")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        #: Open frames: ``[child_seconds, span_id]``.
        self.stack: list[list] = []
        #: ``(name, layer) -> [calls, self_s, incl_s]``.
        self.agg: dict[tuple[str, str], list] = {}
        self.depth: dict[tuple[str, str], int] = {}
        self.next_id = 0
        #: Name of the first root span opened on this thread.
        self.root: Optional[str] = None


class Recorder:
    """Span recorder; ``clock`` is injectable so arithmetic is testable."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 keep: int = KEEP) -> None:
        self.clock = clock
        self.keep = keep
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: list[ThreadSpans] = []
        #: ``(tid, span_id, parent_id, name, layer, start, end)``.
        self.raw: list[tuple] = []
        self._callback_keys: dict[Any, tuple[str, str]] = {}

    # -- per-thread state ----------------------------------------------------
    def _thread(self) -> ThreadSpans:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = ThreadSpans(threading.get_ident())
            with self._lock:
                self.threads.append(st)
        return st

    def _traced(self, fn: Callable, key: tuple[str, str]) -> Callable:
        """``fn`` inside a span.  This closure is the whole cost of
        tracing, paid once per wrapped call, so it does its bookkeeping
        inline on locals instead of calling helpers."""
        clock, local, new_thread = self.clock, self._local, self._thread
        raw, keep = self.raw, self.keep

        def traced(*args, **kwargs):
            try:
                st = local.st
            except AttributeError:
                st = new_thread()
            stack, depth = st.stack, st.depth
            depth[key] = depth.get(key, 0) + 1
            span_id = st.next_id
            st.next_id = span_id + 1
            frame = [0.0, span_id]               # child seconds, id
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                row = st.agg.get(key)
                if row is None:
                    row = st.agg[key] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += dur - frame[0]
                nested = depth[key] - 1
                depth[key] = nested
                if not nested:
                    row[2] += dur
                parent_id = -1
                if stack:
                    parent = stack[-1]
                    parent[0] += dur
                    parent_id = parent[1]
                if len(raw) < keep:
                    raw.append((st.tid, span_id, parent_id, key[0], key[1],
                                start, end))

        return traced

    def in_root(self, name: str, fn: Callable, *args):
        """Call ``fn(*args)`` inside a benchmark-owned root span; the
        calling thread's breakdown hangs under it."""
        st = self._thread()
        if st.root is None:
            st.root = name
        return self._traced(fn, (name, BENCH))(*args)

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """``fn`` with a span around every call."""
        return functools.update_wrapper(self._traced(fn, (name, layer)), fn)

    def wrap_callback(self, fn: Callable) -> Callable:
        """Wrap a callable handed to a registration hook, attributing it
        to the layer of the module that defined it."""
        func = getattr(fn, "__func__", fn)
        ident = getattr(func, "__code__", func)
        key = self._callback_keys.get(ident)
        if key is None:
            module = getattr(func, "__module__", None) or ""
            qual = getattr(func, "__qualname__", type(func).__name__)
            group, layer = group_and_layer(module)
            key = self._callback_keys[ident] = (f"{group}.{qual}", layer)
        return self._traced(fn, key)

    # -- results -------------------------------------------------------------
    @property
    def n_spans(self) -> int:
        """Spans recorded on all threads (closed ones)."""
        return sum(row[0] for st in self.threads for row in st.agg.values())

    def chrome_trace(self) -> str:
        """The kept raw spans as Chrome trace-event JSON."""
        if not self.raw:
            return json.dumps({"traceEvents": []})
        t0 = min(r[5] for r in self.raw)
        tids = {tid: i for i, tid in
                enumerate(sorted({r[0] for r in self.raw}))}
        events = [
            {"name": name, "cat": layer, "ph": "X", "pid": 1,
             "tid": tids[tid], "ts": round((start - t0) * 1e6, 3),
             "dur": round((end - start) * 1e6, 3),
             "args": {"id": span_id, "parent": parent_id}}
            for tid, span_id, parent_id, name, layer, start, end in self.raw
        ]
        return json.dumps({"traceEvents": events,
                           "otherData": {"spans_total": self.n_spans,
                                         "spans_kept": len(self.raw)}})


def group_and_layer(module: str) -> tuple[str, str]:
    """``"repro.serving.engine"`` -> ``("serving.engine", "serving")``.

    The group is the module path under ``repro``; the layer is its
    package, except that ``repro.ml.engine`` is a layer of its own.
    Anything outside ``repro`` belongs to the benchmark.
    """
    if not module.startswith("repro."):
        return module or "unknown", BENCH
    group = module[len("repro."):]
    if group == "ml.engine" or group.startswith("ml.engine."):
        return group, "ml.engine"
    return group, group.split(".", 1)[0]


# -- the recorder workloads see ------------------------------------------------
# One traced run installs one recorder for its duration (the child
# process does nothing else), and SPMD rank functions open their root
# span through in_root(); with no recorder installed it is a plain call.

_active: Optional[Recorder] = None


def activate(recorder: Optional[Recorder]) -> None:
    global _active
    _active = recorder


def in_root(name: str, fn: Callable, *args):
    """``fn(*args)``, under a root span when a traced run is active."""
    rec = _active
    return fn(*args) if rec is None else rec.in_root(name, fn, *args)
