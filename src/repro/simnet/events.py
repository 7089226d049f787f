"""Deterministic discrete-event simulation engine.

The engine is intentionally small but complete: a priority queue of timed
events, generator-based processes (a process yields the events it waits
on), and counted resources with FIFO wait queues.  Determinism is guaranteed
by (time, sequence-number) ordering — two events at the same timestamp fire
in scheduling order, so repeated runs produce identical traces.

The scheduler (:mod:`repro.core.scheduler`) and the NAM/storage models run on
top of this engine; the MPI simulated-clock backend uses it indirectly
through the analytic cost models.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional, Sequence


class SimulationError(RuntimeError):
    """Raised for invalid simulation operations (e.g. scheduling in the past)."""


class Event:
    """A value that materialises at a simulated time.

    Processes wait on events by yielding them.  Callbacks registered with
    :meth:`add_callback` fire when the event is triggered.

    Implementation note: events are the DES kernel's unit allocation —
    serving and scheduler scenarios create millions — so the class is
    ``__slots__``-based and the callback list is allocated lazily (most
    events carry exactly zero or one callback).
    """

    __slots__ = ("sim", "name", "_value", "_triggered", "_cancelled",
                 "_time", "_callbacks")

    def __init__(self, sim: "Simulator", name: str = "",
                 _value: Any = None) -> None:
        self.sim = sim
        self.name = name
        self._value = _value
        self._triggered = False
        self._cancelled = False
        self._time: Optional[float] = None
        self._callbacks: Optional[list] = None

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Prevent a pending event from firing.

        A cancelled event stays in the queue but is discarded when its time
        comes: callbacks never run and the event never triggers.  Fault
        handling uses this to retract a phase-completion event when the
        phase's node crashes mid-run.
        """
        if self._triggered:
            raise SimulationError(f"cannot cancel fired event {self.name!r}")
        self._cancelled = True

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError(f"event {self.name!r} read before trigger")
        return self._value

    @property
    def time(self) -> Optional[float]:
        """Simulated time at which the event fired (None if pending)."""
        return self._time

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self._triggered:
            fn(self)
        elif self._callbacks is None:
            self._callbacks = [fn]
        else:
            self._callbacks.append(fn)

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to trigger ``delay`` from now."""
        self.sim.schedule(self, delay=delay, value=value)
        return self

    def _fire(self, now: float) -> None:
        if self._cancelled:
            return
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._time = now
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            for fn in callbacks:
                fn(self)


class Process:
    """A generator-driven simulation process.

    The generator yields :class:`Event` instances (or floats, interpreted as
    timeouts).  When the generator returns, the process's completion event
    triggers with the return value.
    """

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "") -> None:
        self.sim = sim
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.done = Event(sim, name=f"{self.name}.done")
        self._alive = True
        # Kick off at current time.
        start = Event(sim, name=f"{self.name}.start")
        start.add_callback(self._resume)
        sim.schedule(start, delay=0.0)

    @property
    def alive(self) -> bool:
        return self._alive

    def _resume(self, evt: Event) -> None:
        try:
            target = self.gen.send(evt.value if evt.triggered else None)
        except StopIteration as stop:
            self._alive = False
            self.done.succeed(stop.value)
            return
        if isinstance(target, (int, float)):
            target = self.sim.timeout(float(target))
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {type(target).__name__}, "
                "expected Event or float timeout"
            )
        target.add_callback(self._resume)


class Resource:
    """A counted resource with FIFO acquisition.

    ``capacity`` units exist; :meth:`acquire` returns an event that triggers
    once a unit is granted.  Units are released with :meth:`release`.
    """

    def __init__(self, sim: "Simulator", capacity: int, name: str = "resource") -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiters: deque[Event] = deque()

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def acquire(self) -> Event:
        evt = Event(self.sim, name=f"{self.name}.grant")
        if self.in_use < self.capacity:
            self.in_use += 1
            evt.succeed(self)
        else:
            self._waiters.append(evt)
        return evt

    def release(self) -> None:
        if self.in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            evt = self._waiters.popleft()
            evt.succeed(self)
        else:
            self.in_use -= 1


class EventQueue:
    """Deterministic (time, seq) priority queue used by :class:`Simulator`."""

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0

    def push(self, time: float, event: Event) -> None:
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, event))

    def pop(self) -> tuple[float, Event]:
        time, _, event = heapq.heappop(self._heap)
        return time, event

    def __len__(self) -> int:
        return len(self._heap)

    def peek_time(self) -> float:
        return self._heap[0][0]


class Simulator:
    """The simulation kernel: clock + event queue + process spawning."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue = EventQueue()
        self._processed = 0

    # -- event primitives -------------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: str = "timeout") -> Event:
        # schedule() inlined — same check, same key, one frame not four.
        if not delay >= 0:
            raise SimulationError(f"cannot schedule event {delay} in the past")
        evt = Event(self, name, value)
        queue = self._queue
        heapq.heappush(queue._heap, (self.now + delay, queue._seq, evt))
        queue._seq += 1
        return evt

    def timeout_series(self, delays: Sequence[float], values: Sequence[Any],
                       callback: Callable[[Event], None],
                       name: str = "timeout") -> None:
        """``timeout(d, v, name).add_callback(callback)`` for each pair of
        presorted ``delays`` and ``values``, one heap entry at a time.

        Sequence numbers are reserved now, so member *i* gets the key
        ``(now + delays[i], seq)`` that loop would give it and fires in the
        same order against every other event; but only the next unfired
        member is in the heap — it pushes its successor as it fires, before
        ``callback`` runs.  Do not mutate the sequences afterwards.
        """
        if len(values) != len(delays):
            raise SimulationError("timeout_series: one value per delay")
        last = 0.0
        for delay in delays:
            if not delay >= last:      # NaN fails this too
                raise SimulationError("timeout_series delays must be >= 0 "
                                      f"and sorted: {delay} after {last}")
            last = delay
        queue = self._queue
        heap, base = queue._heap, self.now
        members = zip(delays, values, itertools.count(queue._seq))
        queue._seq += len(delays)

        def push_next(_fired: Optional[Event] = None) -> None:
            member = next(members, None)
            if member is not None:
                delay, value, seq = member
                evt = Event(self, name, value)
                evt._callbacks = [push_next]
                evt.add_callback(callback)
                heapq.heappush(heap, (base + delay, seq, evt))

        push_next()

    def schedule(self, event: Event, delay: float = 0.0, value: Any = None) -> None:
        if not delay >= 0:
            raise SimulationError(f"cannot schedule event {delay} in the past")
        event._value = value
        self._queue.push(self.now + delay, event)

    def process(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name=name)

    def resource(self, capacity: int, name: str = "resource") -> Resource:
        return Resource(self, capacity, name=name)

    def all_of(self, events: Iterable[Event], name: str = "all_of") -> Event:
        """Event that triggers when every input event has triggered."""
        events = list(events)
        done = Event(self, name=name)
        remaining = len(events)
        if remaining == 0:
            done.succeed([])
            return done
        values: list[Any] = [None] * remaining
        state = {"left": remaining}

        def make_cb(i: int):
            def cb(evt: Event) -> None:
                values[i] = evt.value
                state["left"] -= 1
                if state["left"] == 0:
                    done.succeed(list(values))

            return cb

        for i, evt in enumerate(events):
            evt.add_callback(make_cb(i))
        return done

    def any_of(self, events: Iterable[Event], name: str = "any_of") -> Event:
        """Event that triggers when the first input event triggers."""
        done = Event(self, name=name)
        state = {"fired": False}

        def cb(evt: Event) -> None:
            if not state["fired"]:
                state["fired"] = True
                done.succeed(evt.value)

        events = list(events)
        if not events:
            raise SimulationError("any_of needs at least one event")
        for evt in events:
            evt.add_callback(cb)
        return done

    # -- execution ---------------------------------------------------------
    def step(self) -> bool:
        """Fire the next event; returns False when the queue is empty."""
        if len(self._queue) == 0:
            return False
        time, event = self._queue.pop()
        if time < self.now:
            raise SimulationError("time ran backwards")
        self.now = time
        if not event._cancelled:
            self._processed += 1
            event._fire(self.now)
        return True

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> float:
        """Run until queue exhaustion or simulated time ``until``.

        Returns the final simulated time.

        This is the kernel's hottest loop, so it pops straight off the
        underlying heap with locally-bound helpers instead of going through
        :meth:`step`; the (time, seq) ordering and per-event semantics are
        identical.
        """
        if until is not None and until < self.now:
            raise SimulationError(f"run(until={until}) is before {self.now}")
        heap = self._queue._heap
        heappop = heapq.heappop
        processed = 0
        steps = 0
        now = self.now
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    now = until
                    break
                if steps >= max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events — runaway simulation?"
                    )
                steps += 1
                time, _, event = heappop(heap)
                if time < now:
                    raise SimulationError("time ran backwards")
                now = time
                self.now = now
                if not event._cancelled:
                    processed += 1
                    event._fire(now)
                    # Callbacks may advance the clock (nested run) — resync.
                    now = self.now
        finally:
            self._processed += processed
        if until is not None and now < until:
            now = until
        self.now = now
        return now

    @property
    def events_processed(self) -> int:
        return self._processed

    @property
    def pending(self) -> int:
        """Heap entries right now (cancelled-but-unpopped ones included)."""
        return len(self._queue)
