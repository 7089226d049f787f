"""Tests for the discrete-event simulation engine."""

import pytest

from repro.simnet import Simulator, SimulationError
from repro.simnet import events
from repro.simnet.events import Event, Resource


def run_until(sim: Simulator, until: float) -> float:
    """Fire every event due by ``until``, one :meth:`Simulator.step` at a
    time, then stand the clock at ``until``: how a test stops a run at a
    horizon (``Simulator.run`` always drains the queue)."""
    while len(sim._queue) and sim._queue.peek_time() <= until:
        sim.step()
    sim.now = max(sim.now, until)
    return sim.now


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(5.0)
    assert sim.run() == 5.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    for delay in (3.0, 1.0, 2.0):
        evt = sim.timeout(delay, value=delay)
        evt.add_callback(lambda e: fired.append(e.value))
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    fired = []
    for i in range(5):
        evt = sim.timeout(1.0, value=i)
        evt.add_callback(lambda e: fired.append(e.value))
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_event_value_before_trigger_raises():
    sim = Simulator()
    evt = Event(sim, "pending")
    with pytest.raises(SimulationError):
        _ = evt.value


def test_event_double_trigger_raises():
    sim = Simulator()
    evt = Event(sim)
    evt.succeed(1)
    evt.succeed(2)
    with pytest.raises(SimulationError):
        sim.run()


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


@pytest.mark.parametrize("schedule", [
    lambda sim, delay: sim.timeout(delay),
], ids=["timeout"])
def test_nan_delay_rejected(schedule):
    # NaN passes ``delay < 0``; an unordered heap key then fires delays
    # 3, NaN, 1, 2 as 1, 2, NaN, 3.
    sim = Simulator()
    with pytest.raises(SimulationError):
        schedule(sim, float("nan"))
    assert sim.pending == 0


def test_run_until_stops_early():
    sim = Simulator()
    fired = []
    sim.timeout(1.0).add_callback(lambda e: fired.append(1))
    sim.timeout(10.0).add_callback(lambda e: fired.append(10))
    with pytest.raises(TypeError):
        sim.run(until=5.0)                # run() always drains the queue
    assert run_until(sim, 5.0) == 5.0
    assert fired == [1]
    assert sim.run() == 10.0 and fired == [1, 10]


def test_callback_on_already_triggered_event_fires_immediately():
    sim = Simulator()
    evt = sim.timeout(0.0, value="x")
    sim.run()
    seen = []
    evt.add_callback(lambda e: seen.append(e.value))
    assert seen == ["x"]


def test_process_generator_sequences_timeouts():
    sim = Simulator()
    trace = []

    def proc():
        trace.append(("start", sim.now))
        yield sim.timeout(2.0)
        trace.append(("mid", sim.now))
        yield sim.timeout(3.0)
        trace.append(("end", sim.now))
        return "done"

    p = sim.process(proc())
    sim.run()
    assert trace == [("start", 0.0), ("mid", 2.0), ("end", 5.0)]
    assert p.done.value == "done"
    assert p.done.triggered


def test_process_yielding_garbage_raises():
    sim = Simulator()

    def proc():
        yield "not an event"

    sim.process(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_all_of_waits_for_every_event():
    sim = Simulator()
    evts = [sim.timeout(t, value=t) for t in (1.0, 4.0, 2.0)]
    done = sim.all_of(evts)
    sim.run()
    assert done.time == 4.0
    assert done.value == [1.0, 4.0, 2.0]


def test_all_of_empty_triggers_immediately():
    sim = Simulator()
    done = sim.all_of([])
    sim.run()
    assert done.triggered and done.value == []


class TestResource:
    def test_capacity_grants_immediately(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        res.acquire()
        res.acquire()
        sim.run()
        assert res.in_use == res.capacity

    def test_waiters_queue_fifo(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        order = []

        def worker(name, hold):
            grant = res.acquire()
            yield grant
            order.append((name, sim.now))
            yield sim.timeout(hold)
            res.release()

        sim.process(worker("a", 2.0))
        sim.process(worker("b", 1.0))
        sim.process(worker("c", 1.0))
        sim.run()
        assert [n for n, _ in order] == ["a", "b", "c"]
        assert [t for _, t in order] == [0.0, 2.0, 3.0]

    def test_release_idle_raises(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        with pytest.raises(SimulationError):
            res.release()

    def test_zero_capacity_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)


def test_determinism_across_runs():
    def build():
        sim = Simulator()
        log = []
        for i in range(20):
            sim.timeout((i * 7) % 5 + 0.5, value=i).add_callback(
                lambda e: log.append(e.value))
        sim.run()
        return log

    assert build() == build()


def test_runaway_guard(monkeypatch):
    monkeypatch.setattr(events, "MAX_EVENTS", 100)
    sim = Simulator()

    def forever():
        while True:
            yield sim.timeout(1.0)

    sim.process(forever())
    with pytest.raises(SimulationError):
        sim.run()
