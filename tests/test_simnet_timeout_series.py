"""``Simulator.timeout_series`` against its definition.

A series is *defined* as the loop ``timeout(d, v).add_callback(cb)`` over
presorted delays; it only differs in how many of its members sit in the
heap at once.  The property test therefore builds every scenario twice —
once with the series, once with that loop — and requires the same firing
trace and event count, with the soup around it placed at exactly tying
times (all times are multiples of 1/4, so float addition is exact and
ties are real ties).
"""

import gc
import math
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.simnet import SimulationError, Simulator
from repro.simnet.events import Event

#: Delays in quarter seconds: few distinct values, so ties are the norm.
_quarters = st.integers(min_value=0, max_value=12).map(lambda q: q / 4)


def _drive(series: bool, head: float, delays, before, after, follow):
    """One scenario; returns (firing trace, events_processed, final now).

    ``head`` moves the clock off zero before anything is scheduled,
    ``before``/``after`` are ordinary timeouts placed around the series
    call, and every series or soup callback schedules a follow-up event
    ``follow[k]`` later (zero included), which may tie with the next
    series member.
    """
    sim = Simulator()
    sim.timeout(head)
    sim.run()
    trace = []

    def followed(tag):
        def cb(evt):
            trace.append((sim.now, tag, evt.value))
            if follow:
                delay = follow[len(trace) % len(follow)]
                sim.timeout(delay, (tag, evt.value)).add_callback(
                    lambda e: trace.append((sim.now, "follow", e.value)))
        return cb

    for i, d in enumerate(before):
        sim.timeout(d, i).add_callback(followed("before"))
    on_member = followed("series")
    if series:
        sim.timeout_series(delays, range(len(delays)), on_member)
    else:
        for i, d in enumerate(delays):
            sim.timeout(d, i).add_callback(on_member)
    for i, d in enumerate(after):
        sim.timeout(d, i).add_callback(followed("after"))
    sim.run()
    return trace, sim.events_processed, sim.now


@settings(max_examples=200, deadline=None)
@given(head=_quarters,
       delays=st.lists(_quarters, max_size=12).map(sorted),
       before=st.lists(_quarters, max_size=6),
       after=st.lists(_quarters, max_size=6),
       follow=st.lists(_quarters, max_size=3))
def test_series_equals_the_per_event_loop(head, delays, before, after,
                                          follow):
    assert _drive(True, head, delays, before, after, follow) \
        == _drive(False, head, delays, before, after, follow)


def test_only_the_next_member_is_in_the_heap():
    sim = Simulator()
    pending = []
    sim.timeout_series([0.5 * i for i in range(100)], range(100),
                       lambda evt: pending.append(sim.pending))
    assert sim.pending == 1
    sim.run()
    # While member i's callback runs, member i+1 is the whole heap.
    assert pending == [1] * 99 + [0]
    assert sim.events_processed == 100


@pytest.mark.parametrize("delays, values", [
    ([1.0, 3.0, 2.0], "abc"),            # unsorted
    ([-1.0, 0.0, 1.0], "abc"),           # negative
    ([0.0, math.nan, 1.0], "abc"),       # NaN
    ([math.nan], "a"),
    ([0.0, 1.0], "abc"),                 # length mismatch
])
def test_bad_input_raises_and_schedules_nothing(delays, values):
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout_series(delays, values, lambda evt: None)
    assert sim.pending == 0
    # No sequence number was consumed either: a later pair of tying
    # timeouts still fires in scheduling order.
    fired = []
    for tag in "xy":
        sim.timeout(1.0, tag).add_callback(lambda e: fired.append(e.value))
    sim.run()
    assert fired == ["x", "y"]


def test_empty_series_is_a_no_op():
    sim = Simulator()
    sim.timeout_series([], [], lambda evt: pytest.fail("nothing to fire"))
    assert sim.pending == 0
    assert sim.run() == 0.0
    assert sim.events_processed == 0


def test_raising_callback_does_not_lose_the_next_member():
    sim = Simulator()
    fired = []

    def cb(evt):
        if evt.value == 1:
            raise RuntimeError("boom")
        fired.append((sim.now, evt.value))

    sim.timeout_series([1.0, 2.0, 3.0, 4.0], range(4), cb)
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    assert sim.pending == 1                   # member 2 is already queued
    sim.run()
    assert fired == [(1.0, 0), (3.0, 2), (4.0, 3)]
    assert sim.events_processed == 4


def test_user_callback_goes_through_the_public_add_callback(monkeypatch):
    """Registration hooks (the e2e benchmark's layer attribution,
    telemetry) wrap ``Event.add_callback``; they must see the user
    callback once per member and never the series' own bookkeeping."""
    registered = []
    original = Event.add_callback

    def spy(self, fn):
        registered.append(fn)
        original(self, fn)

    monkeypatch.setattr(Event, "add_callback", spy)
    sim = Simulator()

    def on_member(evt):
        pass

    sim.timeout_series([0.0, 1.0, 1.0], "abc", on_member, name="arrive")
    sim.run()
    assert registered == [on_member] * 3


def test_drained_series_needs_no_cyclic_gc():
    """Once its last member has fired, the series holds nothing alive: the
    simulator and the callback (a serving engine's bound method, in
    practice) die by reference counting alone."""
    gc.collect()
    gc.disable()
    try:
        sim = Simulator()
        seen = []

        def on_member(evt):
            seen.append(evt.value)

        sim.timeout_series([0.0, 1.0, 1.0], "abc", on_member)
        callback, simulator = weakref.ref(on_member), weakref.ref(sim)
        del on_member
        sim.run()
        assert seen == ["a", "b", "c"] and sim.pending == 0
        del sim
        assert callback() is None and simulator() is None
    finally:
        gc.enable()
