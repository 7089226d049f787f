"""Unit tests for the telemetry core: spans, metrics, exporters, capture."""

import json
import threading

import pytest

from repro import telemetry
from repro.telemetry.export import (
    assign_ids,
    chrome_complete_event,
    chrome_instant_event,
    chrome_trace_json,
    run_summary,
    to_chrome_trace,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Span, Tracer, validate_nesting


# -- Tracer ------------------------------------------------------------------

class TestTracer:
    def test_record_and_order(self):
        tr = Tracer()
        tr.record("b", "comm", 1.0, 0.5, track="mpi", lane="rank000")
        tr.record("a", "comm", 0.5, 0.2, track="mpi", lane="rank000")
        assert [s.name for s in tr.spans] == ["a", "b"]
        assert len(tr) == 2

    def test_seq_breaks_ties_in_recording_order(self):
        tr = Tracer()
        for name in ("first", "second", "third"):
            tr.record(name, "comm", 2.0, 0.0, track="t", lane="l")
        assert [s.name for s in tr.spans] == ["first", "second", "third"]
        assert [s.seq for s in tr.spans] == [0, 1, 2]

    def test_seq_is_per_track_lane(self):
        tr = Tracer()
        tr.record("x", "comm", 0.0, 1.0, track="a", lane="0")
        tr.record("y", "comm", 0.0, 1.0, track="b", lane="0")
        assert all(s.seq == 0 for s in tr.spans)

    def test_instant(self):
        tr = Tracer()
        tr.instant("fault", "fault", 3.0, track="faults", node=2)
        (s,) = tr.spans
        assert s.is_instant and s.start_s == 3.0
        assert s.attr_dict() == {"node": 2}

    def test_emit_is_record_and_instant_without_the_keyword_call(self):
        via_kwargs, raw = Tracer(), Tracer()
        via_kwargs.record("batch", "serving", 1.0, 0.5, track="serving",
                          lane="replica003", module="esb", n_requests=4)
        via_kwargs.instant("admit", "serving", 1.0, track="serving",
                           lane="admission", req=7)
        raw.emit(("batch", "serving", 1.0, 0.5, "serving", "replica003",
                  (("module", "esb"), ("n_requests", 4))))
        raw.emit(("admit", "serving", 1.0, 0.0, "serving", "admission",
                  (("req", 7),)))
        assert raw.spans == via_kwargs.spans

    def test_span_context_manager_reads_clock(self):
        tr = Tracer()
        clock = iter([1.0, 4.0])
        with tr.span("step", "train", lambda: next(clock), track="train"):
            pass
        (s,) = tr.spans
        assert (s.start_s, s.duration_s) == (1.0, 3.0)

    def test_disabled_tracer_never_calls_clock(self):
        tr = Tracer(enabled=False)

        def boom():
            raise AssertionError("clock read by disabled tracer")

        with tr.span("step", "train", boom):
            pass
        tr.record("x", "comm", 0.0, 1.0)
        tr.instant("y", "fault", 0.0)
        assert len(tr) == 0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Tracer().record("x", "comm", 1.0, -0.1)

    def test_queries_and_clear(self):
        tr = Tracer()
        tr.record("a", "comm", 0.0, 1.0, track="mpi")
        tr.record("b", "compute", 0.0, 1.0, track="train")
        assert tr.tracks() == ["mpi", "train"]
        assert [s.name for s in tr.by_track("mpi")] == ["a"]
        assert [s.name for s in tr.by_category("compute")] == ["b"]
        tr.clear()
        assert len(tr) == 0

    def test_thread_safety_all_spans_kept(self):
        tr = Tracer()

        def work(i):
            for j in range(100):
                tr.record(f"s{i}-{j}", "comm", float(j), 0.1,
                          track="mpi", lane=f"rank{i:03d}")

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tr) == 400
        # Per-lane seq reflects that lane's own recording order.
        for i in range(4):
            lane = [s for s in tr.spans if s.lane == f"rank{i:03d}"]
            assert sorted(s.seq for s in lane) == list(range(100))


class TestValidateNesting:
    def _span(self, start, dur, lane="0"):
        return Span("s", "comm", start, dur, track="t", lane=lane)

    def test_disjoint_ok(self):
        assert validate_nesting([self._span(0, 1), self._span(2, 1)]) == []

    def test_contained_ok(self):
        assert validate_nesting([self._span(0, 10), self._span(2, 3)]) == []

    def test_partial_overlap_flagged(self):
        bad = validate_nesting([self._span(0, 5), self._span(3, 5)])
        assert len(bad) == 1

    def test_overlap_on_different_lanes_ok(self):
        spans = [self._span(0, 5, lane="a"), self._span(3, 5, lane="b")]
        assert validate_nesting(spans) == []

    def test_instants_exempt(self):
        spans = [self._span(0, 5), Span("i", "fault", 2.0, 0.0, track="t")]
        assert validate_nesting(spans) == []


# -- MetricsRegistry ---------------------------------------------------------

class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("calls", op="allreduce").inc()
        reg.counter("calls", op="allreduce").inc(2)
        reg.gauge("depth").set(7)
        reg.histogram("lat").observe(0.5)
        reg.histogram("lat").observe(1.5)
        assert reg.value("calls", op="allreduce") == 3
        assert reg.value("depth") == 7
        h = reg.histogram("lat")
        assert h.count == 2 and h.sum == 2.0

    def test_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("c", a=1) is reg.counter("c", a=1)
        assert reg.counter("c", a=1) is not reg.counter("c", a=2)

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_disabled_registry_is_noop(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("c").inc(5)
        reg.gauge("g").set(3)
        reg.histogram("h").observe(1.0)
        assert reg.names() == []
        assert reg.to_prometheus() == ""

    def test_gauges_over(self):
        reg = MetricsRegistry()
        reg.gauge("serving_invariant_violations").set(0)
        reg.gauge("other_invariant_thing", module="esb").set(2)
        reg.gauge("unrelated").set(9)
        hits = reg.gauges_over(0.0, name_contains="invariant")
        assert hits == [("other_invariant_thing",
                         (("module", "esb"),), 2.0)]

    def test_prometheus_exposition_shape(self):
        reg = MetricsRegistry()
        reg.counter("reqs", outcome="ok").inc(3)
        reg.histogram("lat").observe(1.0)
        text = reg.to_prometheus()
        assert "# TYPE reqs counter" in text
        assert 'reqs{outcome="ok"} 3' in text
        assert "lat_count 1" in text
        assert 'lat{quantile="50"} 1' in text

    def test_exposition_deterministic_under_interleaving(self):
        def build(order):
            reg = MetricsRegistry()
            for name, label in order:
                reg.counter(name, op=label).inc()
            return reg.to_prometheus()

        a = build([("m1", "x"), ("m2", "y"), ("m1", "z")])
        b = build([("m2", "y"), ("m1", "z"), ("m1", "x")])
        assert a == b


# -- exporters ----------------------------------------------------------------

class TestExport:
    def _spans(self):
        return [
            Span("step", "train", 0.0, 2.0, track="train", lane="rank000"),
            Span("allreduce", "comm", 0.5, 1.0, track="mpi", lane="rank000",
                 attrs=(("nbytes", 1024),)),
            Span("crash", "fault", 1.0, 0.0, track="faults", lane="injector"),
        ]

    def test_assign_ids_deterministic(self):
        pids, tids = assign_ids(self._spans())
        assert pids == {"faults": 1, "mpi": 2, "train": 3}
        assert tids[("mpi", "rank000")] == 0

    def test_complete_and_instant_events(self):
        x = chrome_complete_event("n", "c", 1, 0, 2.0, 0.5, {"a": 1})
        assert (x["ph"], x["ts"], x["dur"]) == ("X", 2e6, 0.5e6)
        i = chrome_instant_event("n", "c", 1, 0, 2.0)
        assert (i["ph"], i["s"]) == ("i", "t")

    def test_trace_structure(self):
        trace = to_chrome_trace(self._spans())
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert phases == {"M", "X", "i"}
        names = {e["args"]["name"] for e in trace["traceEvents"]
                 if e["name"] == "process_name"}
        assert names == {"train", "mpi", "faults"}

    def test_trace_json_byte_deterministic(self):
        assert chrome_trace_json(self._spans()) == \
            chrome_trace_json(self._spans())
        json.loads(chrome_trace_json(self._spans()))  # well-formed

    def test_run_summary_mentions_tracks_and_metrics(self):
        reg = MetricsRegistry()
        reg.counter("calls").inc(4)
        text = run_summary(self._spans(), reg, title="t")
        assert "3 subsystems" in text
        assert "calls: 4" in text


# -- process-wide defaults / capture -----------------------------------------

class TestCapture:
    def test_defaults_are_disabled(self):
        assert not telemetry.get_tracer().enabled
        assert not telemetry.get_registry().enabled

    def test_capture_swaps_and_restores(self):
        before_tracer = telemetry.get_tracer()
        with telemetry.capture() as (tracer, registry):
            assert telemetry.get_tracer() is tracer
            assert telemetry.get_registry() is registry
            assert tracer.enabled and registry.enabled
            tracer.record("x", "comm", 0.0, 1.0)
        assert telemetry.get_tracer() is before_tracer
        assert len(tracer) == 1

    def test_capture_restores_on_exception(self):
        before = telemetry.get_tracer()
        with pytest.raises(RuntimeError):
            with telemetry.capture():
                raise RuntimeError("boom")
        assert telemetry.get_tracer() is before

    def test_nested_captures_do_not_leak(self):
        with telemetry.capture() as (outer, _):
            with telemetry.capture() as (inner, _):
                telemetry.get_tracer().record("i", "comm", 0.0, 1.0)
            telemetry.get_tracer().record("o", "comm", 0.0, 1.0)
        assert [s.name for s in outer.spans] == ["o"]
        assert [s.name for s in inner.spans] == ["i"]
