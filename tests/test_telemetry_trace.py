"""End-to-end trace tests: determinism, coverage, well-formedness, CLI.

These drive the canonical ``repro trace`` scenarios (quick variants) and
assert the acceptance properties literally: same seed → byte-identical
artifacts, spans from ≥4 subsystems on one simulated timebase, valid
nesting per rank lane, and a zero invariant gauge.
"""

import hashlib
import json

import numpy as np
import pytest

from repro import telemetry
from repro.mpi import run_spmd
from repro.scenarios import SCENARIOS, run_scenario
from repro.telemetry import MetricsRegistry
from tests.test_telemetry_core import metric_value
from tests.test_telemetry_core import validate_nesting


@pytest.fixture(scope="module")
def train_artifacts():
    return run_scenario("train", seed=0, quick=True)


@pytest.fixture(scope="module")
def serve_artifacts():
    return run_scenario("serve", seed=0, quick=True)


class TestTrainScenario:
    def test_cross_layer_coverage(self, train_artifacts):
        # The acceptance bar: one trace, one timebase, ≥4 subsystems.
        assert {s.track for s in train_artifacts.spans} >= {
            "scheduler", "mpi", "train", "storage", "faults"}
        assert len(train_artifacts.spans) > 50

    def test_byte_identical_rerun(self, train_artifacts):
        again = run_scenario("train", seed=0, quick=True)
        assert again.files["trace.json"] == train_artifacts.files["trace.json"]
        assert again.files["metrics.prom"] == \
            train_artifacts.files["metrics.prom"]
        assert again.files["summary.txt"] == \
            train_artifacts.files["summary.txt"]

    def test_seed_changes_trace(self, train_artifacts):
        other = run_scenario("train", seed=1, quick=True)
        assert other.files["trace.json"] != train_artifacts.files["trace.json"]

    def test_trace_is_valid_chrome_json(self, train_artifacts):
        trace = json.loads(train_artifacts.files["trace.json"])
        events = trace["traceEvents"]
        assert {e["ph"] for e in events} == {"M", "X", "i"}
        for e in events:
            if e["ph"] == "X":
                assert e["dur"] >= 0 and e["ts"] >= 0

    def test_rank_lane_spans_nest(self, train_artifacts):
        # Comm/train spans on a rank's lane must nest or be disjoint —
        # a partial overlap means an instrumentation clock bug.
        rank_spans = [s for s in train_artifacts.spans
                      if s.track in ("mpi", "train")]
        assert rank_spans
        assert validate_nesting(rank_spans) == []

    def test_key_events_present(self, train_artifacts):
        names = {s.name for s in train_artifacts.spans}
        assert {"allreduce", "step", "grad-allreduce", "rank-kill",
                "checkpoint-save", "checkpoint-restore", "submit",
                "place"} <= names

    def test_metrics_cover_subsystems(self, train_artifacts):
        prom = train_artifacts.files["metrics.prom"]
        for needle in ("collective_calls_total", "train_steps_total",
                       "checkpoint_writes_total", "faults_injected_total",
                       "scheduler_jobs_completed", "resilience_recoveries"):
            assert needle in prom

    def test_no_invariant_violations(self, train_artifacts):
        assert train_artifacts.ok
        assert [name for name, _ in train_artifacts.checks] == [
            "all-detected", "no-invariant-gauge"]
        assert train_artifacts.facts.injected > 0


class TestCollectiveTelemetry:
    """The collective path's telemetry as counted work (DESIGN §15)."""

    def test_counters_resolved_by_label_once_per_communicator(self):
        class CountingRegistry(MetricsRegistry):
            def __init__(self):
                super().__init__()
                self.resolved = []

            def counter(self, name, **labels):
                self.resolved.append((name, labels["op"]))
                return super().counter(name, **labels)

        def fn(comm):
            for _ in range(6):
                comm.allreduce(np.ones(8))
                comm.bcast({"k": 1} if comm.rank == 0 else None)
                comm.barrier()

        registry = CountingRegistry()
        with telemetry.capture() as (tracer, _):
            telemetry.set_registry(registry)    # capture restores on exit
            run_spmd(fn, 2, timeout=30)
        # One look-up per (communicator, family, op) — and none at all for
        # a family the op never moves: barrier sends no bytes, a non-root
        # bcast passes None.
        assert sorted(registry.resolved) == sorted(
            [("collective_calls_total", op)
             for op in ("allreduce", "barrier", "bcast")] * 2
            + [("collective_bytes", "allreduce")] * 2
            + [("collective_bytes", "bcast")])
        assert metric_value(registry, "collective_calls_total",
                            op="barrier") == 12
        assert metric_value(registry, "collective_bytes",
                            op="allreduce") == 12 * 64
        assert 'collective_bytes{op="barrier"}' not in registry.to_prometheus()
        assert sum(s.track == "mpi" for s in tracer.spans) == 36

    def test_new_capture_gets_its_own_counters(self):
        def fn(comm):
            with telemetry.capture() as (_, first):
                comm.send("x", dest=0, tag=1)
            with telemetry.capture() as (_, second):
                comm.recv(source=0, tag=1)
                comm.send("y", dest=0, tag=1)
            return (metric_value(first, "collective_calls_total", op="send"),
                    metric_value(second, "collective_calls_total", op="send"),
                    metric_value(second, "collective_calls_total", op="recv"))

        assert run_spmd(fn, 1) == [(1, 1, 1)]

    def test_train_trace_mpi_spans_and_collective_metrics_pinned(
            self, train_artifacts):
        """Byte-for-byte what the per-call look-ups produced before."""
        mpi = [s for s in train_artifacts.spans if s.track == "mpi"]
        assert len(mpi) == 87
        assert hashlib.sha256(repr(mpi).encode()).hexdigest()[:16] \
            == "99a434b9017975b4"
        assert [line for line
                in train_artifacts.files["metrics.prom"].splitlines()
                if line.startswith("collective_")] == [
            'collective_bytes{op="allgather"} 274',
            'collective_bytes{op="allreduce"} 11852',
            'collective_bytes{op="bcast"} 1878',
            'collective_bytes{op="grad-allreduce"} 9408',
            'collective_calls_total{op="allgather"} 11',
            'collective_calls_total{op="allreduce"} 60',
            'collective_calls_total{op="bcast"} 16',
        ]


class TestServeScenario:
    def test_byte_identical_rerun(self, serve_artifacts):
        again = run_scenario("serve", seed=0, quick=True)
        assert again.files["trace.json"] == serve_artifacts.files["trace.json"]
        assert again.files["metrics.prom"] == \
            serve_artifacts.files["metrics.prom"]

    def test_serving_and_fault_tracks(self, serve_artifacts):
        assert {"serving", "faults"} <= {s.track
                                         for s in serve_artifacts.spans}

    def test_conservation_gauge_zero(self, serve_artifacts):
        assert serve_artifacts.ok
        assert "serving_invariant_violations 0" in \
            serve_artifacts.files["metrics.prom"]

    def test_failover_visible(self, serve_artifacts):
        names = {s.name for s in serve_artifacts.spans}
        assert "failover" in names
        assert "batch" in names


class TestTraceCLI:
    def test_writes_artifacts_and_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace-out"
        rc = main(["trace", "serve", "--quick", "--out", str(out)])
        assert rc == 0
        for fname in ("trace.json", "metrics.prom", "summary.txt"):
            assert (out / fname).read_text().strip()
        json.loads((out / "trace.json").read_text())
        assert "repro trace serve" in capsys.readouterr().out

    def test_scenarios_registry_matches_cli_choices(self):
        assert {name for name, scenario in SCENARIOS.items()
                if scenario.command == "trace"} == {"train", "serve"}
