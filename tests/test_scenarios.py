"""The one scenario path: registry, determinism, drill traces, CLI verdicts."""

import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, experiments, main
from repro.scenarios import (
    CHECKS,
    SCENARIOS,
    ScenarioUsageError,
    run_scenario,
)
from repro.storage.pfs import ParallelFileSystem

REPO = Path(__file__).resolve().parents[1]


def _choices(command):
    sub = next(a for a in build_parser()._subparsers._group_actions
               if a.dest == "command")
    positional = sub.choices[command]._positionals._group_actions
    return set(next(a for a in positional if a.choices).choices)


class TestRegistry:
    def test_scenarios_are_exactly_the_cli_choices(self):
        for command in ("trace", "drill"):
            assert _choices(command) == {
                name for name, s in SCENARIOS.items() if s.command == command}
        assert set(SCENARIOS) == {"train", "serve", "sdc", "chaos"}

    def test_every_declared_check_exists(self):
        for scenario in SCENARIOS.values():
            assert set(scenario.checks + scenario.control_checks) <= \
                set(CHECKS)
            # Only a scenario with an arm has a control verdict.
            assert bool(scenario.arm) == bool(scenario.control_checks)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_same_seed_same_bytes_other_seed_other_trace(self, name):
        first, again = (run_scenario(name, seed=0, quick=True)
                        for _ in range(2))
        assert first.ok, first.failed
        assert list(first.files) == list(again.files)
        for filename in first.files:
            assert first.files[filename] == again.files[filename], filename
        other = run_scenario(name, seed=1, quick=True)
        assert other.files["trace.json"] != first.files["trace.json"]
        command = SCENARIOS[name].command
        assert first.files["summary.txt"].startswith(
            f"repro {command} {name} (seed 0)\n")
        assert ("report.txt" in first.files) == (command == "drill")


class TestDrillTraces:
    """Drills now leave the timeline behind (they used to drop the tracer)."""

    @pytest.mark.parametrize("name, tracks", [
        ("sdc", {"faults", "mpi", "train", "storage"}),
        ("chaos", {"faults", "serving"}),
    ])
    def test_trace_is_chrome_json_with_the_subsystem_tracks(self, name,
                                                            tracks):
        run = run_scenario(name, seed=0, quick=True)
        events = json.loads(run.files["trace.json"])["traceEvents"]
        assert {e["ph"] for e in events} == {"M", "X", "i"}
        assert all(e["ts"] >= 0 and e["dur"] >= 0
                   for e in events if e["ph"] == "X")
        assert {e["args"]["name"] for e in events
                if e["name"] == "process_name"} == tracks
        assert {s.track for s in run.spans} == tracks

    def test_cli_writes_trace_and_summary_beside_the_report(self, tmp_path,
                                                            capsys):
        out = tmp_path / "d"
        assert main(["drill", "chaos", "--quick", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "metrics.prom", "report.txt", "summary.txt", "trace.json"]
        json.loads((out / "trace.json").read_text())
        stdout = capsys.readouterr().out
        assert stdout.startswith((out / "report.txt").read_text())
        assert stdout.endswith(
            f"artifacts written to {out}/ "
            "(report.txt, trace.json, metrics.prom, summary.txt)\n")


class TestCliVerdict:
    def test_failed_checks_are_named_on_stderr_and_exit_one(
            self, tmp_path, capsys, monkeypatch):
        # Two failures at once: a sidecar that never comes back, and a
        # conservation check forced false.
        monkeypatch.setattr(ParallelFileSystem, "recover_target",
                            lambda self, target: None)
        monkeypatch.setitem(CHECKS, "zero-loss", lambda facts: False)
        rc = main(["drill", "chaos", "--quick", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        for check in ("zero-loss", "storage-gray-then-recovered"):
            assert check in err
        assert "chaos-delivered" not in err
        assert (tmp_path / "report.txt").read_text().endswith(
            "verdict: FAIL\n")

    def test_failing_trace_exits_one_too(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(CHECKS, "no-invariant-gauge", lambda facts: False)
        rc = main(["trace", "serve", "--quick", "--out", str(tmp_path)])
        assert rc == 1
        assert "no-invariant-gauge" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, flag, arm", [
        ("chaos", "--no-verify", "verify"),
        ("sdc", "--no-defend", "defend"),
    ])
    def test_undeclared_arm_is_a_usage_error(self, kind, flag, arm,
                                             tmp_path, capsys):
        """Accepted and silently ignored (exit 0) before PR 23."""
        rc = main(["drill", kind, "--quick", flag, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert kind in err and arm in err
        assert not list(tmp_path.iterdir())

    def test_run_scenario_rejects_an_arm_a_trace_does_not_have(self):
        with pytest.raises(ScenarioUsageError, match="'train'.*'verify'"):
            run_scenario("train", quick=True, verify=False)


def test_no_experiments_row_names_a_missing_source_path():
    for exp_id, _, where in experiments():
        for path in re.findall(r"src/[\w/.]+", where):
            assert (REPO / path).exists(), (exp_id, path)
