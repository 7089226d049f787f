"""The chaos drill end to end: acceptance criteria, determinism, CLI."""

import dataclasses

import pytest

from repro.cli import main
from repro.scenarios import Facts, chaos_fault_plan, evaluate, run_scenario
from repro.storage.pfs import ParallelFileSystem


@pytest.fixture(scope="module")
def defended_drill():
    return run_scenario("chaos", seed=0, quick=True, defend=True)


@pytest.fixture(scope="module")
def control_drill():
    return run_scenario("chaos", seed=0, quick=True, defend=False)


def _passed(checks, name):
    return dict(checks)[name]


class TestAcceptance:
    def test_zero_admitted_request_loss(self, defended_drill):
        metrics = defended_drill.result.metrics
        assert defended_drill.facts.lost_requests == 0
        assert metrics.admitted == metrics.completed

    def test_every_chaos_class_fired(self, defended_drill):
        facts = defended_drill.facts
        assert facts.partition_windows > 0
        assert facts.gray_episodes > 0
        assert facts.crashes > 0
        assert _passed(defended_drill.checks, "chaos-delivered")

    def test_defenses_visibly_engaged(self, defended_drill):
        assert defended_drill.facts.breaker_transitions > 0
        assert defended_drill.facts.hedges_issued > 0
        assert defended_drill.result.metrics.hedges_backup_won >= 0

    def test_storage_sidecar_went_gray_then_recovered(self, defended_drill):
        # OST loss is a *gray* state: ok but degraded.
        assert defended_drill.facts.storage_went_gray
        assert "OSTs failed" in defended_drill.files["report.txt"]
        assert defended_drill.facts.storage_recovered

    def test_verdict_pass(self, defended_drill):
        assert defended_drill.ok
        assert defended_drill.files["report.txt"].rstrip().endswith(
            "verdict: PASS")


class TestControlArm:
    def test_zero_loss_is_structural_not_a_defense(self, control_drill):
        """Defenses off: the same faults fire, nothing may be lost."""
        assert _passed(control_drill.checks, "chaos-delivered")
        assert control_drill.facts.lost_requests == 0

    def test_defense_counters_read_zero(self, control_drill):
        facts = control_drill.facts
        assert facts.suspicion_events == 0
        assert facts.breaker_transitions == 0
        assert facts.hedges_issued == 0
        assert facts.brownout_path == ()
        assert control_drill.ok

    def test_leaked_defense_activity_fails_control(self, control_drill):
        leaked = dataclasses.replace(control_drill.facts, hedges_issued=1)
        assert not _passed(evaluate("chaos", leaked, defend=False),
                           "defenses-silent")


class TestDeterminism:
    def test_same_args_byte_identical(self, defended_drill):
        again = run_scenario("chaos", seed=0, quick=True, defend=True)
        assert again.files["report.txt"] == defended_drill.files["report.txt"]
        assert again.files["metrics.prom"] == \
            defended_drill.files["metrics.prom"]

    def test_plan_is_pure_function_of_seed(self):
        assert chaos_fault_plan(5, 12.0) == chaos_fault_plan(5, 12.0)
        assert chaos_fault_plan(5, 12.0) != chaos_fault_plan(6, 12.0)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_other_seeds_pass(self, seed):
        run = run_scenario("chaos", seed=seed, quick=True, defend=True)
        assert run.ok, run.files["report.txt"]


class TestVerdictGates:
    """Each check of the chaos verdict is real, not decorative."""

    def _failed(self, defended_drill, **overrides):
        facts = dataclasses.replace(defended_drill.facts, **overrides)
        return [name for name, ok in evaluate("chaos", facts) if not ok]

    def test_lost_request_fails(self, defended_drill):
        assert self._failed(defended_drill) == []
        assert self._failed(defended_drill, lost_requests=683) == \
            ["zero-loss"]

    def test_missing_chaos_fails(self, defended_drill):
        for field in ("partition_windows", "gray_episodes", "crashes"):
            assert self._failed(defended_drill, **{field: 0}) == \
                ["chaos-delivered"]

    def test_silent_defenses_fail(self, defended_drill):
        for field in ("breaker_transitions", "hedges_issued"):
            assert self._failed(defended_drill, **{field: 0}) == \
                ["defenses-engaged"]

    def test_storage_regression_fails(self, defended_drill):
        for field in ("storage_went_gray", "storage_recovered"):
            assert self._failed(defended_drill, **{field: False}) == \
                ["storage-gray-then-recovered"]

    def test_failing_report_renders_fail(self, monkeypatch):
        # A sidecar that never comes back: the run itself must say FAIL.
        monkeypatch.setattr(ParallelFileSystem, "recover_target",
                            lambda self, target: None)
        broken = run_scenario("chaos", seed=0, quick=True)
        assert broken.failed == ("storage-gray-then-recovered",)
        assert broken.files["report.txt"].rstrip().endswith("verdict: FAIL")


class TestCli:
    def test_drill_exits_zero_and_writes_artifacts(self, tmp_path):
        out = tmp_path / "drill"
        rc = main(["drill", "chaos", "--quick", "--out", str(out)])
        assert rc == 0
        report = (out / "report.txt").read_text()
        assert "verdict: PASS" in report
        assert "lost: 0" in report
        assert (out / "metrics.prom").read_text()

    def test_no_defend_control_arm_passes(self, tmp_path):
        rc = main(["drill", "chaos", "--quick", "--no-defend",
                   "--out", str(tmp_path / "d")])
        assert rc == 0
        report = (tmp_path / "d" / "report.txt").read_text()
        assert "defenses off" in report

    def test_cli_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["drill", "chaos", "--quick", "--out", str(a)]) == 0
        assert main(["drill", "chaos", "--quick", "--out", str(b)]) == 0
        assert (a / "report.txt").read_bytes() == \
            (b / "report.txt").read_bytes()
        assert (a / "metrics.prom").read_bytes() == \
            (b / "metrics.prom").read_bytes()


def test_report_is_frozen(defended_drill):
    assert isinstance(defended_drill.facts, Facts)
    with pytest.raises(dataclasses.FrozenInstanceError):
        defended_drill.facts.lost_requests = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        defended_drill.checks = ()
