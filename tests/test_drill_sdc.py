"""The SDC drill end to end: acceptance criteria, determinism, CLI."""

import dataclasses
import re

import numpy as np
import pytest

from repro.cli import main
from repro.scenarios import (
    KEEP_LAST,
    WORLD_SIZE,
    Facts,
    evaluate,
    run_scenario,
    sdc_fault_plan,
)


@pytest.fixture(scope="module")
def verified_drill():
    return run_scenario("sdc", seed=0, quick=True, verify=True)


def _ledger(run, family):
    """``{kind: count}`` of one corruption counter family in metrics.prom."""
    return {kind: int(n) for kind, n in re.findall(
        rf'^{family}{{kind="([^"]+)"}} (\d+)$', run.files["metrics.prom"],
        flags=re.M)}


class TestVerifiedDrill:
    def test_acceptance(self, verified_drill):
        """The headline contract: everything injected was detected, the
        rollback stayed within the retention window, and training ended
        exactly where the fault-free run did."""
        facts = verified_drill.facts
        assert verified_drill.ok, verified_drill.files["report.txt"]
        assert verified_drill.failed == ()
        assert facts.undetected == 0
        assert facts.max_rollback_versions <= KEEP_LAST
        assert facts.trajectory_matches
        assert np.isfinite(facts.max_loss_deviation)

    def test_every_corruption_class_fired(self, verified_drill):
        injected = _ledger(verified_drill, "integrity_corruptions_injected")
        assert injected.get("bitflip-message", 0) >= 1
        assert injected.get("bitflip-gradient", 0) >= 1
        assert injected.get("checkpoint-rot", 0) >= 1
        assert _ledger(verified_drill,
                       "integrity_corruptions_detected") == injected
        assert verified_drill.facts.injected == sum(injected.values())

    def test_offender_quarantined_and_ring_shrunk(self, verified_drill):
        # The plan corrupts world rank 2's gradient; after detection the
        # rank is quarantined through the scheduler and leaves the ring.
        report = verified_drill.files["report.txt"]
        assert "quarantined nodes: [2]" in report
        assert verified_drill.result.final_world_size == WORLD_SIZE - 1
        assert f"world: {WORLD_SIZE} -> {WORLD_SIZE - 1}" in report
        assert any(r.reason == "gradient-corruption"
                   for r in verified_drill.result.recoveries)

    def test_scrub_closed_the_books(self, verified_drill):
        assert verified_drill.result.scrub.get("checked", 0) > 0

    def test_report_text_verdict(self, verified_drill):
        text = verified_drill.files["report.txt"]
        assert "verdict: PASS" in text
        assert "corruption ledger:" in text

    def test_metrics_exposition_carries_ledger(self, verified_drill):
        prometheus = verified_drill.files["metrics.prom"]
        assert "integrity_corruptions_injected" in prometheus
        assert "integrity_corruptions_detected" in prometheus
        assert "integrity_undetected 0" in prometheus


class TestDeterminism:
    def test_same_seed_byte_identical(self, verified_drill):
        again = run_scenario("sdc", seed=0, quick=True, verify=True)
        assert again.files["report.txt"] == verified_drill.files["report.txt"]
        assert again.files["metrics.prom"] == \
            verified_drill.files["metrics.prom"]

    def test_fault_plan_is_pure_function_of_seed(self):
        assert sdc_fault_plan(5, 12) == sdc_fault_plan(5, 12)
        assert sdc_fault_plan(5, 12) != sdc_fault_plan(6, 12)


class TestUnverifiedDrill:
    def test_corruption_visibly_lands(self):
        """--no-verify is the control arm: same seed, same faults, but the
        trajectory must now diverge — proving detection does real work."""
        run = run_scenario("sdc", seed=0, quick=True, verify=False)
        assert run.ok, run.files["report.txt"]
        assert not run.facts.trajectory_matches
        assert run.facts.injected > 0
        assert run.facts.undetected > 0
        # The control arm replaces the all-detected check, it does not
        # merely pass it.
        assert "all-detected" not in dict(run.checks)
        assert dict(run.checks)["trajectory-diverges"]


class TestReportVerdict:
    """Each gate of the verified arm's verdict is real."""

    def _failed(self, **mutation):
        facts = dataclasses.replace(
            Facts(injected=3.0, undetected=0.0, max_rollback_versions=1,
                  max_loss_deviation=0.0), **mutation)
        return [name for name, ok in evaluate("sdc", facts) if not ok]

    def test_base_passes(self):
        assert self._failed() == []

    def test_undetected_fails(self):
        assert self._failed(undetected=1.0) == ["all-detected"]

    def test_unbounded_rollback_fails(self):
        assert self._failed(max_rollback_versions=KEEP_LAST + 1) == \
            ["rollback-bounded"]

    def test_diverged_trajectory_fails(self):
        assert self._failed(max_loss_deviation=1e-3) == \
            ["trajectory-matches"]
        assert self._failed(max_loss_deviation=float("nan")) == \
            ["trajectory-matches"]

    def test_nothing_injected_fails(self):
        assert self._failed(injected=0.0) == ["corruption-injected"]

    def test_control_arm_gates(self):
        landed = Facts(injected=3.0, undetected=3.0,
                       max_loss_deviation=float("nan"))
        assert all(ok for _, ok in evaluate("sdc", landed, verify=False))
        for broken in (dataclasses.replace(landed, injected=0.0),
                       dataclasses.replace(landed, max_loss_deviation=0.0)):
            assert not all(ok for _, ok
                           in evaluate("sdc", broken, verify=False))


class TestCli:
    def test_drill_exits_zero_and_writes_artifacts(self, tmp_path):
        out = tmp_path / "drill"
        rc = main(["drill", "sdc", "--quick", "--out", str(out)])
        assert rc == 0
        report = (out / "report.txt").read_text()
        assert "verdict: PASS" in report
        assert "integrity_undetected 0" in (out / "metrics.prom").read_text()

    def test_no_verify_control_arm_passes(self, tmp_path):
        rc = main(["drill", "sdc", "--quick", "--no-verify",
                   "--out", str(tmp_path / "d")])
        assert rc == 0

    def test_cli_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["drill", "sdc", "--quick", "--out", str(a)]) == 0
        assert main(["drill", "sdc", "--quick", "--out", str(b)]) == 0
        assert (a / "report.txt").read_bytes() == \
            (b / "report.txt").read_bytes()
        assert (a / "metrics.prom").read_bytes() == \
            (b / "metrics.prom").read_bytes()
