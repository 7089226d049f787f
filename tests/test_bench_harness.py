"""Property tests for the perf-regression harness.

The two properties the harness exists to provide:

* **determinism** — same (code, seed, quick, env) ⇒ byte-identical
  ``BENCH_<area>.json`` artifacts, so CI can diff them textually,
* **regression gating** — ``--compare`` fails on a budgeted metric that
  regressed beyond tolerance (asserted here by doctoring a baseline to
  make the current run look 2x slower) and passes on identical runs,
* **shape gating** — a ``paper`` case whose numbers contradict the paper's
  claim fails the run by name and writes nothing (asserted by breaking
  the tuned training recipe under E3).
"""

import copy
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.registry import cases_for
from repro.bench.runner import (
    compare_docs,
    load_artifact_dir,
    run_bench,
    write_artifacts,
)
from repro.bench.schema import (
    SCHEMA_ID,
    BenchSchemaError,
    dumps_canonical,
    env_fingerprint,
    loads_validated,
    validate_artifact,
)
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
#: Areas the acceptance gate requires; the registry may add more.
CORE_AREAS = ("events", "mpi", "training", "serving", "tensor",
              "scheduler", "paper")


@pytest.fixture(scope="module")
def quick_run():
    """One deterministic quick run over every registered area."""
    return run_bench(quick=True, seed=0)


class TestDeterminism:
    def test_core_areas_all_emitted(self, quick_run):
        assert set(CORE_AREAS) <= set(quick_run)

    def test_same_seed_runs_are_byte_identical(self, quick_run, tmp_path):
        # The paper area is compared across processes in TestPaperArea.
        rerun = run_bench(areas=[a for a in quick_run if a != "paper"],
                          quick=True, seed=0)
        for area, doc in rerun.items():
            assert dumps_canonical(doc) == \
                dumps_canonical(quick_run[area]), f"area {area} drifted"

    def test_different_seed_changes_workload_digests(self, quick_run):
        other = run_bench(areas=["events"], quick=True, seed=1)
        a = quick_run["events"]["cases"]["des_event_throughput"]
        b = other["events"]["cases"]["des_event_throughput"]
        assert a["digests"] != b["digests"]

    def test_written_artifacts_roundtrip_validated(self, quick_run,
                                                   tmp_path):
        paths = write_artifacts(quick_run, tmp_path)
        assert {p.name for p in paths} == \
            {f"BENCH_{a}.json" for a in quick_run}
        # Nothing but the deterministic artifacts lands in the directory.
        assert set(tmp_path.iterdir()) == set(paths)
        docs = load_artifact_dir(tmp_path)
        assert set(docs) == set(quick_run)
        for area, doc in docs.items():
            assert doc == json.loads(dumps_canonical(quick_run[area]))


class TestCompare:
    def test_identical_runs_pass(self, quick_run):
        report = compare_docs(quick_run, quick_run)
        assert report.ok
        assert not report.improvements

    def test_injected_2x_slowdown_flagged(self, quick_run):
        # Doctor the *baseline* so every lower-is-better budgeted metric
        # looks like the current run regressed 2x against it (and every
        # higher-is-better one like it halved).
        current = quick_run
        baseline = copy.deepcopy(current)
        doctored = 0
        for doc in baseline.values():
            for case in doc["cases"].values():
                for metric, budget in case["budgets"].items():
                    value = case["metrics"][metric]
                    if value == 0:
                        continue
                    if budget["direction"] == "lower":
                        case["metrics"][metric] = value / 2.0
                    else:
                        case["metrics"][metric] = value * 2.0
                    doctored += 1
        assert doctored > 0
        report = compare_docs(current, baseline)
        assert not report.ok
        assert len(report.regressions) == doctored
        assert "REGRESSIONS" in report.to_text()

    def test_regression_within_tolerance_passes(self, quick_run):
        current = quick_run
        baseline = copy.deepcopy(current)
        case = baseline["mpi"]["cases"]["p2p_message_rate"]
        tol = case["budgets"]["sim_time_s"]["tolerance"]
        case["metrics"]["sim_time_s"] /= (1.0 + tol * 0.5)
        assert compare_docs(current, baseline).ok

    def test_missing_area_is_a_regression(self, quick_run):
        current = quick_run
        baseline = dict(current)
        current = {a: d for a, d in current.items() if a != "events"}
        report = compare_docs(current, baseline)
        assert not report.ok
        assert any(d.area == "events" for d in report.regressions)

    def test_digest_drift_is_a_note_not_a_failure(self, quick_run):
        current = quick_run
        baseline = copy.deepcopy(current)
        case = baseline["training"]["cases"]["fused_allreduce_step"]
        case["digests"]["loss_trajectory"] = "0" * 16
        report = compare_docs(current, baseline)
        assert report.ok
        assert any("digest:loss_trajectory" in n for n in report.notes)

    def test_scheduler_rescoring_regression_flagged(self, quick_run):
        # The scheduler case exists so matchmaking can never silently go
        # back to re-scoring the whole backlog per event (~400 evaluations
        # per placement at this size instead of <= one per module).
        baseline = quick_run
        current = copy.deepcopy(baseline)
        case = current["scheduler"]["cases"]["scheduler_backlog_drain"]
        assert case["metrics"]["evals_per_placement"] <= 3.0
        case["metrics"]["evals_per_placement"] *= 1.3
        report = compare_docs(current, baseline)
        assert not report.ok
        assert [(d.area, d.metric) for d in report.regressions] == [
            ("scheduler", "evals_per_placement")]


class TestSchema:
    def _valid_doc(self):
        return {
            "schema": SCHEMA_ID, "area": "mpi", "mode": "quick", "seed": 0,
            "env": env_fingerprint(),
            "cases": {"c": {"metrics": {"m": 1.0},
                            "digests": {"d": "abc"},
                            "budgets": {"m": {"direction": "lower",
                                              "tolerance": 0.1}}}},
        }

    def test_valid_doc_roundtrips(self):
        doc = self._valid_doc()
        validate_artifact(doc)
        assert loads_validated(dumps_canonical(doc)) == doc

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("schema"),
        lambda d: d.update(schema="other/9"),
        lambda d: d.update(mode="fast"),
        lambda d: d.update(seed="0"),
        lambda d: d.update(seed=True),
        lambda d: d.pop("env"),
        lambda d: d["env"].pop("numpy"),
        lambda d: d.update(cases={}),
        lambda d: d["cases"]["c"]["metrics"].update(m="fast"),
        lambda d: d["cases"]["c"]["metrics"].update(m=True),
        lambda d: d["cases"]["c"]["digests"].update(d=5),
        lambda d: d["cases"]["c"]["budgets"]["m"].update(direction="up"),
        lambda d: d["cases"]["c"]["budgets"]["m"].update(tolerance=-1),
        lambda d: d["cases"]["c"]["budgets"].update(
            ghost={"direction": "lower", "tolerance": 0.1}),
    ])
    def test_invalid_docs_rejected(self, mutate):
        doc = self._valid_doc()
        mutate(doc)
        with pytest.raises(BenchSchemaError):
            validate_artifact(doc)

    def test_non_json_rejected(self):
        with pytest.raises(BenchSchemaError):
            loads_validated("{not json")

    def test_load_artifact_dir_requires_artifacts(self, tmp_path):
        with pytest.raises(BenchSchemaError):
            load_artifact_dir(tmp_path / "missing")
        with pytest.raises(BenchSchemaError):
            load_artifact_dir(tmp_path)


class TestCommittedBaseline:
    """The repo's committed baseline must stay loadable and current-shaped."""

    def test_baseline_validates(self):
        docs = load_artifact_dir(REPO_ROOT / "benchmarks" / "baselines")
        assert set(CORE_AREAS) <= set(docs)

    def test_full_mode_paper_baseline_validates(self):
        docs = load_artifact_dir(REPO_ROOT / "benchmarks" / "baselines"
                                 / "full")
        assert docs["paper"]["mode"] == "full"
        assert set(docs["paper"]["cases"]) == \
            {case.name for case in cases_for(["paper"])}

    def test_current_code_matches_committed_baseline(self, quick_run):
        docs = load_artifact_dir(REPO_ROOT / "benchmarks" / "baselines")
        report = compare_docs(quick_run, docs)
        assert report.ok, report.to_text()


PAPER_IDS = [f"E{i}" for i in range(1, 15)] + ["ABL"]


class TestPaperArea:
    """E1–E14 + ABL are bench cases: gated, listed from the registry,
    reproducible across processes."""

    def test_broken_shape_fails_the_run_by_name(self, monkeypatch, tmp_path,
                                                capsys):
        from repro.distributed.perfmodel import TrainingRecipe

        tuned = TrainingRecipe.tuned
        monkeypatch.setattr(
            TrainingRecipe, "tuned",
            lambda self: dataclasses.replace(tuned(self), comm_overlap=0.0))
        code = main(["bench", "--quick", "--areas", "paper",
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert "paper/E3_resnet_scaling" in err
        assert "tuned-128 beats naive-128 by more than 10%" in err
        assert not (tmp_path / "out" / "BENCH_paper.json").exists()

    def test_experiments_lists_each_paper_case_once(self, capsys):
        assert main(["experiments"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        ids = [row[0] for row in rows]
        assert ids == PAPER_IDS[:-1] + [f"E{i}" for i in range(15, 25)] \
            + ["ABL"]
        registered = {case.name for case in cases_for(["paper"])}
        listed = {row[0]: row[-1].strip("()") for row in rows
                  if row[0] in PAPER_IDS}
        assert sorted(listed.values()) == sorted(registered)
        for exp_id, case_name in listed.items():
            assert case_name.startswith(exp_id + "_")

    def test_separate_processes_write_identical_bytes(self, quick_run,
                                                      tmp_path):
        """This process's run and a fresh interpreter's agree to the byte
        (what ``cmp`` on two ``BENCH_paper.json`` files checks)."""
        run = subprocess.run(
            [sys.executable, "-m", "repro.cli", "bench", "--quick",
             "--areas", "paper", "--out", str(tmp_path)],
            cwd=REPO_ROOT, text=True, capture_output=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
        assert run.returncode == 0, run.stderr
        assert (tmp_path / "BENCH_paper.json").read_text() == \
            dumps_canonical(quick_run["paper"])


class TestCli:
    def test_bench_compare_exit_codes(self, tmp_path):
        """End-to-end: emit, compare-clean (0), compare-doctored (1)."""
        out = tmp_path / "out"
        env_cmd = [sys.executable, "-m", "repro.cli", "bench", "--quick",
                   "--areas", "events"]
        run = subprocess.run(
            env_cmd + ["--out", str(out)], cwd=REPO_ROOT, text=True,
            capture_output=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
        assert run.returncode == 0, run.stderr
        assert (out / "BENCH_events.json").exists()

        clean = subprocess.run(
            env_cmd + ["--out", str(tmp_path / "out2"),
                       "--compare", str(out)],
            cwd=REPO_ROOT, text=True, capture_output=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
        assert clean.returncode == 0, clean.stderr

        doc = loads_validated((out / "BENCH_events.json").read_text())
        case = doc["cases"]["des_event_throughput"]
        case["metrics"]["sim_rate_events_per_s"] *= 4.0   # fake: was faster
        (out / "BENCH_events.json").write_text(dumps_canonical(doc))
        doctored = subprocess.run(
            env_cmd + ["--out", str(tmp_path / "out3"),
                       "--compare", str(out)],
            cwd=REPO_ROOT, text=True, capture_output=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
        assert doctored.returncode == 1
        assert "REGRESSIONS" in doctored.stdout
