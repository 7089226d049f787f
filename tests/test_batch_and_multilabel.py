"""Batch job scripts, schedule Gantt export, bottleneck ResNet and the
multi-label BigEarthNet task (the corpus's real annotation mode)."""

import numpy as np
import pytest

from repro.core import deep_system, schedule_workload
from repro.core.batch import (
    BatchScriptError,
    parse_job_script,
    schedule_to_chrome_trace,
)
from repro.core.jobs import WorkloadClass
from repro.datasets import BigEarthNetConfig, SyntheticBigEarthNet
from repro.ml import Adam, Tensor, binary_cross_entropy_with_logits
from repro.ml.metrics import multilabel_micro_f1, subset_accuracy
from repro.ml.models import BottleneckBlock, BottleneckResNet

SCRIPT = """#!/bin/sh
#SBATCH --job-name=rs-pipeline
#SBATCH --begin=60
# stage the data, then train
#PHASE name=preprocess workload=simulation-lowscale nodes=4 work=1e15 memory=64 io=100
#PHASE name=train workload=ml-training nodes=16 work=2e18 gpu tensor-cores parallel=0.998 comm=8
"""


class TestBatchScripts:
    def test_parse_full_script(self):
        job = parse_job_script(SCRIPT)
        assert job.name == "rs-pipeline"
        assert job.arrival_time == 60.0
        assert len(job.phases) == 2
        prep, train = job.phases
        assert prep.workload is WorkloadClass.SIMULATION_LOWSCALE
        assert prep.io_bytes == pytest.approx(100 * 1024 ** 3)
        assert train.uses_gpu and train.uses_tensor_cores
        assert train.nodes == 16
        assert train.parallel_fraction == pytest.approx(0.998)

    def test_parsed_job_schedules(self):
        job = parse_job_script(SCRIPT)
        report = schedule_workload(deep_system(), [job])
        assert len(report.completion_times) == 1
        modules = [a.module_key for a in report.allocations]
        assert modules[0] == "cm"

    def test_unknown_sbatch_option_rejected(self):
        with pytest.raises(BatchScriptError):
            parse_job_script("#SBATCH --walltime=10\n#PHASE workload=ml-training work=1")

    def test_unknown_phase_option_rejected(self):
        with pytest.raises(BatchScriptError):
            parse_job_script("#PHASE workload=ml-training work=1 turbo=yes")

    def test_unknown_workload_rejected(self):
        with pytest.raises(BatchScriptError) as err:
            parse_job_script("#PHASE workload=mining work=1")
        assert "mining" in str(err.value)

    def test_missing_work_rejected(self):
        with pytest.raises(BatchScriptError):
            parse_job_script("#PHASE workload=ml-training nodes=2")

    def test_empty_script_rejected(self):
        with pytest.raises(BatchScriptError):
            parse_job_script("# nothing here\n")

    def test_shell_commands_rejected(self):
        with pytest.raises(BatchScriptError):
            parse_job_script("srun python train.py")

    def test_comments_and_shebang_ignored(self):
        job = parse_job_script(
            "#!/bin/bash\n# hi\n#PHASE workload=ml-inference work=5e14 gpu\n")
        assert job.phases[0].workload is WorkloadClass.ML_INFERENCE


class TestGanttExport:
    def test_chrome_trace_structure(self):
        job = parse_job_script(SCRIPT)
        report = schedule_workload(deep_system(), [job])
        trace = schedule_to_chrome_trace(report)
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        lanes = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert len(spans) == len(report.allocations)
        assert {l["args"]["name"] for l in lanes} == \
            {a.module_key for a in report.allocations}
        for span in spans:
            assert span["dur"] > 0

    def test_events_equal_the_hand_built_dicts(self):
        """Literal captured before the export moved onto the telemetry
        event helpers (PR 23): same dicts, key for key."""
        report = schedule_workload(deep_system(), [parse_job_script(SCRIPT)])
        assert schedule_to_chrome_trace(report) == {
            "traceEvents": [
                {"name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
                 "args": {"name": "cm"}},
                {"name": "thread_name", "ph": "M", "pid": 0, "tid": 1,
                 "args": {"name": "dam"}},
                {"name": "rs-pipeline/preprocess", "cat": "phase",
                 "ph": "X", "pid": 0, "tid": 0, "ts": 60000000.0,
                 "dur": 8557889796.32762,
                 "args": {"nodes": 4, "module": "cm"}},
                {"name": "rs-pipeline/train", "cat": "phase", "ph": "X",
                 "pid": 0, "tid": 1, "ts": 8617889796.32762,
                 "dur": 10300690202.267359,
                 "args": {"nodes": 16, "module": "dam"}}],
            "displayTimeUnit": "ms"}

    def test_trace_json_serialisable(self):
        import json

        job = parse_job_script(SCRIPT)
        report = schedule_workload(deep_system(), [job])
        json.dumps(schedule_to_chrome_trace(report))


class TestBottleneckResNet:
    def test_block_expansion(self):
        block = BottleneckBlock(8, width=4)
        assert block.out_channels == 16
        out = block(Tensor(np.random.default_rng(0).normal(size=(2, 8, 8, 8))))
        assert out.shape == (2, 16, 8, 8)

    def test_resnet50_layout_constructible(self):
        # The true (3, 4, 6, 3) layout at tiny width: 16 bottlenecks.
        net = BottleneckResNet(3, 10, blocks_per_stage=(3, 4, 6, 3),
                               base_width=2)
        assert len(net.stages) == 16
        out = net(Tensor(np.random.default_rng(0).normal(size=(1, 3, 16, 16))))
        assert out.shape == (1, 10)

    def test_gradients_reach_all_parameters(self):
        from repro.ml import cross_entropy

        net = BottleneckResNet(4, 3, blocks_per_stage=(1, 1), base_width=4)
        loss = cross_entropy(
            net(Tensor(np.random.default_rng(1).normal(size=(2, 4, 8, 8)))),
            np.array([0, 2]))
        net.zero_grad()
        loss.backward()
        for name, p in net.named_parameters():
            assert p.grad is not None, name


class TestMultiLabelLandCover:
    """BigEarthNet's actual task: multi-label CORINE annotation."""

    @pytest.fixture(scope="class")
    def trained(self):
        X, Y = SyntheticBigEarthNet(BigEarthNetConfig(
            n_samples=160, patch_size=8, n_classes=4, multi_label=True,
            max_labels=2, noise_sigma=0.01, seed=1)).generate_multilabel()
        net = BottleneckResNet(in_channels=12, n_classes=4,
                               blocks_per_stage=(1, 1), base_width=6)
        opt = Adam(net.parameters(), lr=3e-3)
        rng = np.random.default_rng(0)
        for _ in range(60):
            idx = rng.permutation(len(X))[:64]
            loss = binary_cross_entropy_with_logits(
                net(Tensor(X[idx])), Y[idx])
            net.zero_grad()
            loss.backward()
            opt.step()
        return net, X, Y

    def test_micro_f1_above_threshold(self, trained):
        net, X, Y = trained
        probs = net.predict_proba_multilabel(X)
        assert multilabel_micro_f1(probs, Y) > 0.7

    def test_beats_always_on_baseline(self, trained):
        net, X, Y = trained
        probs = net.predict_proba_multilabel(X)
        always_on = np.ones_like(Y)
        assert multilabel_micro_f1(probs, Y) > \
            multilabel_micro_f1(always_on, Y)

    def test_probabilities_in_unit_interval(self, trained):
        net, X, _ = trained
        probs = net.predict_proba_multilabel(X[:8])
        assert ((probs >= 0) & (probs <= 1)).all()

    def test_subset_accuracy_above_chance(self, trained):
        net, X, Y = trained
        probs = net.predict_proba_multilabel(X)
        # Chance subset accuracy for 4 independent labels ~ (1/2)^4.
        assert subset_accuracy(probs, Y) > 0.2
