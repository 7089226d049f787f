"""The CLI front end, cosine LR decay and gradient clipping."""

import numpy as np
import pytest

from repro.cli import build_parser, experiments, main
from repro.ml import CosineDecaySchedule, SGD, clip_grad_norm
from repro.ml.layers import Parameter


class TestCli:
    def test_systems(self, capsys):
        assert main(["systems"]) == 0
        out = capsys.readouterr().out
        assert "DEEP" in out and "JUWELS" in out
        assert "qubits" in out

    def test_schedule(self, capsys):
        assert main(["schedule", "--jobs", "4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out

    def test_schedule_with_placements(self, capsys):
        assert main(["schedule", "--jobs", "3", "--placements"]) == 0
        assert "placements:" in capsys.readouterr().out

    def test_schedule_on_juwels(self, capsys):
        assert main(["schedule", "--system", "juwels", "--jobs", "3"]) == 0
        assert "JUWELS" in capsys.readouterr().out

    def test_scaling(self, capsys):
        assert main(["scaling", "--gpus", "1", "8", "96"]) == 0
        out = capsys.readouterr().out
        assert "96" in out and "speedup" in out

    def test_scaling_tuned(self, capsys):
        main(["scaling", "--gpus", "128"])
        naive = capsys.readouterr().out
        main(["scaling", "--gpus", "128", "--tuned"])
        tuned = capsys.readouterr().out
        naive_speedup = float(naive.splitlines()[-1].split()[2])
        tuned_speedup = float(tuned.splitlines()[-1].split()[2])
        assert tuned_speedup > naive_speedup

    def test_submit(self, tmp_path, capsys):
        script = tmp_path / "job.sh"
        script.write_text(
            "#SBATCH --job-name=cli-test\n"
            "#PHASE name=train workload=ml-training nodes=4 work=1e16 gpu\n")
        assert main(["submit", str(script)]) == 0
        out = capsys.readouterr().out
        assert "cli-test" in out

    def test_experiments_lists_all(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for exp_id, _, bench in experiments():
            assert exp_id in out
            assert bench in out

    def test_unknown_system_exits(self):
        with pytest.raises(SystemExit):
            main(["schedule", "--system", "summit"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestClipGradNorm:
    def test_large_gradients_scaled_to_max(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        norm = clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_small_gradients_untouched(self):
        p = Parameter(np.zeros(3))
        p.grad = np.array([0.1, 0.0, 0.0])
        clip_grad_norm([p], max_norm=1.0)
        np.testing.assert_array_equal(p.grad, [0.1, 0.0, 0.0])

    def test_global_norm_across_params(self):
        a = Parameter(np.zeros(1))
        b = Parameter(np.zeros(1))
        a.grad = np.array([3.0])
        b.grad = np.array([4.0])
        norm = clip_grad_norm([a, b], max_norm=2.5)
        assert norm == pytest.approx(5.0)
        total = np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2)
        assert total == pytest.approx(2.5)

    def test_none_grads_skipped(self):
        a = Parameter(np.zeros(1))
        b = Parameter(np.zeros(1))
        b.grad = np.array([1.0])
        assert clip_grad_norm([a, b], max_norm=10.0) == pytest.approx(1.0)

    def test_invalid_max_norm(self):
        with pytest.raises(ValueError):
            clip_grad_norm([], max_norm=0.0)


class TestCosineDecay:
    def _opt(self):
        return SGD([Parameter(np.zeros(1))], lr=1.0)

    def test_warmup_then_decay_to_final(self):
        opt = self._opt()
        sched = CosineDecaySchedule(opt, peak_lr=1.0, total_steps=100,
                                    warmup_steps=10, final_lr=0.1)
        lrs = [sched.step() for _ in range(100)]
        assert lrs[7] < lrs[8]                       # still warming up
        assert max(lrs) == pytest.approx(1.0, abs=1e-6)
        assert lrs[-1] == pytest.approx(0.1, abs=1e-6)

    def test_monotone_decay_after_peak(self):
        opt = self._opt()
        sched = CosineDecaySchedule(opt, peak_lr=1.0, total_steps=50,
                                    warmup_steps=5)
        lrs = [sched.step() for _ in range(50)]
        post_peak = lrs[5:]
        assert all(a >= b - 1e-12 for a, b in zip(post_peak, post_peak[1:]))

    def test_half_way_is_half_amplitude(self):
        opt = self._opt()
        sched = CosineDecaySchedule(opt, peak_lr=2.0, total_steps=100,
                                    warmup_steps=0, final_lr=0.0)
        for _ in range(50):
            sched.step()
        assert opt.lr == pytest.approx(1.0, rel=0.05)

    def test_lr_floor_after_total_steps(self):
        opt = self._opt()
        sched = CosineDecaySchedule(opt, peak_lr=1.0, total_steps=10,
                                    final_lr=0.25)
        for _ in range(30):
            sched.step()
        assert opt.lr == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            CosineDecaySchedule(self._opt(), peak_lr=0.0, total_steps=10)
        with pytest.raises(ValueError):
            CosineDecaySchedule(self._opt(), peak_lr=1.0, total_steps=0)
        with pytest.raises(ValueError):
            CosineDecaySchedule(self._opt(), peak_lr=1.0, total_steps=5,
                                warmup_steps=9)
