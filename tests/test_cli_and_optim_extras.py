"""The CLI front end."""

import pytest

from repro.cli import build_parser, experiments, main


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
