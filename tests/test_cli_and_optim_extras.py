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


def _exit_code(argv):
    """What the process would exit with: argparse usage errors raise
    SystemExit, command errors return a status."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


#: Bad input per command, each once a traceback with exit 1.
BAD_INPUT = {
    "schedule-no-jobs": ["schedule", "--jobs", "0"],
    "schedule-negative-interarrival": ["schedule", "--interarrival", "-1"],
    "scaling-no-gpus": ["scaling", "--gpus", "0"],
    "serve-zero-rate": ["serve", "--rate", "0"],
    "serve-zero-duration": ["serve", "--duration", "0"],
    "serve-no-replicas": ["serve", "--replicas", "0"],
    "trace-negative-seed": ["trace", "train", "--seed", "-1"],
    "submit-unknown-phase-option": ["submit", "{dir}/unknown.sh"],
    "submit-no-phases": ["submit", "{dir}/empty.sh"],
    "submit-bad-number": ["submit", "{dir}/badnum.sh"],
    "submit-missing-file": ["submit", "{dir}/missing.sh"],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_is_an_error_line_and_exit_2(case, tmp_path, capsys):
    (tmp_path / "unknown.sh").write_text(
        "#SBATCH --job-name=x\n"
        "#PHASE name=a workload=ml-training work=1e15 colour=blue\n")
    (tmp_path / "empty.sh").write_text("#SBATCH --job-name=x\n")
    (tmp_path / "badnum.sh").write_text(
        "#SBATCH --begin=soon\n#PHASE workload=ml-training work=1e15\n")
    argv = [a.format(dir=tmp_path) for a in BAD_INPUT[case]]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
