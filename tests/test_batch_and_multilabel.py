"""Batch job scripts: ``#SBATCH``/``#PHASE`` text compiles to a schedulable
job (``repro submit``)."""

import pytest

from repro.core import deep_system, schedule_workload
from repro.core.batch import BatchScriptError, parse_job_script
from repro.core.jobs import WorkloadClass

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
