"""The workload runtime model behind Fig. 2's placement argument."""

import numpy as np
import pytest

from repro.core import (
    ClusterModule,
    BoosterModule,
    DataAnalyticsModule,
    DEEP_CM_NODE,
    DEEP_DAM_NODE,
    DEEP_ESB_NODE,
    Job,
    JobPhase,
    WorkloadClass,
    synthetic_workload_mix,
)
from repro.core.jobs import (
    FS_SPILL_PENALTY,
    NVM_SPILL_PENALTY,
    memory_penalty,
    node_throughput,
    phase_runtime,
)

CM = ClusterModule("cm", DEEP_CM_NODE, 16)
ESB = BoosterModule("esb", DEEP_ESB_NODE, 16)
DAM = DataAnalyticsModule("dam", DEEP_DAM_NODE, 16)


def _phase(**kw):
    defaults = dict(name="p", workload=WorkloadClass.SIMULATION_HIGHSCALE,
                    work_flops=1e15, nodes=4)
    defaults.update(kw)
    return JobPhase(**defaults)


class TestValidation:
    def test_negative_work_rejected(self):
        with pytest.raises(ValueError):
            _phase(work_flops=-1)

    def test_bad_parallel_fraction(self):
        with pytest.raises(ValueError):
            _phase(parallel_fraction=1.5)

    def test_bad_efficiency(self):
        with pytest.raises(ValueError):
            _phase(efficiency=0.0)

    def test_job_needs_phases(self):
        with pytest.raises(ValueError):
            Job(name="j", phases=[])


class TestThroughputMatching:
    def test_gpu_phase_prefers_gpu_module(self):
        phase = _phase(uses_gpu=True)
        assert node_throughput(phase, ESB) > 5 * node_throughput(phase, CM)

    def test_tensor_cores_boost_ml_training(self):
        plain = _phase(workload=WorkloadClass.ML_TRAINING, uses_gpu=True)
        tensor = _phase(workload=WorkloadClass.ML_TRAINING, uses_gpu=True,
                        uses_tensor_cores=True)
        assert node_throughput(tensor, ESB) > 5 * node_throughput(plain, ESB)

    def test_lowscale_prefers_fat_cores(self):
        phase = _phase(workload=WorkloadClass.SIMULATION_LOWSCALE)
        assert node_throughput(phase, CM) > 2 * node_throughput(phase, ESB)

    def test_gpu_phase_on_cpu_module_falls_back(self):
        phase = _phase(uses_gpu=True)
        assert node_throughput(phase, CM) == pytest.approx(
            DEEP_CM_NODE.cpu_peak_flops * phase.efficiency)


class TestMemoryPenalty:
    def test_fits_in_dram(self):
        assert memory_penalty(_phase(memory_GB_per_node=64), CM) == 1.0

    def test_spills_to_nvm_on_dam(self):
        phase = _phase(memory_GB_per_node=800)
        assert memory_penalty(phase, DAM) == NVM_SPILL_PENALTY

    def test_spills_to_fs_without_nvm(self):
        phase = _phase(memory_GB_per_node=800)
        assert memory_penalty(phase, CM) == FS_SPILL_PENALTY

    def test_dam_absorbs_analytics_working_sets(self):
        phase = _phase(workload=WorkloadClass.DATA_ANALYTICS,
                       memory_GB_per_node=400)
        assert memory_penalty(phase, DAM) == 1.0
        assert memory_penalty(phase, CM) == FS_SPILL_PENALTY


class TestPhaseRuntime:
    def test_more_nodes_faster_until_amdahl(self):
        phase = _phase(parallel_fraction=0.99)
        t1 = phase_runtime(phase, CM, 1)
        t8 = phase_runtime(phase, CM, 8)
        assert t8 < t1
        # Amdahl bound: speedup <= 1 / (1 - f)
        assert t1 / t8 <= 1.0 / (1.0 - 0.99) + 1e-9

    def test_serial_fraction_floors_runtime(self):
        phase = _phase(parallel_fraction=0.5)
        t_inf = phase_runtime(phase, CM, 16)
        t_1 = phase_runtime(phase, CM, 1)
        assert t_inf > t_1 * 0.5 * 0.9

    def test_io_adds_time(self):
        base = phase_runtime(_phase(), CM, 4)
        with_io = phase_runtime(_phase(io_bytes=1e12), CM, 4)
        assert with_io > base

    def test_comm_adds_time_on_multinode(self):
        base = phase_runtime(_phase(), CM, 4)
        comm = phase_runtime(_phase(comm_bytes_per_node=1e10), CM, 4)
        assert comm > base

    def test_single_node_has_no_comm_cost(self):
        a = phase_runtime(_phase(comm_bytes_per_node=1e12), CM, 1)
        b = phase_runtime(_phase(), CM, 1)
        assert a == pytest.approx(b)

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            phase_runtime(_phase(), CM, 0)

    def test_ml_training_fastest_on_booster(self):
        phase = _phase(workload=WorkloadClass.ML_TRAINING, uses_gpu=True,
                       uses_tensor_cores=True, parallel_fraction=0.998,
                       work_flops=1e18)
        assert phase_runtime(phase, ESB, 8) < phase_runtime(phase, CM, 8) / 10

    def test_analytics_fastest_on_dam(self):
        phase = _phase(workload=WorkloadClass.DATA_ANALYTICS,
                       memory_GB_per_node=400, work_flops=1e14)
        assert phase_runtime(phase, DAM, 4) < phase_runtime(phase, CM, 4)
        assert phase_runtime(phase, DAM, 4) < phase_runtime(phase, ESB, 4)


class TestWorkloadMix:
    def test_deterministic(self):
        a = synthetic_workload_mix(n_jobs=10, seed=5)
        b = synthetic_workload_mix(n_jobs=10, seed=5)
        assert [j.name for j in a] == [j.name for j in b]
        assert [j.arrival_time for j in a] == [j.arrival_time for j in b]

    def test_arrivals_monotone(self):
        jobs = synthetic_workload_mix(n_jobs=20, seed=1)
        times = [j.arrival_time for j in jobs]
        assert times == sorted(times)

    def test_contains_multiphase_pipelines(self):
        jobs = synthetic_workload_mix(n_jobs=40, seed=2)
        multi = [j for j in jobs if len(j.phases) > 1]
        assert multi, "mix should include intertwined HPC+HPDA pipelines"
        pipeline = multi[0]
        kinds = [p.workload for p in pipeline.phases]
        assert WorkloadClass.ML_TRAINING in kinds

    def test_covers_fig2_classes(self):
        jobs = synthetic_workload_mix(n_jobs=60, seed=3)
        kinds = {p.workload for j in jobs for p in j.phases}
        assert WorkloadClass.SIMULATION_LOWSCALE in kinds
        assert WorkloadClass.SIMULATION_HIGHSCALE in kinds
        assert WorkloadClass.DATA_ANALYTICS in kinds

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            synthetic_workload_mix(n_jobs=0)
