"""Energy model: load-aware power draw and schedule-level accounting."""

import pytest

from repro.core import (
    DEEP_CM_NODE,
    DEEP_DAM_NODE,
    JUWELS_BOOSTER_NODE,
    EnergyAccountant,
    JobPhase,
    PowerModel,
    WorkloadClass,
)


def _phase(uses_gpu=False):
    return JobPhase(name="p", workload=WorkloadClass.ML_TRAINING,
                    work_flops=1e15, uses_gpu=uses_gpu)


class TestPowerModel:
    def test_idle_below_load(self):
        pm = PowerModel(DEEP_CM_NODE)
        assert pm.idle_watts < pm.load_watts(_phase())

    def test_gpu_phase_draws_more(self):
        pm = PowerModel(JUWELS_BOOSTER_NODE)
        assert pm.load_watts(_phase(uses_gpu=True)) > \
            pm.load_watts(_phase(uses_gpu=False)) + 1000

    def test_unused_gpu_leaks_10pct(self):
        pm = PowerModel(JUWELS_BOOSTER_NODE)
        gpu_tdp = sum(g.tdp_watts for g in JUWELS_BOOSTER_NODE.gpus)
        cpu_load = (PowerModel.idle_watts
                    + JUWELS_BOOSTER_NODE.cpu.tdp_watts * 2)
        assert pm.load_watts(_phase(uses_gpu=False)) == pytest.approx(
            cpu_load + 0.10 * gpu_tdp)

    def test_none_phase_is_idle(self):
        pm = PowerModel(DEEP_DAM_NODE)
        assert pm.load_watts(None) == pm.idle_watts

    def test_energy_scales_with_time(self):
        pm = PowerModel(DEEP_CM_NODE)
        assert pm.energy_joules(_phase(), 10.0) == \
            pytest.approx(10 * pm.load_watts(_phase()))

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            PowerModel(DEEP_CM_NODE).energy_joules(_phase(), -1.0)


class TestAccountant:
    def test_charges_accumulate_per_module(self):
        acc = EnergyAccountant()
        acc.charge_phase("cm", DEEP_CM_NODE, _phase(), n_nodes=4, seconds=100)
        acc.charge_phase("cm", DEEP_CM_NODE, _phase(), n_nodes=2, seconds=50)
        acc.charge_idle("cm", DEEP_CM_NODE, node_seconds=1000)
        assert acc.busy_joules > 0
        assert acc.idle_joules == pytest.approx(
            PowerModel.idle_watts * 1000)

    def test_busy_energy_proportional_to_nodes(self):
        acc = EnergyAccountant()
        j1 = acc.charge_phase("m", DEEP_CM_NODE, _phase(), 1, 60)
        j4 = acc.charge_phase("m", DEEP_CM_NODE, _phase(), 4, 60)
        assert j4 == pytest.approx(4 * j1)
