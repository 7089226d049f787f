"""Shared fixtures for the suite.

Centralises the setup that used to be duplicated across test modules:
the small DEEP-shaped system (``test_core_scheduler``), the InfiniBand
HDR fabric model (``test_mpi_gce`` / ``test_mpi_simclock``), the job
factories, and — for the resilience suite — seeded fault-plan factories,
so property tests over hundreds of seeds share one construction path.
"""

import numpy as np
import pytest

from repro.core import Job, JobPhase, WorkloadClass, small_msa_system
from repro.resilience import DATA_FAULTS, FaultPlan
from repro.simnet import CommCostModel, LinkKind


@pytest.fixture
def seeded_rng():
    """A deterministically seeded generator; never seed inline in a test."""
    return np.random.default_rng(0)


@pytest.fixture
def hdr_fabric():
    """The booster's InfiniBand HDR fabric cost model."""
    return CommCostModel.of_kind(LinkKind.INFINIBAND_HDR)


@pytest.fixture
def make_small_system():
    """Factory for fresh small MSA systems (tests needing several)."""
    return small_msa_system


@pytest.fixture
def small_system():
    """One small DEEP-shaped system: cm×8, esb×8, dam×2 + storage."""
    return small_msa_system()


@pytest.fixture
def gpu_job():
    """Factory for a single-phase GPU training job (lands on the ESB)."""
    def make(name="train", arrival=0.0, nodes=8):
        return Job(name=name, arrival_time=arrival, phases=[JobPhase(
            name="train", workload=WorkloadClass.ML_TRAINING,
            work_flops=1e17, nodes=nodes, parallel_fraction=0.99,
            uses_gpu=True, uses_tensor_cores=True)])
    return make


@pytest.fixture
def cpu_job():
    """Factory for a single-phase CPU simulation job (lands on the CM)."""
    def make(name="solve", arrival=0.0, nodes=2):
        return Job(name=name, arrival_time=arrival, phases=[JobPhase(
            name="solve", workload=WorkloadClass.SIMULATION_LOWSCALE,
            work_flops=1e14, nodes=nodes, parallel_fraction=0.9)])
    return make


@pytest.fixture
def make_fault_plan():
    """Factory for seeded random fault plans over the small system's shape.

    ``make_fault_plan(seed, n_crashes=2, ...)`` — all randomness resolves
    at construction, so the same arguments always replay the same faults.
    """
    def make(seed, targets=None, **kwargs):
        targets = targets or {"cm": 8, "esb": 8, "dam": 2}
        return FaultPlan.random(seed=seed, targets=targets, **kwargs)
    return make


@pytest.fixture
def data_fault_plan():
    """One spec of every ``DATA_FAULTS`` kind: faults the trainer, the
    transports and the checkpoint store consume — no simulator clock fires
    them, so every event-loop plane must accept them untouched."""
    plan = FaultPlan.rank_kills(0, {3: [1]}).merged(
        FaultPlan.silent_corruption(0, message_p=0.01, gradient={2: [0]},
                                    checkpoint_rot=[(2, "nam")])
    ).merged(FaultPlan.parse("seed=0,drop=0.05"))
    assert {spec.kind for spec in plan} == DATA_FAULTS
    return plan
