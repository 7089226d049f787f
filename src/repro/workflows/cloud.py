"""Cloud GPU economics vs HPC grants (Sec. III-B, E11).

The paper: "working with commercial clouds is still challenging when using
cutting-edge GPU types required for DL because of high costs (e.g., AWS EC2
24 USD per hour rate for V100, i.e., p3.16xlarge).  Our RESNET-50 studies
... using 128 GPUs for many hours, hence, we need to use still the
cost-free HPC computational time grants".

The model prices a distributed-training campaign on cloud instances and
contrasts it with an HPC grant allocation, including the paper's other
cloud lesson: free tiers assign *varying* GPU types and cannot interconnect
GPUs, making speed-up studies infeasible there.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.hardware import GpuSpec, NVIDIA_V100


@dataclass(frozen=True)
class CloudInstanceType:
    """A rentable GPU instance."""

    name: str
    gpus_per_instance: int
    gpu: GpuSpec
    usd_per_hour: float
    interconnected: bool = True       # can instances form one training job?

    def instances_for(self, n_gpus: int) -> int:
        if n_gpus < 1:
            raise ValueError("need at least one GPU")
        return -(-n_gpus // self.gpus_per_instance)


#: The paper's example: p3.16xlarge, 8× V100, $24/h.
AWS_P3_16XLARGE = CloudInstanceType(
    name="p3.16xlarge", gpus_per_instance=8, gpu=NVIDIA_V100,
    usd_per_hour=24.0,
)

#: Free-tier notebooks: one GPU of *varying* type, never interconnected.
FREE_TIER_COLAB = CloudInstanceType(
    name="colab-free", gpus_per_instance=1, gpu=NVIDIA_V100,
    usd_per_hour=0.0, interconnected=False,
)


@dataclass(frozen=True)
class CampaignSpec:
    """A training campaign: so many GPUs for so many hours, so many runs."""

    n_gpus: int
    hours_per_run: float
    n_runs: int = 1

    @property
    def gpu_hours(self) -> float:
        return self.n_gpus * self.hours_per_run * self.n_runs


@dataclass
class CloudCostModel:
    """Price a campaign on cloud instances or against an HPC grant."""

    instance: CloudInstanceType = AWS_P3_16XLARGE

    def cloud_cost_usd(self, campaign: CampaignSpec) -> float:
        if campaign.n_gpus > self.instance.gpus_per_instance and \
                not self.instance.interconnected:
            raise ValueError(
                f"{self.instance.name} cannot interconnect GPUs across "
                "instances — multi-GPU scaling studies are infeasible there"
            )
        n_inst = self.instance.instances_for(campaign.n_gpus)
        return n_inst * self.instance.usd_per_hour \
            * campaign.hours_per_run * campaign.n_runs

    def grant_cost_usd(self, campaign: CampaignSpec,
                       grant_gpu_hours: float) -> float:
        """An HPC grant is free up to its allocation; beyond it, no capacity."""
        if campaign.gpu_hours > grant_gpu_hours:
            raise ValueError(
                f"campaign needs {campaign.gpu_hours:.0f} GPUh, grant has "
                f"{grant_gpu_hours:.0f}"
            )
        return 0.0

    def speedup_study_feasible(self, max_gpus: int) -> bool:
        """Free tiers fail this: no interconnect and varying GPU types."""
        return self.instance.interconnected or max_gpus <= \
            self.instance.gpus_per_instance
