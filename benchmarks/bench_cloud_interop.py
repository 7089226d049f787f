"""E11 — Sec. III-B / IV: cloud interoperability and economics.

Regenerates the interoperability lessons as checkable flows:

* Docker↔Singularity conversion preserves content and runs on both sides,
* a Jupyter kernel defined on JUWELS modules migrates to a cloud container,
* the cost table: the paper's 128-GPU RESNET-50 campaign on p3.16xlarge
  ($24/h) vs an HPC grant; free tiers cannot even run the study.
"""

import pytest

from repro.workflows import (
    AWS_P3_16XLARGE,
    CloudCostModel,
    ContainerImage,
    JupyterKernelSpec,
    singularity_from_docker,
)
from repro.workflows.cloud import CampaignSpec, FREE_TIER_COLAB
from repro.workflows.containers import cloud_docker, juwels_singularity
from repro.workflows.jupyter import jsc_module_environment

from conftest import emit_table


def test_container_interoperability_roundtrip():
    """TensorFlow image: DockerHub -> cloud Docker AND JUWELS Singularity."""
    def flow():
        docker_image = ContainerImage(
            name="tensorflow/tensorflow", tag="2.5.0-gpu", format="docker",
            layers=("ubuntu:20.04", "pip:tensorflow==2.5.0",
                    "pip:horovod==0.24.2"),
            needs_gpu=True, cuda_version="11.0",
        )
        cloud_token = cloud_docker(driver_cuda="11.0").run(docker_image)
        sing = singularity_from_docker(docker_image)
        hpc_token = juwels_singularity(driver_cuda="11.2").run(sing)
        return docker_image, sing, cloud_token, hpc_token

    docker_image, sing, cloud_token, hpc_token = flow()
    rows = [
        ["cloud (Docker)", cloud_token.split(":")[0], docker_image.digest()],
        ["JUWELS (Singularity)", hpc_token.split(":")[0], sing.digest()],
    ]
    emit_table("E11 — one DL stack, two runtimes",
               ["side", "runtime", "content digest"], rows)
    assert docker_image.digest() == sing.digest()   # same software stack


def test_jupyter_kernel_migration():
    """Sec. III-B: 'Jupyter notebooks can also be easily migrated into
    Clouds' — via the kernel-spec -> container path."""
    def flow():
        kernel = JupyterKernelSpec(
            name="rs-dl",
            modules=(("Python", "3.9.6"), ("TensorFlow", "2.5.0"),
                     ("Horovod", None), ("CUDA", "11.0")),
            python_packages=("dask", "scikit-learn"),
        )
        resolved = kernel.resolve(jsc_module_environment())
        image = kernel.to_container()
        ok, reason = cloud_docker(driver_cuda="11.0").can_run(image)
        return resolved, image, ok, reason

    resolved, image, ok, reason = flow()
    rows = [[m, v] for m, v in sorted(resolved.items())]
    emit_table("E11 — kernel resolved against the JUWELS module stack",
               ["module", "version"], rows)
    assert ok, reason
    assert image.needs_gpu


def test_cloud_cost_table():
    """'AWS EC2 24 USD per hour rate for V100 ... we need to use still the
    cost-free HPC computational time grants to be feasible'."""
    model = CloudCostModel(instance=AWS_P3_16XLARGE)

    def sweep():
        rows = []
        for n_gpus, hours, runs in ((8, 10, 1), (96, 10, 3), (128, 10, 5)):
            campaign = CampaignSpec(n_gpus=n_gpus, hours_per_run=hours,
                                    n_runs=runs)
            rows.append([
                f"{n_gpus} GPUs x {hours} h x {runs}",
                f"{campaign.gpu_hours:,.0f}",
                f"${model.cloud_cost_usd(campaign):,.0f}",
                f"${model.grant_cost_usd(campaign, 100_000):,.0f}",
            ])
        return rows

    rows = sweep()
    emit_table("E11 — campaign pricing: p3.16xlarge vs HPC grant",
               ["campaign", "GPU-hours", "cloud", "grant"], rows)
    assert float(rows[-1][2].replace("$", "").replace(",", "")) > 10_000
    assert all(r[3] == "$0" for r in rows)


def test_free_tier_infeasibility():
    """'the missing possibility to interconnect GPUs for large-scale
    distributed training' on free tiers."""
    model = CloudCostModel(instance=FREE_TIER_COLAB)

    def attempt():
        feasible = model.speedup_study_feasible(max_gpus=96)
        try:
            model.cloud_cost_usd(CampaignSpec(n_gpus=96, hours_per_run=1))
            raised = False
        except ValueError:
            raised = True
        return feasible, raised

    feasible, raised = attempt()
    assert not feasible and raised
