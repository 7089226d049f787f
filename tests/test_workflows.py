"""Interoperability workflows: containers, Jupyter kernels, cloud."""

from dataclasses import replace

import pytest

from repro.workflows import (
    AWS_P3_16XLARGE,
    CloudCostModel,
    ContainerImage,
    JupyterKernelSpec,
    ModuleEnvironment,
    singularity_from_docker,
)
from repro.workflows.cloud import CampaignSpec, FREE_TIER_COLAB
from repro.workflows.containers import (
    ContainerError,
    cloud_docker,
    juwels_singularity,
)
from repro.workflows.jupyter import KernelError, jsc_module_environment


def tf_image():
    return ContainerImage(
        name="tensorflow/tensorflow", tag="2.5.0-gpu", format="docker",
        layers=("ubuntu:20.04", "pip:tensorflow==2.5.0"),
        env=(("TF_VERSION", "2.5.0"),),
        needs_gpu=True,
    )


class TestContainers:
    def test_docker_to_singularity_preserves_content(self):
        docker = tf_image()
        sing = singularity_from_docker(docker)
        assert sing.format == "singularity"
        assert sing.layers == docker.layers
        assert sing.digest() == docker.digest()

    def test_conversion_requires_docker_source(self):
        sing = singularity_from_docker(tf_image())
        with pytest.raises(ContainerError):
            singularity_from_docker(sing)

    def test_image_validation(self):
        with pytest.raises(ContainerError):
            ContainerImage("x", "1", "rkt", layers=("a",))
        with pytest.raises(ContainerError):
            ContainerImage("x", "1", "docker", layers=())

    def test_juwels_runs_converted_gpu_image(self):
        runtime = juwels_singularity()
        sing = singularity_from_docker(tf_image())
        token = runtime.run(sing)
        assert "juwels-singularity" in token

    def test_juwels_refuses_docker_format(self):
        ok, reason = juwels_singularity().can_run(tf_image())
        assert not ok and "singularity" in reason

    def test_cuda_driver_compatibility(self):
        old_driver = replace(juwels_singularity(), driver_cuda_version="10.2")
        sing = singularity_from_docker(tf_image())
        ok, reason = old_driver.can_run(sing)
        assert not ok and "CUDA" in reason

    def test_cloud_runs_docker_directly(self):
        assert cloud_docker().can_run(tf_image())[0]


class TestJupyter:
    def _kernel(self):
        return JupyterKernelSpec(
            name="dl-kernel",
            modules=(("Python", "3.9.6"), ("TensorFlow", None),
                     ("CUDA", "11.2")),
            python_packages=("pandas", "scikit-learn"),
        )

    def test_resolve_against_jsc_stack(self):
        resolved = self._kernel().resolve(jsc_module_environment())
        assert resolved["Python"] == "3.9.6"
        assert resolved["TensorFlow"] == "2.5.0"   # newest when unconstrained
        assert resolved["CUDA"] == "11.2"

    def test_version_mismatch_fails_loudly(self):
        kernel = JupyterKernelSpec(
            name="old", modules=(("TensorFlow", "1.15.0"),),
            python_packages=())
        with pytest.raises(KernelError):
            kernel.resolve(jsc_module_environment())

    def test_missing_module_fails(self):
        kernel = JupyterKernelSpec(name="x", modules=(("Caffe", None),),
                                   python_packages=())
        with pytest.raises(KernelError):
            kernel.resolve(jsc_module_environment())

    def test_kernel_to_container_migration(self):
        image = self._kernel().to_container()
        assert image.format == "docker"
        assert image.needs_gpu                       # CUDA module present
        assert any("pip:pandas" in layer for layer in image.layers)
        # The migrated kernel runs on a cloud docker runtime.
        assert cloud_docker().can_run(image)[0]


class TestCloudCosts:
    def test_paper_rate_encoded(self):
        assert AWS_P3_16XLARGE.usd_per_hour == 24.0
        assert AWS_P3_16XLARGE.gpus_per_instance == 8

    def test_128_gpu_campaign_cost(self):
        """The paper's scenario: 128 GPUs for many hours — unaffordable
        without grants."""
        model = CloudCostModel()
        campaign = CampaignSpec(n_gpus=128, hours_per_run=10, n_runs=5)
        cost = model.cloud_cost_usd(campaign)
        assert cost == pytest.approx(16 * 24.0 * 10 * 5)  # $19,200
        assert cost > 10_000

    def test_grant_is_free_within_allocation(self):
        model = CloudCostModel()
        campaign = CampaignSpec(n_gpus=128, hours_per_run=10, n_runs=5)
        assert model.grant_cost_usd(campaign, grant_gpu_hours=10_000) == 0.0

    def test_grant_exhaustion_raises(self):
        model = CloudCostModel()
        campaign = CampaignSpec(n_gpus=128, hours_per_run=100)
        with pytest.raises(ValueError):
            model.grant_cost_usd(campaign, grant_gpu_hours=100)

    def test_free_tier_cannot_do_scaling_studies(self):
        model = CloudCostModel(instance=FREE_TIER_COLAB)
        assert not model.speedup_study_feasible(max_gpus=8)
        with pytest.raises(ValueError):
            model.cloud_cost_usd(CampaignSpec(n_gpus=8, hours_per_run=1))

    def test_instance_packing(self):
        assert AWS_P3_16XLARGE.instances_for(128) == 16
        assert AWS_P3_16XLARGE.instances_for(9) == 2
        with pytest.raises(ValueError):
            AWS_P3_16XLARGE.instances_for(0)
