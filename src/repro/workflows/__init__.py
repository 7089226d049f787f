"""Interoperability workflows: containers, Jupyter, cloud costs (E11).

The paper devotes Sec. III-B and IV to interoperability lessons: Docker
images converted to Singularity on JUWELS, Jupyter kernels defined against
HPC module environments so medical experts never see the MSA's complexity,
and why 128-GPU studies stay on HPC grants rather than $24/h cloud
instances.  These models capture the structure of those workflows with
checkable compatibility rules; E11 runs all three.

* :mod:`repro.workflows.containers` — images and Docker→Singularity,
* :mod:`repro.workflows.jupyter` — kernel specs over module environments,
* :mod:`repro.workflows.cloud` — cloud GPU pricing vs HPC grants.
"""

from repro.workflows.containers import (
    ContainerImage,
    ContainerRuntime,
    singularity_from_docker,
)
from repro.workflows.jupyter import JupyterKernelSpec, ModuleEnvironment
from repro.workflows.cloud import CloudInstanceType, CloudCostModel, AWS_P3_16XLARGE

__all__ = [
    "ContainerImage",
    "ContainerRuntime",
    "singularity_from_docker",
    "JupyterKernelSpec",
    "ModuleEnvironment",
    "CloudInstanceType",
    "CloudCostModel",
    "AWS_P3_16XLARGE",
]
