"""Container interoperability: Docker in clouds, Singularity on JUWELS.

Sec. III-B: "Singularity on JUWELS can work with Docker files available on
the DockerHub" — the conversion path that makes the same DL software stack
runnable on the MSA and in commercial clouds.  The model captures images
(layers, env, GPU hooks), format conversion, and runtime
policy (HPC runtimes refuse privileged containers; GPU access requires the
image's CUDA stack to be compatible with the node's driver).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


class ContainerError(RuntimeError):
    """Raised for invalid container operations."""


@dataclass(frozen=True)
class ContainerImage:
    """An immutable container image."""

    name: str
    tag: str
    format: str                      # "docker" | "singularity"
    layers: tuple[str, ...]
    env: tuple[tuple[str, str], ...] = ()
    entrypoint: str = "/bin/sh"
    needs_gpu: bool = False
    cuda_version: Optional[str] = None
    privileged: bool = False

    def __post_init__(self) -> None:
        if self.format not in ("docker", "singularity"):
            raise ContainerError(f"unknown image format {self.format!r}")
        if not self.layers:
            raise ContainerError("an image needs at least one layer")
        if self.needs_gpu and self.cuda_version is None:
            raise ContainerError("GPU images must declare a CUDA version")

    @property
    def ref(self) -> str:
        return f"{self.name}:{self.tag}"

    def digest(self) -> str:
        """Content digest over layers+env (stable across format conversion)."""
        import hashlib

        h = hashlib.sha256()
        for layer in self.layers:
            h.update(layer.encode())
        for k, v in sorted(self.env):
            h.update(f"{k}={v}".encode())
        h.update(self.entrypoint.encode())
        return h.hexdigest()[:16]


def singularity_from_docker(image: ContainerImage) -> ContainerImage:
    """Convert a Docker image to Singularity (the JUWELS ingestion path).

    Layers, env and entrypoint are preserved; privilege is dropped —
    Singularity runs unprivileged on HPC by design.
    """
    if image.format != "docker":
        raise ContainerError("source image must be docker format")
    return replace(image, format="singularity", privileged=False)


@dataclass
class ContainerRuntime:
    """A runtime installed on a system (Docker in clouds, Singularity on MSA)."""

    name: str
    format: str                          # accepted image format
    allows_privileged: bool
    gpu_available: bool = False
    driver_cuda_version: Optional[str] = None

    def can_run(self, image: ContainerImage) -> tuple[bool, str]:
        """Compatibility check; returns (ok, reason)."""
        if image.format != self.format:
            return False, (f"{self.name} runs {self.format} images, "
                           f"got {image.format}")
        if image.privileged and not self.allows_privileged:
            return False, f"{self.name} refuses privileged containers"
        if image.needs_gpu:
            if not self.gpu_available:
                return False, "no GPU on this runtime"
            if self.driver_cuda_version is None:
                return False, "no CUDA driver installed"
            # CUDA minor-version compatibility: driver >= image requirement.
            drv = tuple(int(x) for x in self.driver_cuda_version.split("."))
            img = tuple(int(x) for x in image.cuda_version.split("."))
            if drv < img:
                return False, (f"driver CUDA {self.driver_cuda_version} < "
                               f"image CUDA {image.cuda_version}")
        return True, "ok"

    def run(self, image: ContainerImage) -> str:
        ok, reason = self.can_run(image)
        if not ok:
            raise ContainerError(reason)
        return f"{self.name}:{image.ref}:{image.digest()}"


def juwels_singularity(driver_cuda: str = "11.2") -> ContainerRuntime:
    """The JUWELS container runtime (Singularity, unprivileged, A100s)."""
    return ContainerRuntime(
        name="juwels-singularity", format="singularity",
        allows_privileged=False, gpu_available=True,
        driver_cuda_version=driver_cuda,
    )


def cloud_docker(driver_cuda: str = "11.0") -> ContainerRuntime:
    """A cloud VM's Docker runtime (privileged allowed, V100-class GPUs)."""
    return ContainerRuntime(
        name="cloud-docker", format="docker",
        allows_privileged=True, gpu_available=True,
        driver_cuda_version=driver_cuda,
    )
