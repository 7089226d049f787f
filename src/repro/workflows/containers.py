"""Container interoperability: Docker in clouds, Singularity on JUWELS.

Sec. III-B: "Singularity on JUWELS can work with Docker files available on
the DockerHub" — the conversion path that makes the same DL software stack
runnable on the MSA and in commercial clouds.  The model captures images
(layers, env, GPU hooks), format conversion, and runtime policy (GPU
access requires the image's CUDA stack, :data:`IMAGE_CUDA`, to be
compatible with the node's driver).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

#: The CUDA version every image's DL stack is built against.
IMAGE_CUDA = "11.0"


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

    def __post_init__(self) -> None:
        if self.format not in ("docker", "singularity"):
            raise ContainerError(f"unknown image format {self.format!r}")
        if not self.layers:
            raise ContainerError("an image needs at least one layer")

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

    Layers, env and entrypoint are preserved.
    """
    if image.format != "docker":
        raise ContainerError("source image must be docker format")
    return replace(image, format="singularity")


@dataclass
class ContainerRuntime:
    """A runtime installed on a system (Docker in clouds, Singularity on MSA)."""

    name: str
    format: str                          # accepted image format
    gpu_available: bool = False
    driver_cuda_version: Optional[str] = None

    def can_run(self, image: ContainerImage) -> tuple[bool, str]:
        """Compatibility check; returns (ok, reason)."""
        if image.format != self.format:
            return False, (f"{self.name} runs {self.format} images, "
                           f"got {image.format}")
        if image.needs_gpu:
            if not self.gpu_available:
                return False, "no GPU on this runtime"
            if self.driver_cuda_version is None:
                return False, "no CUDA driver installed"
            # CUDA minor-version compatibility: driver >= image requirement.
            drv = tuple(int(x) for x in self.driver_cuda_version.split("."))
            img = tuple(int(x) for x in IMAGE_CUDA.split("."))
            if drv < img:
                return False, (f"driver CUDA {self.driver_cuda_version} < "
                               f"image CUDA {IMAGE_CUDA}")
        return True, "ok"

    def run(self, image: ContainerImage) -> str:
        ok, reason = self.can_run(image)
        if not ok:
            raise ContainerError(reason)
        return f"{self.name}:{image.ref}:{image.digest()}"


def juwels_singularity() -> ContainerRuntime:
    """The JUWELS container runtime (Singularity, A100s, CUDA 11.2)."""
    return ContainerRuntime(
        name="juwels-singularity", format="singularity",
        gpu_available=True, driver_cuda_version="11.2",
    )


def cloud_docker() -> ContainerRuntime:
    """A cloud VM's Docker runtime (V100-class GPUs, CUDA 11.0)."""
    return ContainerRuntime(
        name="cloud-docker", format="docker",
        gpu_available=True, driver_cuda_version="11.0",
    )
