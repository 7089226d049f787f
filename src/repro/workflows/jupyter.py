"""Jupyter kernels over HPC module environments.

The paper (Secs. III-B, IV-A): "Using the MSA-based systems ... seamlessly
with Jupyter requires the definition of an own Kernel using the module
environment of the MSA HPC systems" — how medical experts use JUWELS
without seeing job scripts.  The model: module environments (the
``module load`` tree), kernel specs resolved against them, and
kernel→cloud migration (a kernel spec exports to a container).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.workflows.containers import ContainerImage


class KernelError(RuntimeError):
    """Raised when a kernel spec cannot be satisfied."""


@dataclass
class ModuleEnvironment:
    """An HPC 'module' tree: name → available versions."""

    system: str
    available: dict[str, list[str]] = field(default_factory=dict)

    def provide(self, name: str, versions: list[str]) -> "ModuleEnvironment":
        self.available[name] = sorted(versions)
        return self

    def resolve(self, name: str, constraint: Optional[str] = None) -> str:
        """Pick a version: exact match, or the newest if unconstrained."""
        versions = self.available.get(name)
        if not versions:
            raise KernelError(f"{self.system}: module {name!r} not installed")
        if constraint is None:
            return versions[-1]
        if constraint in versions:
            return constraint
        raise KernelError(
            f"{self.system}: {name} {constraint} unavailable "
            f"(have {versions})"
        )


@dataclass(frozen=True)
class JupyterKernelSpec:
    """A user-defined kernel: required modules + python packages."""

    name: str
    modules: tuple[tuple[str, Optional[str]], ...]   # (module, version|None)
    python_packages: tuple[str, ...]

    def resolve(self, env: ModuleEnvironment) -> dict[str, str]:
        """Resolve every requirement; the version-matching pain the paper
        reports ('quite challenging to have the right versions')."""
        return {
            name: env.resolve(name, constraint)
            for name, constraint in self.modules
        }

    def to_container(self) -> ContainerImage:
        """Export as a Docker image — the kernel→cloud migration path."""
        layers = ["ubuntu:20.04"]
        layers += [f"module:{name}" + (f"=={v}" if v else "")
                   for name, v in self.modules]
        layers += [f"pip:{pkg}" for pkg in self.python_packages]
        needs_gpu = any(name.lower() in ("cuda", "cudnn", "nvidia")
                        for name, _ in self.modules)
        return ContainerImage(
            name=f"kernel-{self.name}", tag="latest", format="docker",
            layers=tuple(layers),
            env=(("JUPYTER_KERNEL", self.name),),
            entrypoint="ipykernel",
            needs_gpu=needs_gpu,
        )


def jsc_module_environment() -> ModuleEnvironment:
    """A JUWELS-like software stack (the versions-matching exercise)."""
    env = ModuleEnvironment(system="JUWELS")
    env.provide("Python", ["3.8.5", "3.9.6"])
    env.provide("TensorFlow", ["2.3.1", "2.5.0"])
    env.provide("PyTorch", ["1.8.1", "1.10.0"])
    env.provide("Horovod", ["0.20.3", "0.24.2"])
    env.provide("CUDA", ["11.0", "11.2"])
    env.provide("cuDNN", ["8.0.5", "8.2.1"])
    env.provide("OpenMPI", ["4.1.0"])
    env.provide("Dask", ["2021.3.0"])
    return env
