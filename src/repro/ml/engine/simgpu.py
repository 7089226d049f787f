"""The simulated-GPU backend: NumPy execution, accelerator accounting.

Executes fused kernels through the same NumPy executor as the CPU device
(bit-identical results — the point of the engine), but charges simulated
time per **fused kernel** on the V100/A100 roofline derived from
:class:`repro.distributed.perfmodel.KernelCostModel`: a fixed launch
overhead plus ``max(flops/sustained_flops, bytes/sustained_bandwidth)``.

Because launch overhead is charged once per kernel rather than once per
primitive op, the device's clock directly exhibits the paper-relevant
effect fusion models: small-batch step time on the JUWELS Booster is
dominated by dispatch and HBM traffic, not FLOPs (Kesselheim et al.,
arXiv:2108.11976; Sridharan et al., arXiv:1801.08030).
``unfused_time_s`` exposes the op-per-kernel counterfactual so benches
can report the modeled fusion speedup.
"""

from __future__ import annotations


from repro.ml.engine.cpu import Device

_GPU_NAMES = ("A100", "V100")


class SimGpuDevice(Device):
    """NumPy-backed device billed on a GPU kernel cost model."""

    def __init__(self, gpu: str = "A100") -> None:
        super().__init__()
        from repro.core.hardware import NVIDIA_A100, NVIDIA_V100
        from repro.distributed.perfmodel import KernelCostModel
        if gpu not in _GPU_NAMES:
            raise ValueError(f"unknown GPU {gpu!r} (have {_GPU_NAMES})")
        self.cost_model = KernelCostModel(
            NVIDIA_A100 if gpu == "A100" else NVIDIA_V100)
        self.name = f"sim-gpu:{gpu.lower()}"

    def kernel_time_s(self, flops: float, bytes_moved: int,
                      n_ops: int) -> float:
        return self.cost_model.kernel_time(flops, bytes_moved)
