"""Residual networks (He et al. [17]) for land-cover classification.

The paper trains a RESNET-50-class CNN "tuned for our multi-class land
cover image classification problem" on BigEarthNet (Sec. III-A).  We
provide:

* :class:`ResNet` — the laptop-scale residual CNN over multispectral
  NCHW patches that the functional experiments train end-to-end (same
  architecture family, fewer/narrower stages: ``BLOCKS_PER_STAGE``);
* :func:`resnet_small` — its constructor with the land-cover defaults;
* :func:`resnet50_config` — the full ResNet-50 shape (used by the
  performance model to count parameters and FLOPs at paper scale; training
  it numerically on a laptop is intentionally out of scope).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.ml.layers import (
    BatchNorm,
    Conv2D,
    Dense,
    GlobalAvgPool2D,
    Module,
)
from repro.ml.tensor import Tensor


class ResidualBlock(Module):
    """Two 3×3 convs with identity (or 1×1-projected) skip connection."""

    def __init__(self, in_channels: int, out_channels: int, stride: int = 1,
                 *, rng: np.random.Generator) -> None:
        super().__init__()
        self.conv1 = Conv2D(in_channels, out_channels, 3, stride=stride,
                            padding=1, rng=rng)
        self.bn1 = BatchNorm(out_channels)
        self.conv2 = Conv2D(out_channels, out_channels, 3, stride=1,
                            padding=1, rng=rng)
        self.bn2 = BatchNorm(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.proj: Optional[Conv2D] = Conv2D(
                in_channels, out_channels, 1, stride=stride, rng=rng)
            self.proj_bn: Optional[BatchNorm] = BatchNorm(out_channels)
        else:
            self.proj = None
            self.proj_bn = None

    def forward(self, x: Tensor) -> Tensor:
        out = self.bn1(self.conv1(x)).relu()
        out = self.bn2(self.conv2(out))
        skip = x if self.proj is None else self.proj_bn(self.proj(x))
        return (out + skip).relu()


class ResNet(Module):
    """A residual CNN: stem → residual stages → GAP → classifier head."""

    #: Residual blocks per stage, and the stem's channels.
    BLOCKS_PER_STAGE, BASE_WIDTH = (1, 1), 8

    def __init__(self, in_channels: int, n_classes: int,
                 seed: int = 0) -> None:
        super().__init__()
        base_width = self.BASE_WIDTH
        rng = np.random.default_rng(seed)
        self.stem = Conv2D(in_channels, base_width, 3, stride=1, padding=1,
                           rng=rng)
        self.stem_bn = BatchNorm(base_width)
        stages: list[Module] = []
        channels = base_width
        for stage_idx, n_blocks in enumerate(self.BLOCKS_PER_STAGE):
            out_channels = base_width * (2 ** stage_idx)
            for block_idx in range(n_blocks):
                stride = 2 if (stage_idx > 0 and block_idx == 0) else 1
                stages.append(ResidualBlock(channels, out_channels,
                                            stride=stride, rng=rng))
                channels = out_channels
        self.stages = stages
        self.pool = GlobalAvgPool2D()
        self.head = Dense(channels, n_classes, rng=rng)
        self.n_classes = n_classes

    def forward(self, x: Tensor) -> Tensor:
        out = self.stem_bn(self.stem(x)).relu()
        for block in self.stages:
            out = block(out)
        return self.head(self.pool(out))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class predictions for a raw array batch (eval mode)."""
        return super().predict(x).argmax(axis=1)


def resnet_small(in_channels: int = 12, n_classes: int = 10,
                 seed: int = 0) -> ResNet:
    """The laptop-scale land-cover classifier used in functional runs."""
    return ResNet(in_channels, n_classes, seed=seed)


@dataclass(frozen=True)
class ResNetShape:
    """Analytic shape of a (bottleneck) ResNet for the performance model."""

    name: str
    n_parameters: int
    flops_per_sample: float     # forward pass, multiply-accumulate counted as 2


def resnet50_config() -> ResNetShape:
    """Parameter/FLOP counts of ResNet-50 on BigEarthNet-sized patches.

    Follows the standard bottleneck accounting (He et al. Table 1): ~25.6 M
    parameters and ~4.1 GFLOPs at 224², rescaled to the input geometry used
    here (BigEarthNet patches are 120×120, 12 bands → 43 classes).  The
    distributed-training performance model (E3) uses these counts; training
    the full net numerically is out of scope for a CPU laptop.
    """
    in_channels, n_classes, image_hw = 12, 43, 120
    base_params = 25.6e6
    # Stem + head adjustments for channel/class count differences.
    stem_delta = (in_channels - 3) * 64 * 7 * 7
    head_delta = (n_classes - 1000) * 2048
    params = int(base_params + stem_delta + head_delta)
    flops_224 = 4.1e9 * 2  # MACs -> FLOPs
    scale = (image_hw / 224.0) ** 2
    return ResNetShape(
        name=f"ResNet-50({in_channels}ch,{n_classes}cls,{image_hw}px)",
        n_parameters=params,
        flops_per_sample=flops_224 * scale,
    )
