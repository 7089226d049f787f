"""COVID-Net-style chest-X-ray classifier (Wang et al. [25], Sec. IV-A).

COVID-Net is a tailored CNN detecting COVID-19 from CXR images with three
classes (normal / non-COVID pneumonia / COVID-19).  The original uses
lightweight PEPX (projection-expansion-projection-extension) blocks; we
implement that block family at a laptop-trainable scale — the experiments
need its class structure and its relative runtime across GPU generations,
not 480×480 resolution.
"""

from __future__ import annotations

import numpy as np

from repro.ml import functional as F
from repro.ml.layers import (
    BatchNorm,
    Conv2D,
    Dense,
    GlobalAvgPool2D,
    Module,
)
from repro.ml.tensor import Tensor


class PepxBlock(Module):
    """Projection → expansion → depthwise-ish 3×3 → projection → extension.

    The 'design pattern' of COVID-Net: squeeze channels with 1×1 convs
    around a cheap 3×3 to keep parameter counts low.
    """

    def __init__(self, in_channels: int, out_channels: int, *,
                 rng: np.random.Generator) -> None:
        super().__init__()
        mid = max(in_channels // 2, 4)
        self.proj1 = Conv2D(in_channels, mid, 1, rng=rng)
        self.expand = Conv2D(mid, mid * 2, 1, rng=rng)
        self.conv = Conv2D(mid * 2, mid * 2, 3, padding=1, rng=rng)
        self.proj2 = Conv2D(mid * 2, mid, 1, rng=rng)
        self.extend = Conv2D(mid, out_channels, 1, rng=rng)
        self.bn = BatchNorm(out_channels)

    def forward(self, x: Tensor) -> Tensor:
        out = self.proj1(x).relu()
        out = self.expand(out).relu()
        out = self.conv(out).relu()
        out = self.proj2(out).relu()
        return self.bn(self.extend(out)).relu()


class CovidNet(Module):
    """A COVID-Net-style classifier over (N, 1, H, W) radiographs."""

    #: Stem channels, and the PEPX blocks after it.
    BASE_WIDTH, N_BLOCKS = 8, 2

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        base_width = self.BASE_WIDTH
        self.stem = Conv2D(1, base_width, 5, stride=2, padding=2, rng=rng)
        self.stem_bn = BatchNorm(base_width)
        blocks: list[Module] = []
        channels = base_width
        for i in range(self.N_BLOCKS):
            out_channels = base_width * (2 ** min(i, 2))
            blocks.append(PepxBlock(channels, out_channels, rng=rng))
            channels = out_channels
        self.blocks = blocks
        self.pool = GlobalAvgPool2D()
        self.fc1 = Dense(channels, 32, rng=rng)
        self.fc2 = Dense(32, 3, rng=rng)   # normal, pneumonia, COVID-19

    def forward(self, x: Tensor) -> Tensor:
        out = self.stem_bn(self.stem(x)).relu()
        for i, block in enumerate(self.blocks):
            out = block(out)
            if i < len(self.blocks) - 1:
                out = F.max_pool2d(out)
        out = self.pool(out)
        out = self.fc1(out).relu()
        return self.fc2(out)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return super().predict(x).argmax(axis=1)
