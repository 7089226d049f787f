"""Gradient compression for distributed training.

Horovod ships an fp16 compressor that halves allreduce traffic; the tuned
128-GPU runs of the paper's follow-up [20] rely on reduced-precision
communication.  Compressors transform the fused gradient buffer before the
collective and invert afterwards; the simulated clock automatically charges
the smaller wire size because the payload really is float16.
"""

from __future__ import annotations

import numpy as np


class NoCompression:
    """Identity compressor."""

    name = "none"

    def compress(self, buf: np.ndarray) -> np.ndarray:
        return buf

    def decompress(self, buf: np.ndarray) -> np.ndarray:
        return buf

    def wire_bytes(self, buf: np.ndarray) -> int:
        return int(buf.nbytes)


class Fp16Compression:
    """Cast to float16 on the wire, restore the dtype of the buffer last
    compressed after the collective.

    Loses precision beyond ~3 decimal digits — acceptable for gradient
    averaging (and exactly what Horovod's fp16 compressor does).
    """

    name = "fp16"

    def compress(self, buf: np.ndarray) -> np.ndarray:
        self.dtype = buf.dtype
        return buf.astype(np.float16)

    def decompress(self, buf: np.ndarray) -> np.ndarray:
        return buf.astype(self.dtype)

    def wire_bytes(self, buf: np.ndarray) -> int:
        return int(buf.size * 2)
