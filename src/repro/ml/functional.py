"""Neural-network functional ops: convolutions, pooling, softmax, dropout.

Convolutions lower to im2col + matmul (the standard CPU strategy and how
the tensor-core path consumes them on the paper's GPUs); backward passes
invert the lowering with col2im scatter-adds.  All kernels are vectorised
NumPy — stride tricks build the patch views without Python loops.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.tensor import Tensor, _node


# ---------------------------------------------------------------------------
# im2col / col2im
# ---------------------------------------------------------------------------

def _im2col(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """(N, C, H, W) -> (N, out_h, out_w, C*kh*kw) patch matrix (a view copy)."""
    n, c, h, w = x.shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    shape = (n, c, out_h, out_w, kh, kw)
    strides = (s0, s1, s2 * stride, s3 * stride, s2, s3)
    patches = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    # -> (N, out_h, out_w, C, kh, kw) -> flatten patch dims
    cols = patches.transpose(0, 2, 3, 1, 4, 5).reshape(n, out_h, out_w, c * kh * kw)
    return np.ascontiguousarray(cols)


def _col2im(
    cols: np.ndarray, x_shape: tuple, kh: int, kw: int, stride: int
) -> np.ndarray:
    """Scatter-add the patch-matrix gradient back to the input layout."""
    n, c, h, w = x_shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    grad = np.zeros(x_shape, dtype=cols.dtype)
    cols6 = cols.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    for i in range(kh):
        for j in range(kw):
            grad[:, :, i:i + stride * out_h:stride, j:j + stride * out_w:stride] += \
                cols6[:, :, :, :, i, j]
    return grad


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution, NCHW input, (out_c, in_c, kh, kw) weight."""
    if padding > 0:
        x = x.pad2d(padding)
    xd = x.data
    wd = weight.data
    out_c, in_c, kh, kw = wd.shape
    n, c, h, w = xd.shape
    if c != in_c:
        raise ValueError(f"channel mismatch: input {c} vs weight {in_c}")
    cols = _im2col(xd, kh, kw, stride)                # (N, oh, ow, C*kh*kw)
    wmat = wd.reshape(out_c, -1)                      # (out_c, C*kh*kw)
    out_data = cols @ wmat.T                          # (N, oh, ow, out_c)
    out_data = out_data.transpose(0, 3, 1, 2)         # NCHW
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, -1, 1, 1)

    def backward(out) -> None:
        g = out.grad.transpose(0, 2, 3, 1)            # (N, oh, ow, out_c)
        if weight.requires_grad:
            gw = np.tensordot(g, cols, axes=([0, 1, 2], [0, 1, 2]))
            weight._accumulate(gw.reshape(wd.shape), fresh=True)
        if x.requires_grad:
            gcols = g @ wmat                          # (N, oh, ow, C*kh*kw)
            x._accumulate(_col2im(gcols, xd.shape, kh, kw, stride),
                          fresh=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(out.grad.sum(axis=(0, 2, 3)), fresh=True)

    return _node(out_data, (x, weight) if bias is None else (x, weight, bias),
                 backward)


def conv1d(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """1-D convolution on (N, C, L), zero-padded by half the kernel width
    on each side ("same" for an odd kernel) — used by the ARDS 1-D CNN
    baseline."""
    x = pad1d(x, weight.shape[2] // 2)
    n, c, l = x.shape
    x4 = x.reshape(n, c, 1, l)
    out_c, in_c, k = weight.shape
    w4 = weight.reshape(out_c, in_c, 1, k)
    out = conv2d(x4, w4, bias=bias)
    n2, oc, _, ol = out.shape
    return out.reshape(n2, oc, ol)


def pad1d(x: Tensor, pad: int) -> Tensor:
    """Zero-pad the last axis of (N, C, L) symmetrically."""
    if pad == 0:
        return x
    widths = [(0, 0)] * (x.ndim - 1) + [(pad, pad)]

    def backward(out) -> None:
        sl = tuple([slice(None)] * (x.ndim - 1) + [slice(pad, -pad)])
        x._accumulate(out.grad[sl])

    return _node(np.pad(x.data, widths), (x,), backward)


#: Window (and stride) of :func:`max_pool2d`.
POOL = 2


def max_pool2d(x: Tensor) -> Tensor:
    """Max pooling over NCHW spatial dims, non-overlapping POOL × POOL
    windows."""
    kernel = stride = POOL
    n, c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    xd = x.data
    s0, s1, s2, s3 = xd.strides
    shape = (n, c, out_h, out_w, kernel, kernel)
    strides = (s0, s1, s2 * stride, s3 * stride, s2, s3)
    patches = np.lib.stride_tricks.as_strided(xd, shape=shape, strides=strides)
    if x.requires_grad:
        # The backward scatter index, computed once: where each window's
        # maximum sits, as an element offset into a gradient laid out in
        # memory like the input (what ``np.zeros_like(xd)`` allocates).
        flat = patches.reshape(n, c, out_h, out_w, kernel * kernel)
        ii, jj = np.divmod(flat.argmax(axis=4), kernel)
        grad_strides = np.empty_like(xd).strides
        e0, e1, e2, e3 = (s // xd.itemsize for s in grad_strides)
        target = (np.arange(n).reshape(n, 1, 1, 1) * e0
                  + np.arange(c).reshape(c, 1, 1) * e1
                  + (np.arange(out_h).reshape(out_h, 1) * stride + ii) * e2
                  + (np.arange(out_w) * stride + jj) * e3)

    def backward(out) -> None:
        flat_grad = np.zeros(xd.size, dtype=xd.dtype)
        # Windows cannot collide, so a fancy ``+=`` adds each once.
        flat_grad[target] += out.grad
        x._accumulate(np.lib.stride_tricks.as_strided(
            flat_grad, shape=xd.shape, strides=grad_strides), fresh=True)

    return _node(patches.max(axis=(4, 5)), (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """(N, C, H, W) -> (N, C)."""
    return x.mean(axis=(2, 3))


# ---------------------------------------------------------------------------
# softmax family
# ---------------------------------------------------------------------------

def log_softmax(x: Tensor) -> Tensor:
    """Numerically stable log-softmax over the last axis, built from
    autograd primitives."""
    shifted = x - x.max().detach()
    return shifted - shifted.exp().sum(axis=-1, keepdims=True).log()


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: scales by 1/(1-p) at train time, identity at eval."""
    if not (0.0 <= p < 1.0):
        raise ValueError("dropout p must be in [0, 1)")
    if not training or p == 0.0:
        return x
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    # Match the input dtype so dropout never upcasts a float32 model.
    return x * Tensor(mask.astype(x.dtype, copy=False))


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError("labels out of range")
    out = np.zeros((labels.shape[0], n_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out
