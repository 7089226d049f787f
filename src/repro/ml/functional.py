"""Neural-network functional ops: convolutions, pooling, softmax, dropout.

Convolutions lower to im2col + matmul (the standard CPU strategy and how
the tensor-core path consumes them on the paper's GPUs).  The patch
matrix is one ``take`` through a gather index built once per geometry,
zero padding included; the backward pass gathers each input element's
taps through the inverted index, per stride phase, and adds them in tap
order.  Its patch-sized temporaries reuse scratch slots.  The output is
C-order NCHW, as every activation is.  All kernels are vectorised NumPy
— no Python loop runs per element.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from functools import lru_cache
from typing import Optional

import numpy as np

from repro.ml.tensor import Tensor, _node


# ---------------------------------------------------------------------------
# convolution patch indices, one per geometry
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _gather_index(c: int, h: int, w: int, kh: int, kw: int, stride: int,
                  padding: tuple[int, int]) -> np.ndarray:
    """(out_h, out_w, C*kh*kw) offsets into one sample's flattened
    (C, H, W) input, zero-padded by ``padding`` = (rows, columns) on each
    side: where each patch-matrix cell reads; a padding cell reads
    ``C*H*W``, the zero sentinel :func:`conv2d` appends.  Cached and
    shared between calls, so it is never written."""
    ph, pw = padding
    # Row and column of each (out position, tap) as (out_h, out_w, C, kh, kw).
    rows = (np.arange(0, h + 2 * ph - kh + 1, stride)[:, None]
            + np.arange(kh) - ph)[:, None, None, :, None]
    cols = (np.arange(0, w + 2 * pw - kw + 1, stride)[:, None]
            + np.arange(kw) - pw)[None, :, None, None, :]
    idx = np.where((rows >= 0) & (rows < h) & (cols >= 0) & (cols < w),
                   np.arange(c)[:, None, None] * (h * w) + rows * w + cols,
                   c * h * w)
    return idx.reshape(rows.shape[0], cols.shape[1], -1)


def _tap_index(c: int, h: int, w: int, kh: int, kw: int, stride: int,
               padding: tuple[int, int]) -> np.ndarray:
    """The gather index turned around: (kh*kw, C*H*W) offsets into one
    sample's flat (out_h, out_w, C*kh*kw) patch gradient, row i*kw + j
    naming the cell through which tap (i, j) read each input element, or
    the zero sentinel past the last cell."""
    gather = _gather_index(c, h, w, kh, kw, stride, padding).ravel()
    cells = np.arange(gather.size)
    taps = np.full((kh * kw, c * h * w + 1), gather.size)
    taps[cells % (kh * kw), gather] = cells     # padding: the last column
    return np.ascontiguousarray(taps[:, :-1])


@lru_cache(maxsize=32)
def _phase_index(c: int, h: int, w: int, kh: int, kw: int, stride: int,
                 padding: tuple[int, int]) -> tuple:
    """The tap index per stride phase: ``(a, b, index)`` for each class
    (row mod stride, column mod stride) some tap reaches, ``index``
    (taps, C, rows, columns) naming in (i, j) order only those taps'
    cells, for only that class's elements (every other tap names the
    sentinel there).  At stride 1, the whole tap index.  Cached, never
    written."""
    taps = _tap_index(c, h, w, kh, kw, stride, padding).reshape(
        kh, kw, c, h, w)
    row = (np.arange(kh) - padding[0]) % stride   # the class tap i reaches
    col = (np.arange(kw) - padding[1]) % stride
    phases = ((a, b, taps[row == a][:, col == b, :, a::stride, b::stride])
              for a in range(stride) for b in range(stride))
    return tuple((a, b, np.ascontiguousarray(t.reshape(-1, *t.shape[2:])))
                 for a, b, t in phases if t.size)


_SLOTS: dict[str, np.ndarray] = {}
_SLOTS_LENT = threading.Lock()


@contextmanager
def _lend_slots():
    """The process's scratch slots, lent to one call at a time: a call that
    finds them lent (another thread's ``conv2d``) gets an empty dict, so
    fresh temporaries, and one set of slots serves any number of threads."""
    lent = _SLOTS_LENT.acquire(blocking=False)
    try:
        yield _SLOTS if lent else {}
    finally:
        if lent:
            _SLOTS_LENT.release()


def _scratch(slots: dict, slot: str, shape: tuple, dtype) -> np.ndarray:
    """Byte slot ``slot`` of ``slots`` as an uninitialised C-order (shape,
    dtype) array, for a temporary dead when its call returns.  A slot only
    grows, so its pages are not faulted in afresh on every step."""
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    buf = slots.get(slot)
    if buf is None or buf.size < nbytes:
        buf = slots[slot] = np.empty(nbytes, np.uint8)
    return buf[:nbytes].view(dtype).reshape(shape)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int | tuple[int, int] = 0,
) -> Tensor:
    """2-D convolution, NCHW input, (out_c, in_c, kh, kw) weight, zero
    padding on each side: one width for both axes or a (rows, columns)
    pair."""
    if isinstance(padding, int):
        padding = (padding, padding)
    xd, wd = x.data, weight.data
    out_c, in_c, kh, kw = wd.shape
    n, c, h, w = xd.shape
    if c != in_c:
        raise ValueError(f"channel mismatch: input {c} vs weight {in_c}")
    size = c * h * w
    # Each sample flattened, then the re-zeroed sentinel: one copy of ``x``.
    with _lend_slots() as slots:
        buf = _scratch(slots, "source", (n, size + 1), xd.dtype)
        buf[:, size] = 0
        buf[:, :size].reshape(n, c, h, w)[...] = xd
        cols = buf.take(_gather_index(c, h, w, kh, kw, stride, padding),
                        axis=1)                       # (N, oh, ow, C*kh*kw)
    wmat = wd.reshape(out_c, -1)                      # (out_c, C*kh*kw)
    # The gemm's bits, copied to C-order NCHW like every other activation.
    out_data = np.ascontiguousarray((cols @ wmat.T).transpose(0, 3, 1, 2))
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, -1, 1, 1)

    def backward(out) -> None:
        if weight.requires_grad:
            gw = np.dot(out.grad.transpose(1, 0, 2, 3).reshape(out_c, -1),
                        cols.reshape(-1, wmat.shape[1]))
            weight._accumulate(gw.reshape(wd.shape), fresh=True)
        if x.requires_grad:     # patch gradients, then the zero sentinel
            with _lend_slots() as slots:
                gbuf = _scratch(slots, "source", (n, cols[0].size + 1),
                                np.result_type(out.grad, wmat))
                gbuf[:, -1] = 0
                np.matmul(out.grad.transpose(0, 2, 3, 1), wmat,
                          out=gbuf[:, :-1].reshape(cols.shape))
                # Each stride phase adds only the taps that reach it, from
                # +0.0 in (i, j) order as col2im adds: a sentinel's +0.0 (all
                # that a skipped tap gave) leaves every sum's bits.  ``acc``
                # is fresh: at stride 1 it is x's gradient.  The gather is
                # mode "clip": under "raise" ``take`` copies before ``out``.
                gx = None if stride == 1 else np.zeros(xd.shape, gbuf.dtype)
                for a, b, index in _phase_index(c, h, w, kh, kw, stride,
                                                padding):
                    taps = gbuf.take(index, axis=1, mode="clip", out=_scratch(
                        slots, "taps", (n, *index.shape), gbuf.dtype))
                    acc = np.add(taps[:, 0], 0.0)
                    for t in range(1, len(index)):
                        acc += taps[:, t]
                    if gx is None:
                        gx = acc
                    else:
                        gx[:, :, a::stride, b::stride] = acc
            x._accumulate(gx, fresh=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(out.grad.sum(axis=(0, 2, 3)), fresh=True)

    return _node(out_data, (x, weight) if bias is None else (x, weight, bias),
                 backward)


def conv1d(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """1-D convolution on (N, C, L), zero-padded by half the kernel width
    on each side ("same" for an odd kernel) — used by the ARDS 1-D CNN
    baseline."""
    n, c, l = x.shape
    out_c, in_c, k = weight.shape
    out = conv2d(x.reshape(n, c, 1, l), weight.reshape(out_c, in_c, 1, k),
                 bias=bias, padding=(0, k // 2))
    n2, oc, _, ol = out.shape
    return out.reshape(n2, oc, ol)


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
