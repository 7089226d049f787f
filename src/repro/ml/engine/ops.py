"""The primitive-op vocabulary of the lazy tensor engine.

Everything :class:`~repro.ml.tensor.Tensor` can defer lowers to a tiny,
tinygrad-style op set:

* **unary** elementwise — ``neg exp log tanh sigmoid relu abs clip pow``,
* **binary** elementwise — ``add mul div`` (``sub`` is ``add(neg)``, composed
  by the Tensor layer),
* **reduce** — ``sum max`` over an axis set,
* **matmul** — batched 2-D contraction (1-D operands are lifted by the
  Tensor layer before they reach the engine),
* **movement** — ``reshape transpose pad2d`` (views / layout changes).

Each op carries a shape/dtype inference rule (so lazy tensors answer
``.shape``/``.dtype`` without computing), a FLOP estimate (what the
simulated-GPU device charges), and an executor — the op's only forward
definition: eager calls it per op (``out_buf=None``), a fused kernel
replays it with ``out=`` reuse that may eliminate intermediate buffers
but never reorders or reassociates float math, so the two engines agree
*bit for bit*.  That is the property the reference-replay pins in
``tests/test_perf_regression_pins.py`` enforce.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

# -- op kinds ----------------------------------------------------------------

UNARY = "unary"
BINARY = "binary"
REDUCE = "reduce"
MATMUL = "matmul"
MOVEMENT = "movement"
LEAF = "leaf"

#: Kinds the fuser may place in the interior of a fused kernel.
ELEMENTWISE_KINDS = (UNARY, BINARY)


class OpSpec(NamedTuple):
    """One primitive op: kind + inference + execution + cost."""

    kind: str
    #: infer(input_shapes, input_dtypes, kwargs) -> (shape, dtype)
    infer: Callable[..., tuple[tuple[int, ...], np.dtype]]
    #: execute(args, kwargs, out_buf) -> ndarray; ``out_buf`` is an owned,
    #: correctly shaped scratch buffer the executor may write into (or None).
    execute: Callable[..., np.ndarray]
    #: flops(input_shapes, out_shape, kwargs) -> float
    flops: Callable[..., float]
    #: Whether ``execute`` allocates a fresh buffer when ``out_buf`` is None
    #: (movement ops return views and allocate nothing).
    allocates: bool = True


def _size(shape: tuple[int, ...]) -> int:
    return int(math.prod(shape))


# -- shape / dtype inference -------------------------------------------------


def _unary_infer(shapes, dtypes, kw):
    return shapes[0], dtypes[0]


def _pow_infer(shapes, dtypes, kw):
    # NEP-50 weak promotion: a python-scalar exponent never upcasts float32.
    return shapes[0], np.result_type(dtypes[0], kw["exponent"])


def _binary_infer(shapes, dtypes, kw):
    return (np.broadcast_shapes(shapes[0], shapes[1]),
            np.result_type(dtypes[0], dtypes[1]))


def normalize_axes(axis, ndim: int) -> tuple[int, ...]:
    """Reduction axes as a normalized tuple (all axes when None)."""
    if axis is None:
        return tuple(range(ndim))
    axes = axis if isinstance(axis, tuple) else (axis,)
    return tuple(a % ndim for a in axes)


def reduce_shape(shape: tuple[int, ...], axis, keepdims: bool) -> tuple[int, ...]:
    axes = normalize_axes(axis, len(shape))
    if keepdims:
        return tuple(1 if i in axes else s for i, s in enumerate(shape))
    return tuple(s for i, s in enumerate(shape) if i not in axes)


def _reduce_infer(shapes, dtypes, kw):
    return reduce_shape(shapes[0], kw["axis"], kw["keepdims"]), dtypes[0]


def matmul_shape(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """np.matmul shape rule for operands of ndim >= 2."""
    if a[-1] != b[-2]:
        raise ValueError(f"matmul shape mismatch: {a} @ {b}")
    batch = np.broadcast_shapes(a[:-2], b[:-2])
    return tuple(batch) + (a[-2], b[-1])


def _matmul_infer(shapes, dtypes, kw):
    return matmul_shape(shapes[0], shapes[1]), np.result_type(*dtypes)


def resolve_reshape(in_shape: tuple[int, ...], shape) -> tuple[int, ...]:
    """Resolve a reshape target (supporting one -1) without data."""
    shape = tuple(int(s) for s in shape)
    if -1 in shape:
        known = _size(tuple(s for s in shape if s != -1))
        total = _size(in_shape)
        if shape.count(-1) > 1 or known == 0 or total % known:
            raise ValueError(f"cannot reshape {in_shape} -> {shape}")
        shape = tuple(total // known if s == -1 else s for s in shape)
    if _size(shape) != _size(in_shape):
        raise ValueError(f"cannot reshape {in_shape} -> {shape}")
    return shape


def _reshape_infer(shapes, dtypes, kw):
    return resolve_reshape(shapes[0], kw["shape"]), dtypes[0]


def _transpose_infer(shapes, dtypes, kw):
    axes = kw["axes"]
    return tuple(shapes[0][a] for a in axes), dtypes[0]


def _pad2d_infer(shapes, dtypes, kw):
    p = kw["pad"]
    s = shapes[0]
    return s[:-2] + (s[-2] + 2 * p, s[-1] + 2 * p), dtypes[0]


# -- executors: the only forward definition of each op, run by both engines --


def _exec_neg(args, kw, out):
    return np.negative(args[0], out=out)


def _exec_exp(args, kw, out):
    return np.exp(args[0], out=out)


def _exec_log(args, kw, out):
    return np.log(args[0], out=out)


def _exec_tanh(args, kw, out):
    return np.tanh(args[0], out=out)


def _exec_sigmoid(args, kw, out):
    # 1 / (1 + exp(-x)) with every temporary folded into one buffer; a
    # 0-d negative is a NumPy scalar, which no ``out=`` accepts.
    t = np.asarray(np.negative(args[0], out=out))
    np.exp(t, out=t)
    np.add(t, 1.0, out=t)
    return np.true_divide(1.0, t, out=t)


def _exec_relu(args, kw, out):
    return np.multiply(args[0], args[0] > 0, out=out)


def _exec_abs(args, kw, out):
    return np.abs(args[0], out=out)


def _exec_clip(args, kw, out):
    return np.clip(args[0], kw["lo"], kw["hi"], out=out)


#: Python-scalar exponents ``ndarray.__pow__`` itself hands to a dedicated
#: ufunc, at half the cost of the generic ``np.power`` loop.  Keyed by type
#: too — an ``np.float64`` exponent promotes a float32 base, which only
#: ``np.power`` does.
_POW_UFUNC = {(int, 2): np.square, (float, 2.0): np.square,
              (float, 0.5): np.sqrt}


def _exec_pow(args, kw, out):
    exponent = kw["exponent"]
    ufunc = _POW_UFUNC.get((exponent.__class__, exponent))
    if ufunc is not None:
        return ufunc(args[0], out=out)
    return np.power(args[0], exponent, out=out)


def _exec_add(args, kw, out):
    return np.add(args[0], args[1], out=out)


def _exec_mul(args, kw, out):
    return np.multiply(args[0], args[1], out=out)


def _exec_div(args, kw, out):
    return np.true_divide(args[0], args[1], out=out)


def _exec_sum(args, kw, out):
    return args[0].sum(axis=kw["axis"], keepdims=kw["keepdims"])


def _exec_max(args, kw, out):
    return args[0].max(axis=kw["axis"], keepdims=kw["keepdims"])


def _exec_matmul(args, kw, out):
    return np.matmul(args[0], args[1])


def _exec_reshape(args, kw, out):
    return args[0].reshape(kw["shape"])


def _exec_transpose(args, kw, out):
    return args[0].transpose(kw["axes"])


def _exec_pad2d(args, kw, out):
    p = kw["pad"]
    widths = [(0, 0)] * (args[0].ndim - 2) + [(p, p), (p, p)]
    return np.pad(args[0], widths)


# -- FLOP estimates ----------------------------------------------------------


def _flops_out(shapes, out_shape, kw):
    return float(_size(out_shape))


def _flops_in(shapes, out_shape, kw):
    return float(_size(shapes[0]))


def _flops_sigmoid(shapes, out_shape, kw):
    return 4.0 * _size(out_shape)       # neg, exp, add, div


def _flops_matmul(shapes, out_shape, kw):
    return 2.0 * _size(out_shape) * shapes[0][-1]


def _flops_zero(shapes, out_shape, kw):
    return 0.0


# -- the table ---------------------------------------------------------------

OPS: dict[str, OpSpec] = {
    "neg": OpSpec(UNARY, _unary_infer, _exec_neg, _flops_out),
    "exp": OpSpec(UNARY, _unary_infer, _exec_exp, _flops_out),
    "log": OpSpec(UNARY, _unary_infer, _exec_log, _flops_out),
    "tanh": OpSpec(UNARY, _unary_infer, _exec_tanh, _flops_out),
    "sigmoid": OpSpec(UNARY, _unary_infer, _exec_sigmoid, _flops_sigmoid),
    "relu": OpSpec(UNARY, _unary_infer, _exec_relu, _flops_out),
    "abs": OpSpec(UNARY, _unary_infer, _exec_abs, _flops_out),
    "clip": OpSpec(UNARY, _unary_infer, _exec_clip, _flops_out),
    "pow": OpSpec(UNARY, _pow_infer, _exec_pow, _flops_out),
    "add": OpSpec(BINARY, _binary_infer, _exec_add, _flops_out),
    "mul": OpSpec(BINARY, _binary_infer, _exec_mul, _flops_out),
    "div": OpSpec(BINARY, _binary_infer, _exec_div, _flops_out),
    "sum": OpSpec(REDUCE, _reduce_infer, _exec_sum, _flops_in),
    "max": OpSpec(REDUCE, _reduce_infer, _exec_max, _flops_in),
    "matmul": OpSpec(MATMUL, _matmul_infer, _exec_matmul, _flops_matmul),
    "reshape": OpSpec(MOVEMENT, _reshape_infer, _exec_reshape, _flops_zero,
                      allocates=False),
    "transpose": OpSpec(MOVEMENT, _transpose_infer, _exec_transpose,
                        _flops_zero, allocates=False),
    "pad2d": OpSpec(MOVEMENT, _pad2d_infer, _exec_pad2d, _flops_in),
}
