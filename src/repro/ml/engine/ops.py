"""The primitive-op vocabulary of the lazy tensor engine.

Everything :class:`~repro.ml.tensor.Tensor` can defer lowers to a tiny,
tinygrad-style op set:

* **unary** elementwise — ``neg exp log tanh sigmoid relu abs pow``,
* **binary** elementwise — ``add mul div`` (``sub`` is ``add(neg)``, composed
  by the Tensor layer),
* **reduce** — ``sum max`` over an axis set,
* **matmul** — batched 2-D contraction (1-D operands are lifted by the
  Tensor layer before they reach the engine),
* **movement** — ``reshape transpose``: views, the only ops that allocate
  no buffer.

Each op carries a shape/dtype inference rule (so lazy tensors answer
``.shape``/``.dtype`` without computing) and an executor — the op's only
forward definition: eager calls it when the op is applied, a lazy
realize with the same arguments when its bytes are demanded, so the two
engines agree *bit for bit*.  That is the property the reference-replay
pins in ``tests/test_perf_regression_pins.py`` enforce.
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


class OpSpec(NamedTuple):
    """One primitive op: kind + inference + execution."""

    kind: str
    #: infer(input_shapes, input_dtypes, kwargs) -> (shape, dtype)
    infer: Callable[..., tuple[tuple[int, ...], np.dtype]]
    #: execute(args, kwargs) -> ndarray
    execute: Callable[..., np.ndarray]


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


def _reshape_infer(shapes, dtypes, kw):
    """Resolve a reshape target (supporting one -1) without data."""
    in_shape, shape = shapes[0], tuple(int(s) for s in kw["shape"])
    if -1 in shape:
        known = math.prod(s for s in shape if s != -1)
        total = math.prod(in_shape)
        if shape.count(-1) > 1 or known == 0 or total % known:
            raise ValueError(f"cannot reshape {in_shape} -> {shape}")
        shape = tuple(total // known if s == -1 else s for s in shape)
    if math.prod(shape) != math.prod(in_shape):
        raise ValueError(f"cannot reshape {in_shape} -> {shape}")
    return shape, dtypes[0]


def _transpose_infer(shapes, dtypes, kw):
    axes = kw["axes"]
    return tuple(shapes[0][a] for a in axes), dtypes[0]


# -- executors: the only forward definition of each op, run by both engines --


def _exec_neg(args, kw):
    return np.negative(args[0])


def _exec_exp(args, kw):
    return np.exp(args[0])


def _exec_log(args, kw):
    return np.log(args[0])


def _exec_tanh(args, kw):
    return np.tanh(args[0])


def _exec_sigmoid(args, kw):
    # 1 / (1 + exp(-x)) with every temporary folded into one buffer; a
    # 0-d negative is a NumPy scalar, which no ``out=`` accepts.
    t = np.asarray(np.negative(args[0]))
    np.exp(t, out=t)
    np.add(t, 1.0, out=t)
    return np.true_divide(1.0, t, out=t)


def _exec_relu(args, kw):
    return np.multiply(args[0], args[0] > 0)


def _exec_abs(args, kw):
    return np.abs(args[0])


#: Python-scalar exponents ``ndarray.__pow__`` itself hands to a dedicated
#: ufunc, at half the cost of the generic ``np.power`` loop.  Keyed by type
#: too — an ``np.float64`` exponent promotes a float32 base, which only
#: ``np.power`` does.
_POW_UFUNC = {(int, 2): np.square, (float, 2.0): np.square,
              (float, 0.5): np.sqrt}


def _exec_pow(args, kw):
    exponent = kw["exponent"]
    ufunc = _POW_UFUNC.get((exponent.__class__, exponent))
    if ufunc is not None:
        return ufunc(args[0])
    return np.power(args[0], exponent)


def _exec_add(args, kw):
    return np.add(args[0], args[1])


def _exec_mul(args, kw):
    return np.multiply(args[0], args[1])


def _exec_div(args, kw):
    return np.true_divide(args[0], args[1])


def _exec_sum(args, kw):
    return args[0].sum(axis=kw["axis"], keepdims=kw["keepdims"])


def _exec_max(args, kw):
    return args[0].max(axis=kw["axis"], keepdims=kw["keepdims"])


def _exec_matmul(args, kw):
    return np.matmul(args[0], args[1])


def _exec_reshape(args, kw):
    return args[0].reshape(kw["shape"])


def _exec_transpose(args, kw):
    return args[0].transpose(kw["axes"])


# -- the table ---------------------------------------------------------------

OPS: dict[str, OpSpec] = {
    "neg": OpSpec(UNARY, _unary_infer, _exec_neg),
    "exp": OpSpec(UNARY, _unary_infer, _exec_exp),
    "log": OpSpec(UNARY, _unary_infer, _exec_log),
    "tanh": OpSpec(UNARY, _unary_infer, _exec_tanh),
    "sigmoid": OpSpec(UNARY, _unary_infer, _exec_sigmoid),
    "relu": OpSpec(UNARY, _unary_infer, _exec_relu),
    "abs": OpSpec(UNARY, _unary_infer, _exec_abs),
    "pow": OpSpec(UNARY, _pow_infer, _exec_pow),
    "add": OpSpec(BINARY, _binary_infer, _exec_add),
    "mul": OpSpec(BINARY, _binary_infer, _exec_mul),
    "div": OpSpec(BINARY, _binary_infer, _exec_div),
    "sum": OpSpec(REDUCE, _reduce_infer, _exec_sum),
    "max": OpSpec(REDUCE, _reduce_infer, _exec_max),
    "matmul": OpSpec(MATMUL, _matmul_infer, _exec_matmul),
    "reshape": OpSpec(MOVEMENT, _reshape_infer, _exec_reshape),
    "transpose": OpSpec(MOVEMENT, _transpose_infer, _exec_transpose),
}
