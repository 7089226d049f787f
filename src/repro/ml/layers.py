"""Neural-network layers (Keras/pyTorch-style modules).

Provides the layer set the paper's case studies need: Dense, Conv2D/Conv1D,
BatchNorm, Dropout and global average pooling.  Recurrent layers (the ARDS
GRU) live in :mod:`repro.ml.rnn`.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.ml import functional as F
from repro.ml.tensor import Tensor, _node, unbroadcast


class Parameter(Tensor):
    """A trainable tensor."""

    def __init__(self, data) -> None:
        # Tensor.__init__ preserves float dtypes (float32 weights stay
        # float32) and promotes integer initialisers to float64.
        super().__init__(data, requires_grad=True)


class Module:
    """Base class: parameter discovery, train/eval mode, state dict."""

    def __init__(self) -> None:
        self.training = True
        self._buffers: dict[str, np.ndarray] = {}

    # -- forward -------------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """The output for a raw array batch, computed in eval mode; a
        model in training mode goes back to it."""
        was_training = self.training
        self.eval()
        out = self.forward(Tensor(x)).data
        if was_training:
            self.train()
        return out

    # -- parameter discovery -----------------------------------------------------
    def _children(self) -> Iterator[tuple[str, "Module"]]:
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{name}.{i}", item

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, value in vars(self).items():
            if isinstance(value, Parameter):
                yield f"{prefix}{name}", value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{prefix}{name}.{i}", item
        for name, child in self._children():
            yield from child.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    # -- modes ----------------------------------------------------------------------
    def train(self) -> "Module":
        self.training = True
        for _, child in self._children():
            child.train()
        return self

    def eval(self) -> "Module":
        self.training = False
        for _, child in self._children():
            child.eval()
        return self

    # -- state ---------------------------------------------------------------------
    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            yield f"{prefix}{name}", buf
        for name, child in self._children():
            yield from child.named_buffers(prefix=f"{prefix}{name}.")

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        state.update({f"buffer:{name}": b.copy() for name, b in self.named_buffers()})
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        buffers = {f"buffer:{name}": b for name, b in self.named_buffers()}
        expected = set(params) | set(buffers)
        missing = expected - set(state)
        extra = set(state) - expected
        if missing or extra:
            raise KeyError(f"state mismatch: missing={sorted(missing)}, "
                           f"unexpected={sorted(extra)}")
        for name, p in params.items():
            if p.data.shape != state[name].shape:
                raise ValueError(f"shape mismatch for {name}")
            p.data[...] = state[name]
        for name, b in buffers.items():
            b[...] = state[name]


# ---------------------------------------------------------------------------
# initialisers
# ---------------------------------------------------------------------------

def he_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """Kaiming-He normal initialisation (ReLU networks)."""
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def xavier_init(rng: np.random.Generator, shape: tuple[int, ...],
                fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot uniform initialisation (tanh/sigmoid networks)."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

class Dense(Module):
    """Fully connected layer: y = x W + b."""

    def __init__(self, in_features: int, out_features: int, *,
                 rng: np.random.Generator) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(he_init(rng, (in_features, out_features), in_features))
        self.bias = Parameter(np.zeros(out_features))

    def forward(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias


class Conv2D(Module):
    """2-D convolution over NCHW images, without a bias (a batch norm
    follows every one)."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int = 1, padding: int = 0, *,
                 rng: np.random.Generator) -> None:
        super().__init__()
        fan_in = in_channels * kernel * kernel
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            he_init(rng, (out_channels, in_channels, kernel, kernel), fan_in))

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, stride=self.stride,
                        padding=self.padding)


class Conv1D(Module):
    """1-D convolution over (N, C, L) sequences, "same" padded."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int, *,
                 rng: np.random.Generator) -> None:
        super().__init__()
        fan_in = in_channels * kernel
        self.weight = Parameter(
            he_init(rng, (out_channels, in_channels, kernel), fan_in))
        self.bias = Parameter(np.zeros(out_channels))

    def forward(self, x: Tensor) -> Tensor:
        return F.conv1d(x, self.weight, self.bias)


#: Running-statistics decay and variance guard of :class:`BatchNorm`.
BN_MOMENTUM, BN_EPS = 0.9, 1e-5


class BatchNorm(Module):
    """Batch normalisation over the channel axis.

    Works for (N, C), (N, C, L) and (N, C, H, W) inputs; keeps running
    statistics for eval mode, read in the input's dtype.  As cuDNN's fused
    batch norm is, a training forward is one autograd node over ``(x,
    gamma, beta)``: it runs the ufuncs of the per-op graph in that graph's
    order on ndarrays (same bits), and its backward adds into all three
    unconditionally.
    """

    def __init__(self, num_features: int) -> None:
        super().__init__()
        self.num_features = num_features
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))
        self._buffers["running_mean"] = np.zeros(num_features)
        self._buffers["running_var"] = np.ones(num_features)

    @property
    def running_mean(self) -> np.ndarray:
        return self._buffers["running_mean"]

    @property
    def running_var(self) -> np.ndarray:
        return self._buffers["running_var"]

    def forward(self, x: Tensor) -> Tensor:
        shape = tuple(self.num_features if i == 1 else 1 for i in range(x.ndim))
        gamma, beta = self.gamma, self.beta
        if not self.training:
            mu = Tensor(self.running_mean.reshape(shape).astype(x.dtype))
            var = Tensor(self.running_var.reshape(shape).astype(x.dtype))
            x_hat = (x - mu) / ((var + BN_EPS) ** 0.5)
            return x_hat * gamma.reshape(shape) + beta.reshape(shape)
        xd = x.data
        axes = tuple(i for i in range(xd.ndim) if i != 1)
        c = np.asarray(1.0 / (xd.size // xd.shape[1]), xd.dtype)
        mu = xd.sum(axes, keepdims=True) * c
        d = xd + -mu
        var = np.square(d).sum(axes, keepdims=True) * c
        m = BN_MOMENTUM
        rm, rv = self._buffers["running_mean"], self._buffers["running_var"]
        rm *= m
        rm += (1 - m) * mu.reshape(-1)
        rv *= m
        rv += (1 - m) * var.reshape(-1)
        ve = var + np.asarray(BN_EPS, var.dtype)
        sd = np.sqrt(ve)
        x_hat = d / sd
        gd = gamma.data.reshape(shape)

        def backward(out) -> None:
            g = out.grad
            gb = unbroadcast(g, shape)
            beta._accumulate(gb.reshape(-1), fresh=gb is not g)
            gamma._accumulate(unbroadcast(g * x_hat, shape).reshape(-1),
                              fresh=True)
            g_xh = g * gd
            g_sd = unbroadcast(((-g_xh) * d) / (sd ** 2), shape)
            g_s2 = ((g_sd * 0.5) * ve ** (0.5 - 1)) * c
            g_d = g_xh / sd
            g_dv = np.multiply(g_s2 * 2, d, out=np.empty(    # d ** (2 - 1)
                d.shape, np.result_type(g_s2, d)))           # is d, C order
            g_s1 = (-unbroadcast(g_d, shape) + -unbroadcast(g_dv, shape)) * c
            # x's contributions in the per-op graph's order: (a + b) + c
            # is not (a + c) + b once x already holds a gradient.  After
            # two, x's gradient is private, so the mean path adds in place.
            x._accumulate(g_d, fresh=True)
            x._accumulate(g_dv, fresh=True)
            x.grad += g_s1

        return _node(x_hat * gd + beta.data.reshape(shape), (x, gamma, beta),
                     backward)


class Dropout(Module):
    """Inverted dropout with its own deterministic stream."""

    def __init__(self, p: float, seed: int = 0) -> None:
        super().__init__()
        if not (0.0 <= p < 1.0):
            raise ValueError("dropout p must be in [0, 1)")
        self.p = p
        self.rng = np.random.default_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.rng, training=self.training)


class GlobalAvgPool2D(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)
