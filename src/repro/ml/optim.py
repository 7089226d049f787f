"""Optimisers: SGD (momentum/Nesterov/weight decay) and Adam.

The case studies use Adam(lr=1e-4) for the ARDS GRU (per the paper) and
momentum SGD for distributed ResNet training (the Horovod recipe the
paper's [18]/[20] follow).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.ml.layers import Parameter


class Optimizer:
    """Base: holds parameters, counts steps, supports lr scheduling; a
    subclass defines ``step()``."""

    def __init__(self, params: Sequence[Parameter], lr: float) -> None:
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer needs at least one parameter")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self._step_count = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    @property
    def step_count(self) -> int:
        return self._step_count


class SGD(Optimizer):
    """Stochastic gradient descent with momentum and weight decay."""

    def __init__(self, params: Sequence[Parameter], lr: float = 0.01,
                 momentum: float = 0.0, nesterov: bool = False,
                 weight_decay: float = 0.0) -> None:
        super().__init__(params, lr)
        if nesterov and momentum == 0.0:
            raise ValueError("nesterov requires momentum > 0")
        self.momentum = momentum
        self.nesterov = nesterov
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self._step_count += 1
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                v = self._velocity[i]
                v *= self.momentum
                v += grad
                grad = grad + self.momentum * v if self.nesterov else v
            p.data -= self.lr * grad


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(self, params: Sequence[Parameter], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self._step_count += 1
        for i, p in enumerate(self.params):
            if p.grad is not None:
                p.data -= adam_update(self, p.data, p.grad,
                                      self._m[i], self._v[i])


def adam_update(opt, theta: np.ndarray, grad: np.ndarray,
                m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The Adam update of one parameter — or of one flat shard of all of
    them (:mod:`repro.distributed.deepspeed`): advance its moments ``m``
    and ``v`` in place by ``grad`` and return what to subtract from
    ``theta``.  ``opt`` carries ``lr``, ``beta1``, ``beta2``, ``eps``,
    ``weight_decay`` and a ``step_count`` that already counts this step.
    """
    if opt.weight_decay:
        grad = grad + opt.weight_decay * theta
    t = opt.step_count
    m *= opt.beta1
    m += (1.0 - opt.beta1) * grad
    v *= opt.beta2
    v += (1.0 - opt.beta2) * grad ** 2
    m_hat = m / (1.0 - opt.beta1 ** t)
    v_hat = v / (1.0 - opt.beta2 ** t)
    return opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)
