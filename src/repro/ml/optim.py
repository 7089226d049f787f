"""Optimisers: plain SGD and Adam.

The case studies use Adam(lr=1e-4) for the ARDS GRU (per the paper) and
plain SGD for the data-parallel recipes, whose weights are then the whole
training state (:func:`repro.distributed.horovod.run_elastic_training`).
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
        if not (lr > 0):                   # NaN fails too
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
    """Plain stochastic gradient descent."""

    def step(self) -> None:
        self._step_count += 1
        for p in self.params:
            if p.grad is not None:
                p.data -= self.lr * p.grad


#: Adam's moment decay rates and denominator guard (Kingma & Ba defaults).
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(self, params: Sequence[Parameter], lr: float = 1e-3) -> None:
        super().__init__(params, lr)
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self._step_count += 1
        for i, p in enumerate(self.params):
            if p.grad is not None:
                p.data -= adam_update(self, p.grad, self._m[i], self._v[i])


def adam_update(opt, grad: np.ndarray, m: np.ndarray,
                v: np.ndarray) -> np.ndarray:
    """The Adam update of one parameter — or of one flat shard of all of
    them (:mod:`repro.distributed.deepspeed`): advance its moments ``m``
    and ``v`` in place by ``grad`` and return what to subtract from the
    parameter.  ``opt`` carries ``lr`` and a ``step_count`` that already
    counts this step.
    """
    t = opt.step_count
    m *= BETA1
    m += (1.0 - BETA1) * grad
    v *= BETA2
    v += (1.0 - BETA2) * grad ** 2
    m_hat = m / (1.0 - BETA1 ** t)
    v_hat = v / (1.0 - BETA2 ** t)
    return opt.lr * m_hat / (np.sqrt(v_hat) + EPS)
