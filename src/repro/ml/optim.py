"""Optimisers: SGD (momentum/Nesterov/weight decay) and Adam.

The case studies use Adam(lr=1e-4) for the ARDS GRU (per the paper) and
momentum SGD with the linear-scaling + warmup schedule for distributed
ResNet training (the Horovod recipe the paper's [18]/[20] follow).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

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


def clip_grad_norm(params: Sequence[Parameter], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Standard for RNN training (the ARDS GRU benefits from it at higher
    learning rates).  Returns the pre-clip norm.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    total = 0.0
    grads = [p.grad for p in params if p.grad is not None]
    for g in grads:
        total += float((g ** 2).sum())
    norm = total ** 0.5
    if norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for g in grads:
            g *= scale
    return norm


class CosineDecaySchedule:
    """Cosine learning-rate decay with optional linear warmup.

    The schedule large-batch ResNet recipes (including Horovod's examples)
    pair with the linear-scaling rule: warm up to ``peak_lr``, then decay
    to ``final_lr`` over ``total_steps`` following a half cosine.
    """

    def __init__(self, optimizer: Optimizer, peak_lr: float,
                 total_steps: int, warmup_steps: int = 0,
                 final_lr: float = 0.0) -> None:
        if total_steps < 1 or warmup_steps < 0 or warmup_steps > total_steps:
            raise ValueError("need 0 <= warmup_steps <= total_steps, "
                             "total_steps >= 1")
        if peak_lr <= 0 or final_lr < 0:
            raise ValueError("peak_lr must be positive, final_lr >= 0")
        self.optimizer = optimizer
        self.peak_lr = peak_lr
        self.total_steps = total_steps
        self.warmup_steps = warmup_steps
        self.final_lr = final_lr
        self._t = 0
        optimizer.lr = self._lr_at(0)

    def _lr_at(self, t: int) -> float:
        import math

        if self.warmup_steps > 0 and t < self.warmup_steps:
            return self.peak_lr * (t + 1) / self.warmup_steps
        progress = (t - self.warmup_steps) / max(
            1, self.total_steps - self.warmup_steps)
        progress = min(1.0, progress)
        cosine = 0.5 * (1.0 + math.cos(math.pi * progress))
        return self.final_lr + (self.peak_lr - self.final_lr) * cosine

    def step(self) -> float:
        self._t += 1
        self.optimizer.lr = self._lr_at(self._t)
        return self.optimizer.lr


class LinearWarmupSchedule:
    """Linear LR warmup then constant — the large-batch recipe Horovod's
    ResNet examples (and the paper's [18], [20]) use when scaling workers."""

    def __init__(self, optimizer: Optimizer, base_lr: float,
                 target_lr: float, warmup_steps: int) -> None:
        if warmup_steps < 0:
            raise ValueError("warmup_steps must be non-negative")
        self.optimizer = optimizer
        self.base_lr = base_lr
        self.target_lr = target_lr
        self.warmup_steps = warmup_steps
        self._t = 0
        optimizer.lr = base_lr if warmup_steps > 0 else target_lr

    def step(self) -> float:
        """Advance one step; returns the LR now in effect."""
        self._t += 1
        if self.warmup_steps == 0 or self._t >= self.warmup_steps:
            self.optimizer.lr = self.target_lr
        else:
            frac = self._t / self.warmup_steps
            self.optimizer.lr = self.base_lr + frac * (self.target_lr - self.base_lr)
        return self.optimizer.lr
