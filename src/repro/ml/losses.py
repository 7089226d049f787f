"""Loss functions for the case-study models.

* cross-entropy with logits (multi-class: land-cover, COVID-Net),
* binary cross-entropy with logits (multi-label: BigEarthNet-style),
* MAE — the ARDS GRU's loss (paper Sec. IV-B),
* MSE — autoencoder reconstruction.
"""

from __future__ import annotations

import numpy as np

from repro.ml.functional import log_softmax, one_hot
from repro.ml.tensor import Tensor


def _target_tensor(ref: Tensor, values) -> Tensor:
    """Targets as a Tensor of the prediction's (float) dtype, so neither
    int labels nor float64 targets upcast a float32 model."""
    return Tensor(np.asarray(values).astype(ref.dtype, copy=False))


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy; ``labels`` are integer class ids."""
    n, n_classes = logits.shape
    targets = Tensor(one_hot(np.asarray(labels), n_classes).astype(
        logits.dtype, copy=False))
    logp = log_softmax(logits)
    return -(targets * logp).sum() * (1.0 / n)


def mse(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error."""
    return ((pred - _target_tensor(pred, target)) ** 2).mean()


def mae(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean absolute error — the ARDS GRU's training loss."""
    return (pred - _target_tensor(pred, target)).abs().mean()


def l2_regularisation(params, coeff: float) -> Tensor:
    """Kernel/recurrent regularisation term (paper's GRU uses both)."""
    total = None
    for p in params:
        term = (p ** 2).sum()
        total = term if total is None else total + term
    if total is None:
        return Tensor(0.0)
    return total * coeff
