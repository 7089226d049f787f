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
    """Targets as a Tensor without dtype surprises: float targets keep
    their dtype; integer/bool targets adopt the prediction's dtype (so a
    float32 model is not upcast by int labels)."""
    arr = np.asarray(values)
    if arr.dtype.kind != "f":
        arr = arr.astype(ref.dtype if ref.dtype.kind == "f" else np.float64)
    return Tensor(arr)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy; ``labels`` are integer class ids."""
    n, n_classes = logits.shape
    targets = Tensor(one_hot(np.asarray(labels), n_classes))
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
