"""NumPy deep-learning framework — the TensorFlow/Keras/pyTorch stand-in.

Reverse-mode autodiff (:mod:`repro.ml.tensor`), layers
(:mod:`repro.ml.layers`, :mod:`repro.ml.rnn`), functional ops
(:mod:`repro.ml.functional`), losses, optimisers, metrics, the data
pipeline with Horovod-style distributed sharding (:mod:`repro.ml.data`),
and the case-study model zoo (:mod:`repro.ml.models`).
"""

from repro.ml.tensor import Tensor
from repro.ml.layers import (
    Parameter,
    Module,
    Dense,
    Conv2D,
    Conv1D,
    BatchNorm,
    Dropout,
    GlobalAvgPool2D,
    he_init,
    xavier_init,
)
from repro.ml.rnn import GRU, GRUCell
from repro.ml.optim import SGD, Adam, Optimizer
from repro.ml.losses import (
    cross_entropy,
    mse,
    mae,
    l2_regularisation,
)
from repro.ml.data import (
    ArrayDataset,
    DataLoader,
    DistributedSampler,
    DistributedDataLoader,
    train_test_split,
)
from repro.ml import functional
from repro.ml import metrics
from repro.ml import models

__all__ = [
    "Tensor",
    "Parameter", "Module", "Dense", "Conv2D", "Conv1D", "BatchNorm",
    "Dropout", "GlobalAvgPool2D", "he_init", "xavier_init",
    "GRU", "GRUCell",
    "SGD", "Adam", "Optimizer",
    "cross_entropy", "mse", "mae",
    "l2_regularisation",
    "ArrayDataset", "DataLoader", "DistributedSampler",
    "DistributedDataLoader", "train_test_split",
    "functional", "metrics", "models",
]
