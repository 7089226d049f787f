"""Case-study model zoo.

The architectures the paper's experiments run:

* :mod:`repro.ml.models.resnet` — residual CNNs (the ResNet-50-class
  land-cover classifier of Sec. III-A, plus scaled-down variants sized for
  laptop execution),
* :mod:`repro.ml.models.covidnet` — a COVID-Net-style CXR classifier
  (Sec. IV-A),
* :mod:`repro.ml.models.gru_forecaster` — the ARDS GRU (2×32 units,
  dropout 0.2, Dense(1); Sec. IV-B) and the 1-D CNN alternative,
* :mod:`repro.ml.models.autoencoder` — the Spark-style autoencoder for RS
  data compression (Sec. III-B, ref [7]),
* :mod:`repro.ml.models.mlp` — a generic MLP baseline.
"""

from repro.ml.models.resnet import (ResidualBlock, ResNet, resnet_small,
    resnet50_config)
from repro.ml.models.covidnet import CovidNet
from repro.ml.models.gru_forecaster import GruForecaster, Cnn1dForecaster
from repro.ml.models.autoencoder import SpectralAutoencoder
from repro.ml.models.mlp import MLP

__all__ = [
    "ResidualBlock",
    "ResNet",
    "resnet_small",
    "resnet50_config",
    "CovidNet",
    "GruForecaster",
    "Cnn1dForecaster",
    "SpectralAutoencoder",
    "MLP",
]
