"""E7 — Sec. IV-A, Fig. 4 B: COVID-Net chest-X-ray analysis.

Regenerates the case study's three quantitative claims:

* a COVID-Net-style CNN reproduces COVID-19 detection on (synthetic)
  COVIDx (accuracy + per-class recall table),
* it generalises to an unseen-hospital external validation set,
* A100-generation training/inference is significantly faster than
  V100-generation ('given its tensor cores').
"""

import numpy as np
import pytest

from repro.core.hardware import NVIDIA_A100, NVIDIA_V100
from repro.datasets import CXR_CLASSES, CxrConfig, SyntheticCovidx
from repro.ml import Adam, Tensor, cross_entropy, train_test_split
from repro.ml.metrics import accuracy, precision_recall_f1
from repro.ml.models import CovidNet

from conftest import bench_quick, emit_table


@pytest.fixture(scope="module")
def covidx():
    gen = SyntheticCovidx(CxrConfig(n_samples=240, image_size=32,
                                    noise_sigma=0.02, seed=0))
    X, y = gen.generate()
    return gen, train_test_split(X, y, test_fraction=0.25, seed=0)


def _train(Xtr, ytr, epochs=None):
    if epochs is None:
        # Quick smoke mode trains a third of the epochs; the assertions
        # below scale their accuracy floors to match.
        epochs = 14 if bench_quick() else 25
    model = CovidNet(base_width=8, n_blocks=2, seed=0)
    opt = Adam(model.parameters(), lr=3e-3)
    idx = np.arange(len(Xtr))
    rng = np.random.default_rng(0)
    for _ in range(epochs):
        rng.shuffle(idx)
        for s in range(0, len(idx), 32):
            b = idx[s:s + 32]
            loss = cross_entropy(model(Tensor(Xtr[b])), ytr[b])
            model.zero_grad()
            loss.backward()
            opt.step()
    return model


@pytest.fixture(scope="module")
def trained(covidx):
    _, (Xtr, Xte, ytr, yte) = covidx
    return _train(Xtr, ytr)


def test_fig4_covidnet_detection(covidx, trained):
    gen, (Xtr, Xte, ytr, yte) = covidx
    pred = trained.predict(Xte)
    scores = precision_recall_f1(pred, yte, 3)
    rows = [[name,
             f"{scores['precision'][i]:.2f}",
             f"{scores['recall'][i]:.2f}",
             f"{scores['f1'][i]:.2f}"]
            for i, name in enumerate(CXR_CLASSES)]
    rows.append(["overall accuracy", "", "", f"{accuracy(pred, yte):.3f}"])
    emit_table("E7/Fig. 4 B — COVID-Net on synthetic COVIDx",
               ["class", "precision", "recall", "F1"], rows)
    quick = bench_quick()
    assert accuracy(pred, yte) > (0.6 if quick else 0.8)
    assert scores["recall"][2] > (0.5 if quick else 0.7)  # COVID sensitivity


def test_fig4_external_generalisation(covidx, trained):
    """'validate that Covid-Net is able to generalize well to unseen
    datasets' (the pharma-collaboration set via B2DROP)."""
    gen, (Xtr, Xte, ytr, yte) = covidx
    Xe, ye = gen.generate_external_validation(90)
    acc_ext = accuracy(trained.predict(Xe), ye)
    acc_int = accuracy(trained.predict(Xte), yte)
    rows = [["held-out (same hospital)", f"{acc_int:.3f}"],
            ["external (unseen hospital)", f"{acc_ext:.3f}"]]
    emit_table("E7 — generalisation to the unseen dataset",
               ["evaluation set", "accuracy"], rows)
    assert acc_ext > (0.45 if bench_quick() else 0.55)


def test_fig4_a100_vs_v100_training_time(trained):
    """Tensor-core generation speedup for training and inference."""
    flops_train_step = 3.0 * 2.0 * trained.n_parameters() * 32 * 32 * 32
    flops_infer = 2.0 * trained.n_parameters() * 32 * 32

    def times():
        out = {}
        for gpu in (NVIDIA_V100, NVIDIA_A100):
            sustained = gpu.tensor_flops * 0.08
            out[gpu.name] = (flops_train_step / sustained,
                             flops_infer / sustained)
        return out

    modelled = times()
    rows = [[name, f"{t_train * 1e6:.1f}", f"{t_inf * 1e6:.2f}"]
            for name, (t_train, t_inf) in modelled.items()]
    speedup = modelled["NVIDIA V100"][0] / modelled["NVIDIA A100"][0]
    rows.append(["A100/V100 speedup", f"{speedup:.1f}x", f"{speedup:.1f}x"])
    emit_table("E7 — GPU-generation time model (batch-32 step / one image)",
               ["GPU", "train step µs", "inference µs"], rows)
    assert speedup == pytest.approx(2.5, rel=0.05)


def test_fig4_dataset_growth_retraining(covidx):
    """Sec. IV-A: COVIDx 'was extended numerous times ... we used again' —
    retraining on a grown dataset keeps accuracy (no regression)."""
    gen, (Xtr, Xte, ytr, yte) = covidx
    extra_gen = SyntheticCovidx(CxrConfig(n_samples=120, image_size=32,
                                          noise_sigma=0.02, seed=99))
    Xn, yn = extra_gen.generate()
    X_grown = np.concatenate([Xtr, Xn])
    y_grown = np.concatenate([ytr, yn])

    model = _train(X_grown, y_grown)
    acc = accuracy(model.predict(Xte), yte)
    emit_table("E7 — retraining after dataset extension",
               ["training set", "test accuracy"],
               [[f"{len(ytr)} images", ""],
                [f"{len(y_grown)} images (extended)", f"{acc:.3f}"]])
    assert acc > (0.55 if bench_quick() else 0.75)
