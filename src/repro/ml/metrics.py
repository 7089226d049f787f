"""Evaluation metrics for the case studies.

Classification (accuracy, confusion matrix, precision/recall/F1 — COVID-Net
and land-cover), multi-label (subset accuracy, micro-F1 — BigEarthNet-style),
and regression (MAE/RMSE/R² — ARDS imputation).
"""

from __future__ import annotations

import numpy as np


def accuracy(pred_labels: np.ndarray, true_labels: np.ndarray) -> float:
    pred_labels = np.asarray(pred_labels)
    true_labels = np.asarray(true_labels)
    if pred_labels.shape != true_labels.shape:
        raise ValueError("shape mismatch")
    if pred_labels.size == 0:
        raise ValueError("empty predictions")
    return float((pred_labels == true_labels).mean())


def confusion_matrix(pred: np.ndarray, true: np.ndarray, n_classes: int) -> np.ndarray:
    pred = np.asarray(pred, dtype=np.int64)
    true = np.asarray(true, dtype=np.int64)
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (true, pred), 1)
    return cm


def precision_recall_f1(
    pred: np.ndarray, true: np.ndarray, n_classes: int
) -> dict[str, np.ndarray]:
    """Per-class precision/recall/F1 (zero-safe)."""
    cm = confusion_matrix(pred, true, n_classes)
    tp = np.diag(cm).astype(np.float64)
    pred_pos = cm.sum(axis=0).astype(np.float64)
    actual_pos = cm.sum(axis=1).astype(np.float64)
    precision = np.divide(tp, pred_pos, out=np.zeros_like(tp), where=pred_pos > 0)
    recall = np.divide(tp, actual_pos, out=np.zeros_like(tp), where=actual_pos > 0)
    denom = precision + recall
    f1 = np.divide(2 * precision * recall, denom,
                   out=np.zeros_like(tp), where=denom > 0)
    return {"precision": precision, "recall": recall, "f1": f1}


def mae_score(pred: np.ndarray, true: np.ndarray) -> float:
    return float(np.abs(np.asarray(pred) - np.asarray(true)).mean())
