"""Shared learner plumbing: training matrices and prediction.

Every model exposes ``n_features`` and ``predict_proba(X) -> (n,)``, the
probability that each case is defective.  :func:`predict` turns those
scores into labels with the fixed 0.5 threshold; the tie score 0.5 maps to
defect-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TrainingMatrix:
    """Feature matrix and boolean labels of one training set."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        if self.X.ndim != 2 or self.y.ndim != 1:
            raise ValueError("X must be 2-D and y 1-D")
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError(f"row mismatch: {self.X.shape[0]} features vs {self.y.shape[0]} labels")
        if self.X.shape[0] == 0:
            raise ValueError("training set is empty")

    @property
    def n_rows(self) -> int:
        return int(self.X.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.X.shape[1])


def check_features(model_features: int, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model_features:
        raise ValueError(
            f"feature dimension mismatch: model expects {model_features}, "
            f"got array of shape {X.shape}"
        )
    return X


def predict(model, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Score cases and threshold at 0.5.

    Returns (labels, scores): labels[i] is True (defective) exactly when
    scores[i] > 0.5, so a 0.5 tie predicts defect-free.
    """
    scores = model.predict_proba(X)
    return scores > 0.5, scores
