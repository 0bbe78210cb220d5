"""Shared learner plumbing: training matrices and prediction.

Every model exposes ``n_features`` and ``predict_proba(X) -> (n,)``, the
probability that each case is defective.  :func:`predict` turns those
scores into labels with the fixed 0.5 threshold; the tie score 0.5 maps to
defect-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class RankTable:
    """Dense ranks of every column of a feature matrix.

    Each column's sorted distinct floats fill one slice of ``values``,
    column after column; ``feature`` names the column of every slot, and
    ``offsets[f]`` is where column f's slice starts (``offsets[d]`` is the
    total).  ``codes[row, f]`` is the slot of ``X[row, f]``, so two rows
    share a code exactly when their values compare equal, and codes order
    as the values do.  All arrays are read-only.
    """

    codes: np.ndarray  # (n, d) int64
    values: np.ndarray  # (offsets[d],) float64
    feature: np.ndarray  # (offsets[d],) int64
    offsets: np.ndarray  # (d + 1,) int64

    @classmethod
    def of(cls, X: np.ndarray) -> RankTable:
        columns = [np.unique(column, return_inverse=True) for column in X.T]
        sizes = [values.size for values, _ in columns]
        offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        table = cls(
            np.stack([inverse for _, inverse in columns], axis=1) + offsets[:-1],
            np.concatenate([values for values, _ in columns]),
            np.repeat(np.arange(len(sizes), dtype=np.int64), sizes),
            offsets,
        )
        for array in (table.codes, table.values, table.feature, table.offsets):
            array.flags.writeable = False
        return table


def _reject_nan(X: np.ndarray) -> None:
    if np.isnan(X).any():
        raise ValueError("features hold NaN")


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
        if self.X.shape[1] == 0:
            raise ValueError("training set has no features")
        _reject_nan(self.X)

    @property
    def n_rows(self) -> int:
        return int(self.X.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.X.shape[1])

    @cached_property
    def ranks(self) -> RankTable:
        """The rank table of ``X``, built on first use and then shared by
        every tree trained on this matrix."""
        return RankTable.of(self.X)


def check_features(model_features: int, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model_features:
        raise ValueError(
            f"feature dimension mismatch: model expects {model_features}, "
            f"got array of shape {X.shape}"
        )
    _reject_nan(X)
    return X


def predict(model, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Score cases and threshold at 0.5.

    Returns (labels, scores): labels[i] is True (defective) exactly when
    scores[i] > 0.5, so a 0.5 tie predicts defect-free.
    """
    scores = model.predict_proba(X)
    return scores > 0.5, scores
