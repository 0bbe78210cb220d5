"""Prediction metrics and cleaning effect sizes.

F-measure is the harmonic mean of precision and recall, defined as 0 when
either is undefined or 0.  AUC is computed from the Mann-Whitney rank
statistic with average ranks for tied scores, which equals trapezoidal
integration of the ROC curve; it is undefined (None) when the test set has
only one class.  Change rates compare a metric before and after cleaning in
percent of the original value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class ConfusionMatrix:
    """Binary confusion counts; "positive" is the defective class."""

    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @classmethod
    def from_predictions(
        cls, truth: Sequence[bool] | np.ndarray, predicted: Sequence[bool] | np.ndarray
    ) -> "ConfusionMatrix":
        t = np.asarray(truth, dtype=bool)
        p = np.asarray(predicted, dtype=bool)
        if t.shape != p.shape:
            raise ValueError(f"shape mismatch: {t.shape} vs {p.shape}")
        return cls(
            tp=int(np.sum(t & p)),
            fp=int(np.sum(~t & p)),
            tn=int(np.sum(~t & ~p)),
            fn=int(np.sum(t & ~p)),
        )


def precision(cm: ConfusionMatrix) -> float:
    """Fraction of predicted-defective cases that are defective; 0 when
    nothing was predicted defective."""
    denom = cm.tp + cm.fp
    return cm.tp / denom if denom else 0.0


def recall(cm: ConfusionMatrix) -> float:
    """Fraction of defective cases predicted defective; 0 when the test set
    has no defective case."""
    denom = cm.tp + cm.fn
    return cm.tp / denom if denom else 0.0


def f_measure(cm: ConfusionMatrix) -> float:
    """Harmonic mean of precision and recall, 0 in all degenerate cases.

    Total function: always returns a value in [0, 1].
    """
    p = precision(cm)
    r = recall(cm)
    if p + r == 0.0:
        return 0.0
    return 2.0 * p * r / (p + r)


def auc(scores: Sequence[float] | np.ndarray, labels: Sequence[bool] | np.ndarray) -> float | None:
    """Area under the ROC curve via the rank-sum statistic.

    Tied scores receive their average rank, so the result equals the
    trapezoidal area under the ROC curve.  Returns None when the labels are
    all one class.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be equal-length 1-D sequences")
    n = s.size
    n_pos = int(y.sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        return None

    order = np.argsort(s, kind="mergesort")
    sorted_scores = s[order]
    # average rank within each tie group (ranks are 1-based)
    boundaries = np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [n]))
    group_rank = (starts + ends + 1) / 2.0
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(group_rank, ends - starts)

    rank_sum = float(ranks[y].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def change_rate(original: float | None, cleaned: float | None) -> float | None:
    """(cleaned - original) / original in percent, with the zero conventions:
    0 -> 0 counts as 0% change; 0 -> positive is undefined (None), and so is
    a change with either side missing."""
    if original is None or cleaned is None:
        return None
    if original == 0.0:
        return 0.0 if cleaned == 0.0 else None
    return (cleaned - original) / original * 100.0


def average_change(rates: Iterable[float | None]) -> float | None:
    """Mean of the defined change rates; None when none are defined."""
    defined = [r for r in rates if r is not None]
    if not defined:
        return None
    return float(np.mean(defined))
