"""Gaussian naive Bayes for binary defect labels.

Per-class feature means and (population) variances with a small variance
floor, Laplace-smoothed class priors, and log-space scoring with
max-subtraction so extreme densities cannot overflow.  Training on a
single-class sample yields a degenerate model that predicts that class
with probability 1.  Scores are the defective class's posterior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import TrainingMatrix, check_features

#: lower bound applied to per-feature variances
VARIANCE_FLOOR = 1e-9


class FeatureTooLargeError(ValueError):
    """A finite feature too large for naive Bayes: its squares overflow the
    class variances or a case's log-likelihoods.  ``column`` is the
    feature's index, so that a caller can name the feature."""

    def __init__(self, message: str, column: int) -> None:
        super().__init__(message)
        self.column = column


def _require_finite(X: np.ndarray) -> None:
    if not np.isfinite(X).all():
        raise ValueError("naive Bayes needs finite features")


@dataclass
class GaussianNBModel:
    n_features: int
    log_prior: np.ndarray  # shape (2,): [defect-free, defective]
    means: np.ndarray | None  # shape (2, d); None for single-class models
    variances: np.ndarray | None
    single_class: bool

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = check_features(self.n_features, X)
        _require_finite(X)
        n = X.shape[0]
        if self.single_class:
            return np.full(n, float(np.argmax(self.log_prior)))
        # log joint = log prior + sum of per-feature log densities
        log_joint = np.empty((n, 2), dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            for c in range(2):
                diff = X - self.means[c]
                log_joint[:, c] = self.log_prior[c] - 0.5 * np.sum(
                    np.log(2.0 * np.pi * self.variances[c]) + diff * diff / self.variances[c],
                    axis=1,
                )
        bad = np.flatnonzero(~np.isfinite(log_joint).all(axis=1))
        if bad.size:
            # the feature whose per-class term is largest; a term is finite
            # or +inf, so the first infinite one when there is one
            with np.errstate(over="ignore"):
                diff = X[bad[0]] - self.means
                terms = np.log(2.0 * np.pi * self.variances) + diff * diff / self.variances
            column = int(np.argmax(terms.max(axis=0)))
            raise FeatureTooLargeError(
                f"naive Bayes log-likelihoods of case {bad[0]} are not finite: "
                f"feature {column} is too large", column,
            )
        shifted = log_joint - log_joint.max(axis=1, keepdims=True)
        likel = np.exp(shifted)
        return likel[:, 1] / likel.sum(axis=1)


def train_naive_bayes(data: TrainingMatrix) -> GaussianNBModel:
    """Fit class-conditional Gaussians with Laplace-smoothed priors."""
    _require_finite(data.X)
    n = data.n_rows
    counts = np.array([int(np.sum(~data.y)), int(np.sum(data.y))])
    log_prior = np.log((counts + 1.0) / (n + 2.0))

    if counts.min() == 0:
        return GaussianNBModel(
            n_features=data.n_features,
            log_prior=log_prior,
            means=None,
            variances=None,
            single_class=True,
        )

    means = np.empty((2, data.n_features), dtype=np.float64)
    variances = np.empty((2, data.n_features), dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        for c, mask in enumerate((~data.y, data.y)):
            rows = data.X[mask]
            means[c] = rows.mean(axis=0)
            variances[c] = np.maximum(rows.var(axis=0), VARIANCE_FLOOR)
    bad = np.flatnonzero(~(np.isfinite(means).all(axis=0) & np.isfinite(variances).all(axis=0)))
    if bad.size:
        raise FeatureTooLargeError(
            f"naive Bayes class means and variances of feature {bad[0]} are not finite: "
            "the feature is too large", int(bad[0]),
        )
    return GaussianNBModel(
        n_features=data.n_features,
        log_prior=log_prior,
        means=means,
        variances=variances,
        single_class=False,
    )
