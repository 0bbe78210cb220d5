"""Defect prediction learners: naive Bayes, decision tree, random forest."""

from .base import TrainingMatrix, predict
from .forest import default_feature_count, train_forest
from .naive_bayes import FeatureTooLargeError, GaussianNBModel, train_naive_bayes
from .tree import TreeModel, train_tree

#: learner names accepted by the experiment harness and CLI
LEARNER_NAMES = ("naive_bayes", "decision_tree", "random_forest")


def train(
    name: str, data: TrainingMatrix, seed: int = 0, trees: int = 100
) -> GaussianNBModel | TreeModel:
    """Train one learner by name (only the forest consumes the seed and the
    tree count)."""
    if name == "naive_bayes":
        return train_naive_bayes(data)
    if name == "decision_tree":
        return train_tree(data)
    if name == "random_forest":
        return train_forest(data, trees, seed=seed)
    raise ValueError(f"unknown learner {name!r}; expected one of {LEARNER_NAMES}")


__all__ = [
    "TrainingMatrix",
    "FeatureTooLargeError",
    "GaussianNBModel",
    "TreeModel",
    "LEARNER_NAMES",
    "train",
    "train_naive_bayes",
    "train_tree",
    "train_forest",
    "default_feature_count",
    "predict",
]
