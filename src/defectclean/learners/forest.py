"""Random forest of unpruned gain-ratio trees.

Each tree trains on a bootstrap sample and considers a fresh random subset
of floor(log2(d)) + 1 candidate features at every node.  All randomness
comes from per-tree generators derived from (seed, tree index), so the same
seed always yields the same forest regardless of how many trees other runs
drew.  The forest score is the mean of the trees' leaf probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .base import TrainingMatrix, check_features
from .tree import grow_tree_arrays, predict_kernel


def default_feature_count(n_features: int) -> int:
    """Candidate features per split: floor(log2(d)) + 1 (5 for the 20
    standard metrics)."""
    return int(math.floor(math.log2(n_features))) + 1


@dataclass(frozen=True)
class ForestConfig:
    trees: int = 100
    max_features: int | None = None  # None: floor(log2(d)) + 1
    bootstrap: bool = True
    min_node_size: int = 2

    def __post_init__(self) -> None:
        if self.trees < 1:
            raise ValueError("a forest needs at least one tree")
        if self.max_features is not None and self.max_features < 1:
            raise ValueError("max_features must be at least 1")


@dataclass
class RandomForestModel:
    kind = "random_forest"

    n_features: int
    config: ForestConfig
    seed: int
    trees: list[tuple[np.ndarray, ...]]
    train_meta: dict = field(default_factory=dict)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = check_features(self.n_features, X)
        total = np.zeros(X.shape[0], dtype=np.float64)
        for arrays in self.trees:
            total += predict_kernel(*arrays, X)
        scores = total / len(self.trees)
        return np.column_stack([1.0 - scores, scores])

    def to_dict(self) -> dict:
        return {
            "format": 1,
            "kind": self.kind,
            "n_features": self.n_features,
            "config": {
                "trees": self.config.trees,
                "max_features": self.config.max_features,
                "bootstrap": self.config.bootstrap,
                "min_node_size": self.config.min_node_size,
            },
            "seed": self.seed,
            "trees": [
                {
                    "feature": arrays[0].tolist(),
                    "threshold": arrays[1].tolist(),
                    "left": arrays[2].tolist(),
                    "right": arrays[3].tolist(),
                    "n": arrays[4].tolist(),
                    "pos": arrays[5].tolist(),
                }
                for arrays in self.trees
            ],
            "train_meta": self.train_meta,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RandomForestModel":
        trees = [
            (
                np.array(t["feature"], dtype=np.int64),
                np.array(t["threshold"], dtype=np.float64),
                np.array(t["left"], dtype=np.int64),
                np.array(t["right"], dtype=np.int64),
                np.array(t["n"], dtype=np.int64),
                np.array(t["pos"], dtype=np.int64),
            )
            for t in payload["trees"]
        ]
        return cls(
            n_features=payload["n_features"],
            config=ForestConfig(**payload["config"]),
            seed=payload["seed"],
            trees=trees,
            train_meta=dict(payload["train_meta"]),
        )


def _tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    """Independent deterministic substream for one tree."""
    return np.random.default_rng([seed, tree_index])


def train_forest(
    data: TrainingMatrix, config: ForestConfig | None = None, seed: int = 0
) -> RandomForestModel:
    """Fit the ensemble; identical (data, config, seed) gives an identical
    model and identical predictions."""
    config = config or ForestConfig()
    n, d = data.n_rows, data.n_features
    m = min(d, config.max_features or default_feature_count(d))

    X = np.ascontiguousarray(data.X, dtype=np.float64)
    y = data.y
    trees = []
    for t in range(config.trees):
        rng = _tree_rng(seed, t)
        if config.bootstrap:
            sample_idx = rng.integers(0, n, size=n, dtype=np.int64)
        else:
            sample_idx = np.arange(n, dtype=np.int64)
        if m == d:
            feature_table = np.arange(d, dtype=np.int64)[None, :]
        else:
            # one pre-drawn sorted feature subset per possible node id
            perms = np.tile(np.arange(d, dtype=np.int64), (2 * n + 1, 1))
            perms = rng.permuted(perms, axis=1)
            feature_table = np.sort(perms[:, :m], axis=1)
            feature_table = np.ascontiguousarray(feature_table)
        trees.append(
            grow_tree_arrays(X, y, sample_idx, feature_table, config.min_node_size)
        )
    return RandomForestModel(
        n_features=d,
        config=config,
        seed=seed,
        trees=trees,
        train_meta={"n_train": n, "m_features": m},
    )
