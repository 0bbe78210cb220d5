"""Random forest of unpruned gain-ratio trees.

Each tree trains on a bootstrap sample and considers a fresh random subset
of floor(log2(d)) + 1 candidate features at every node.  All randomness
comes from per-tree generators derived from (seed, tree index), so the same
seed always yields the same forest regardless of how many trees other runs
drew.  A tree's generator draws its bootstrap sample, then its per-node
feature subsets, lazily (:class:`FeatureSubsets`).  The forest is a
:class:`~.tree.TreeModel` of the grown trees, so its score is the mean of
the trees' leaf probabilities.
"""

from __future__ import annotations

import math

import numpy as np

from .base import TrainingMatrix
from .tree import TreeModel, grow_tree_arrays


def default_feature_count(n_features: int) -> int:
    """Candidate features per split: floor(log2(d)) + 1 (5 for the 20
    standard metrics)."""
    return int(math.floor(math.log2(n_features))) + 1


class FeatureSubsets:
    """One sorted random subset of ``m`` of ``d`` features per node id.

    Row j is the sorted first ``m`` entries of row j of one ``rng.permuted``
    call over ``rows`` copies of ``range(d)``.  The generator permutes row
    after row, so consecutive chunks draw the same rows, and a tree reads
    only up to its highest node id: rows are drawn on first use, in
    doubling chunks, and the rest (most of ``2n + 1``) never are.
    """

    def __init__(self, rng: np.random.Generator, d: int, m: int, rows: int) -> None:
        self.rng, self.d = rng, d
        self.table = np.empty((rows, m), dtype=np.int64)
        self.drawn = 0

    def __len__(self) -> int:
        return self.table.shape[0]

    def __getitem__(self, node: int) -> np.ndarray:
        if node >= self.drawn:
            self.draw_to(min(len(self), max(node + 1, 2 * self.drawn, 256)))
        return self.table[node]

    def draw_to(self, rows: int) -> None:
        """Draw every row below ``rows`` (which must be at least ``drawn``)."""
        perms = np.tile(np.arange(self.d, dtype=np.int64), (rows - self.drawn, 1))
        perms = self.rng.permuted(perms, axis=1)
        self.table[self.drawn:rows] = np.sort(perms[:, :self.table.shape[1]], axis=1)
        self.drawn = rows


def _tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    """Independent deterministic substream for one tree."""
    return np.random.default_rng([seed, tree_index])


def train_forest(data: TrainingMatrix, trees: int = 100, seed: int = 0) -> TreeModel:
    """Fit the ensemble; identical (data, trees, seed) gives an identical
    model and identical predictions."""
    if trees < 1:
        raise ValueError("a forest needs at least one tree")
    n, d = data.n_rows, data.n_features
    m = default_feature_count(d)

    grown = []
    for t in range(trees):
        rng = _tree_rng(seed, t)
        sample_idx = rng.integers(0, n, size=n, dtype=np.int64)
        feature_table = FeatureSubsets(rng, d, m, rows=2 * n + 1)
        # unpruned: only pure nodes and unsplittable ones stop the growth
        grown.append(grow_tree_arrays(data.ranks, data.y, sample_idx, feature_table))
    return TreeModel(d, grown)
