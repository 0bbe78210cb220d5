"""Gain-ratio decision tree with pessimistic-error pruning.

Splits are binary numeric tests ``x[f] <= t`` with thresholds at midpoints
between sorted distinct values.  The split maximising gain ratio wins; ties
go to the lower feature index, then the lower threshold.  A node becomes a
leaf when it is pure or has no separating threshold at all.  It also
becomes a leaf when the chosen threshold separates nothing: the midpoint of
two adjacent floats can round up onto the upper value (and the midpoint
with ``inf`` is ``inf``), so when that value is the node's largest,
``x <= t`` holds for every row.  When every candidate has zero information
gain but the node is still impure (classic example: an XOR-style pattern),
the first candidate (lowest feature, lowest threshold) is taken instead of
giving up, so consistent training data is always fit exactly.

Pruning replaces a subtree by a leaf when the leaf's pessimistic error
estimate (continuity-corrected upper confidence bound at
:data:`CONFIDENCE`) does not exceed the sum over the subtree's leaves;
the nodes below a collapsed subtree are then dropped from the arrays.
Subtree raising is not performed.

Growth is one numpy kernel over the distinct sampled rows, each weighted
by its sample count and its defective count.  Instead of presorting every
feature once per tree and partitioning all sorted lists at every split (as
SLIQ, Mehta et al. 1996, and SPRINT, Shafer et al. 1996, do), each node
argsorts only its candidate features over its own rows and scores only the
gaps where adjacent sorted values differ.  This is exact: copies of a row
share every value, so the prefix sums of the weights at a gap count every
tie whatever order ties were sorted in, and each gap of a per-sample scan
maps to one gap here, in the same row-major (feature, threshold) order.
Entropies come from integer class counts through one ``k * log2(k)``
table (the count form of C4.5, Quinlan 1993), so any code path that
combines the same table entries in the same order makes bit-identical
choices.  Nodes are numbered depth-first, left child first; random forests
key their per-node feature subsets by that number.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from .base import TrainingMatrix, check_features

#: gains at or below this are treated as zero (float noise from entropy sums)
GAIN_EPS = 1e-12

#: mask of the defective count in a packed per-row weight
LOW = (1 << 32) - 1

#: confidence of the pessimistic error bound used in pruning (C4.5's default)
CONFIDENCE = 0.25


def entropy_table(n: int) -> np.ndarray:
    """``T[k] = k * log2(k)`` for ``k = 0..n`` (``T[0] = 0``).

    ``n * H(p / n) = T[n] - (T[p] + T[n - p])``, so every entropy comes
    from integer counts through one table, and any code path that combines
    the same entries in the same order gets the same bits.
    """
    table = np.zeros(n + 1, dtype=np.float64)
    k = np.arange(1, n + 1, dtype=np.float64)
    table[1:] = k * np.log2(k)
    return table


def predict_kernel(node_feature, node_threshold, node_left, node_right,
                   node_n, node_pos, X):
    """Walk every row of ``X`` to its leaf, one tree level per numpy step,
    and return the leaves' defective fractions."""
    node = np.zeros(X.shape[0], dtype=np.int64)
    rows = np.flatnonzero(node_feature[node] != -1)
    while rows.size:
        at = node[rows]
        go_left = X[rows, node_feature[at]] <= node_threshold[at]
        node[rows] = np.where(go_left, node_left[at], node_right[at])
        rows = rows[node_feature[node[rows]] != -1]
    return node_pos[node] / node_n[node]


def _pessimistic_errors(n: int, errors: int, z: float) -> float:
    """Continuity-corrected upper confidence bound on the error count."""
    f = min(1.0, (errors + 0.5) / n)
    bound = (
        f
        + z * z / (2.0 * n)
        + z * math.sqrt(f * (1.0 - f) / n + z * z / (4.0 * n * n))
    ) / (1.0 + z * z / n)
    return n * min(1.0, bound)


def prune_tree(node_feature, node_threshold, node_left, node_right,
               node_n, node_pos) -> tuple[np.ndarray, ...]:
    """Collapse subtrees whose pessimistic error a single leaf can match.

    Works bottom-up in place; collapsed internal nodes become leaves.
    Children are numbered after their parent, so one pass from the last
    node to the root sees every subtree before its root.  Returns the
    arrays of the nodes still reachable, in their old order, with the
    child ids renumbered.
    """
    z = statistics.NormalDist().inv_cdf(1.0 - CONFIDENCE)
    estimate = np.empty(node_feature.shape[0], dtype=np.float64)
    for node in range(node_feature.shape[0] - 1, -1, -1):
        n = int(node_n[node])
        leaf_errors = min(int(node_pos[node]), n - int(node_pos[node]))
        estimate[node] = _pessimistic_errors(n, leaf_errors, z)
        if node_feature[node] == -1:
            continue
        subtree = estimate[int(node_left[node])] + estimate[int(node_right[node])]
        if estimate[node] <= subtree:
            node_feature[node] = -1
            node_threshold[node] = 0.0
            node_left[node] = -1
            node_right[node] = -1
        else:
            estimate[node] = subtree

    keep = np.zeros(node_feature.shape[0], dtype=bool)
    level = np.zeros(1, dtype=np.int64)
    while level.size:
        keep[level] = True
        inner = level[node_feature[level] != -1]
        level = np.concatenate([node_left[inner], node_right[inner]])
    new_id = np.cumsum(keep) - 1
    leaf = node_feature[keep] == -1
    left, right = (np.where(leaf, -1, new_id[a[keep]]) for a in (node_left, node_right))
    return (node_feature[keep], node_threshold[keep], left, right,
            node_n[keep], node_pos[keep])


@dataclass
class TreeModel:
    """One tree or a forest: each tree is its node arrays (feature,
    threshold, left, right, n, pos), and a case's score is the mean of the
    defective fractions of the leaves it reaches."""

    n_features: int
    trees: list[tuple[np.ndarray, ...]]

    @property
    def node_count(self) -> int:
        return sum(int(tree[0].shape[0]) for tree in self.trees)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = check_features(self.n_features, X)
        total = np.zeros(X.shape[0], dtype=np.float64)
        for arrays in self.trees:
            total += predict_kernel(*arrays, X)
        return total / len(self.trees)


def grow_tree_arrays(
    X: np.ndarray,
    y: np.ndarray,
    sample_idx: np.ndarray,
    feature_table,
) -> tuple[np.ndarray, ...]:
    """Grow a tree over the samples ``sample_idx`` (duplicates allowed).

    ``feature_table[j]`` holds the sorted candidate feature indices for
    node j; a single-row table is shared by all nodes.  Returns the node
    arrays (feature, threshold, left, right, n, pos), numbered depth-first
    with the left child first.  Leaves have ``feature == -1``.
    """
    rows, counts = np.unique(sample_idx, return_counts=True)
    columns = np.ascontiguousarray(np.asarray(X, dtype=np.float64)[rows].T)
    n = int(sample_idx.shape[0])
    if n >= 1 << 31:
        raise ValueError(f"{n} samples: the packed class counts hold at most 2**31 - 1")
    # one int64 per distinct row: its sample count in the high 32 bits and
    # its defective count in the low 32, so one cumsum gives both prefixes
    weights = (counts << 32) | (counts * np.asarray(y, dtype=np.int64)[rows])
    table = entropy_table(n)
    # each node owns a contiguous [start, end) segment of the distinct rows
    members = np.arange(rows.shape[0])

    cap = 2 * rows.shape[0] + 1
    node_feature, node_left, node_right = (np.full(cap, -1, dtype=np.int64) for _ in range(3))
    node_threshold = np.zeros(cap, dtype=np.float64)
    node_n, node_pos = np.empty(cap, dtype=np.int64), np.empty(cap, dtype=np.int64)

    stack = [(0, 0, rows.shape[0], n, int(weights.sum()) & LOW)]
    node_count = 1
    while stack:
        node, start, end, n_node, pos = stack.pop()
        node_n[node], node_pos[node] = n_node, pos
        if not 0 < pos < n_node:
            continue

        feats = feature_table[node if len(feature_table) > 1 else 0]
        segment = members[start:end]
        values = columns[feats[:, None], segment]
        # ties may come out in any order: the class counts below are taken
        # only where the value changes, and there they count every tie
        order = values.argsort(axis=1)
        values = values.ravel()[order + np.arange(0, values.size, end - start)[:, None]]
        # separating gaps as flat row-major indices into (features, gaps)
        cand = np.flatnonzero(values[:, :-1] != values[:, 1:])
        if not cand.size:
            continue
        ranked = segment[order]
        sums = np.cumsum(weights[ranked], axis=1)
        left = sums.ravel()[cand + cand // (end - start - 1)]
        nl = left >> 32
        pl = left & LOW
        nr = n_node - nl
        pr = pos - pl
        # n * gain and n * split info; each pair of terms is added before it
        # is subtracted, so mirror-image splits (children swapped) tie
        # exactly and the lower feature wins them
        n_gain = (table[n_node] - (table[pos] + table[n_node - pos])) - (
            (table[nl] - (table[pl] + table[nl - pl]))
            + (table[nr] - (table[pr] + table[nr - pr]))
        )
        informative = n_gain / n_node > GAIN_EPS
        if informative.any():
            n_split = table[n_node] - (table[nl] + table[nr])
            # first maximum in row-major order: lowest feature, then lowest
            # threshold, as a strict ``>`` scan would pick
            best = int(np.argmax(np.where(informative, n_gain / n_split, -1.0)))
        else:
            # impure node where every split is uninformative: take the
            # first separating candidate rather than stopping short
            best = 0
        row, i = divmod(int(cand[best]), end - start - 1)
        best_f = int(feats[row])
        best_t = (values[row, i] + values[row, i + 1]) / 2.0

        # the left child is the sorted prefix with x <= t: i + 1 rows,
        # unless the midpoint rounded up onto the next value
        n_left = int(np.searchsorted(values[row], best_t, side="right"))
        if n_left == end - start:
            # it rounded onto the largest value (or the upper value is inf):
            # x <= t holds for every row, so the split separates nothing
            continue
        members[start:end] = ranked[row]
        left_sums = int(sums[row, n_left - 1]) if n_left else 0
        left_n, left_p = left_sums >> 32, left_sums & LOW

        left_id, right_id = node_count, node_count + 1
        node_count += 2
        node_feature[node], node_threshold[node] = best_f, best_t
        node_left[node], node_right[node] = left_id, right_id
        stack.append((right_id, start + n_left, end, n_node - left_n, pos - left_p))
        stack.append((left_id, start, start + n_left, left_n, left_p))

    return tuple(a[:node_count].copy() for a in (
        node_feature, node_threshold, node_left, node_right, node_n, node_pos))


def train_tree(data: TrainingMatrix) -> TreeModel:
    """Grow and prune a tree on the full training set."""
    feature_table = np.arange(data.n_features, dtype=np.int64)[None, :]
    arrays = grow_tree_arrays(
        data.X, data.y, np.arange(data.n_rows, dtype=np.int64), feature_table,
    )
    return TreeModel(data.n_features, [prune_tree(*arrays)])
