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
by its sample count and its defective count.  A node scores its candidate
splits in one of two exact ways.  A small node argsorts only its candidate
features over its own rows and scores only the gaps where adjacent sorted
values differ: copies of a row share every value, so the prefix sums of
the weights at a gap count every tie whatever order ties were sorted in,
and each gap of a per-sample scan maps to one gap here, in the same
row-major (feature, threshold) order.  A big node, one whose distinct rows
times its candidate features reach :data:`COUNT_ROWS_PER_VALUE` times the
distinct values of all features, reads its splits off exact integer
class counts per (feature, value) instead.  Those are kept over the slots
of the training matrix's :class:`~.base.RankTable`, which is built once
per matrix and shared by every tree grown on it.  A split counts only its
smaller child with ``np.bincount``; the larger child is the parent minus
the smaller (the class histograms of SLIQ, Mehta et al. 1996, with the
histogram subtraction of LightGBM, Ke et al. 2017).  The prefix counts at
the values present in the node are the integers a sorted scan reads at
its gaps, in the same (feature, value) order, and the threshold is the
midpoint of the same two floats, so both ways choose the same split.
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

from .base import RankTable, TrainingMatrix, check_features

#: gains at or below this are treated as zero (float noise from entropy sums)
GAIN_EPS = 1e-12

#: mask of the defective count in a packed per-row weight
LOW = (1 << 32) - 1

#: confidence of the pessimistic error bound used in pruning (C4.5's default)
CONFIDENCE = 0.25

#: a node counts its classes per (feature, value) instead of sorting once
#: its distinct rows times its candidate features reach this many times the
#: distinct values of all features: counting touches every feature's values
#: (the histogram is kept for all of them, for the subtraction), sorting
#: only the candidates' rows.  So a pruned tree counts from 2 rows per value
#: of an average feature, and a forest tree with 5 of 20 candidates from 8.
#: Tuned per tree on the cap-40 and cap-500 pools of ``ant1.7`` in the
#: seed-0 benchmark twin, as is and jittered to about 480 and 2,000 values
#: per feature (2-core Xeon, one BLAS thread); every value gives the same
#: trees.  1 made the forest trees of 334-row pools about 9 % slower; 3 and
#: 4 gave up part of the gain at 480 values (forest trees 1.3x and 1.1x
#: faster instead of 1.7x) and at 2,000 (pruned trees 2.4x and 2.1x
#: instead of 2.8x)
COUNT_ROWS_PER_VALUE = 2


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


def _best_candidate(nl, pl, n_node: int, pos: int, table: np.ndarray) -> int:
    """Index of the winning candidate among the left-child class counts
    ``(nl, pl)`` of a node's candidate splits, in row-major order."""
    nr = n_node - nl
    pr = pos - pl
    tl, tr = table[nl], table[nr]
    # n * gain and n * split info; each pair of terms is added before it
    # is subtracted, so mirror-image splits (children swapped) tie
    # exactly and the lower feature wins them
    n_gain = (table[n_node] - (table[pos] + table[n_node - pos])) - (
        (tl - (table[pl] + table[nl - pl]))
        + (tr - (table[pr] + table[nr - pr]))
    )
    informative = n_gain / n_node > GAIN_EPS
    if not informative.any():
        # impure node where every split is uninformative: take the
        # first separating candidate rather than stopping short
        return 0
    n_split = table[n_node] - (tl + tr)
    # first maximum in row-major order: lowest feature, then lowest
    # threshold, as a strict ``>`` scan would pick
    return int(np.argmax(np.where(informative, n_gain / n_split, -1.0)))


class _Histograms:
    """Exact class counts per (feature, value) over the distinct rows of
    one tree, laid out as the slots of a :class:`RankTable`: row 0 of a
    histogram counts samples, row 1 defective samples."""

    def __init__(self, ranks: RankTable, rows: np.ndarray, counts: np.ndarray,
                 labels: np.ndarray) -> None:
        self.ranks = ranks
        # a defective row's codes point into a second copy of the slots,
        # so one bincount counts both classes
        self.codes = ranks.codes[rows] + (labels * ranks.values.size)[:, None]
        # float weights, which bincount sums exactly, as every count is
        # below 2**53; none when every row is drawn once (the pruned tree)
        self.weights = None if counts.max() == 1 else counts.astype(np.float64)

    def count(self, positions) -> np.ndarray:
        """The histogram of the distinct rows at ``positions`` (an index
        array, or ``slice(None)`` for all of them without a copy)."""
        codes = self.codes[positions]
        weights = None if self.weights is None else np.repeat(self.weights[positions], codes.shape[1])
        hist = np.bincount(codes.ravel(), weights, 2 * self.ranks.values.size)
        hist = hist.astype(np.int64).reshape(2, -1)
        hist[0] += hist[1]
        return hist

    def children(self, hist: np.ndarray, left: np.ndarray, right: np.ndarray,
                 want_left: bool, want_right: bool) -> tuple[np.ndarray | None, ...]:
        """The histograms of a split's children over the rows at ``left``
        and ``right``, each None unless wanted.  Only the smaller child is
        counted; the larger one is the parent minus it."""
        if not (want_left or want_right):
            return None, None
        if left.size <= right.size:
            hist_left = self.count(left)
            hist_right = hist - hist_left
        else:
            hist_right = self.count(right)
            hist_left = hist - hist_right
        return hist_left if want_left else None, hist_right if want_right else None

    def split(self, hist: np.ndarray, feats: np.ndarray, n_node: int, pos: int,
              table: np.ndarray) -> tuple[int, float, int, int] | None:
        """The node's best feature and threshold and the left child's
        (n, pos), or None when no candidate feature separates its rows.

        Prefix sums at the slots present in the node are the counts a
        sorted scan takes at its gaps, in the same (feature, value) order.
        """
        ranks = self.ranks
        # running (n, pos) within each feature: every feature's slots
        # count all of the node's samples, so those of the features before
        # it add up to a whole multiple of (n_node, pos)
        within = np.cumsum(hist, axis=1) - np.multiply.outer((n_node, pos), ranks.feature)
        # a gap follows every present value except the feature's largest
        gap = (hist[0] > 0) & (within[0] < n_node)
        if feats.size < ranks.offsets.size - 1:
            chosen = np.zeros(ranks.offsets.size - 1, dtype=bool)
            chosen[feats] = True
            gap &= chosen[ranks.feature]
        cand = np.flatnonzero(gap)
        if not cand.size:
            return None
        nl, pl = within[:, cand]
        lo = int(cand[_best_candidate(nl, pl, n_node, pos, table)])
        best_f = int(ranks.feature[lo])
        start, end = int(ranks.offsets[best_f]), int(ranks.offsets[best_f + 1])
        hi = lo + 1 + int(np.argmax(hist[0, lo + 1:end] > 0))
        best_t = (ranks.values[lo] + ranks.values[hi]) / 2.0
        # x <= t holds below slot ``cut``: the midpoint may round onto the
        # upper value, or be inf
        cut = start + int(np.searchsorted(ranks.values[start:end], best_t, side="right"))
        return best_f, best_t, int(within[0, cut - 1]), int(within[1, cut - 1])


def grow_tree_arrays(
    X: np.ndarray,
    y: np.ndarray,
    sample_idx: np.ndarray,
    feature_table,
    ranks: RankTable | None = None,
) -> tuple[np.ndarray, ...]:
    """Grow a tree over the samples ``sample_idx`` (duplicates allowed).

    ``feature_table[j]`` holds the sorted candidate feature indices for
    node j; a single-row table is shared by all nodes.  ``ranks`` is the
    rank table of ``X`` (built here when not given).  Returns the node
    arrays (feature, threshold, left, right, n, pos), numbered depth-first
    with the left child first.  Leaves have ``feature == -1``.
    """
    X = np.asarray(X, dtype=np.float64)
    rows, counts = np.unique(sample_idx, return_counts=True)
    columns = np.ascontiguousarray(X[rows].T)
    n = int(sample_idx.shape[0])
    if n >= 1 << 31:
        raise ValueError(f"{n} samples: the packed class counts hold at most 2**31 - 1")
    labels = np.asarray(y, dtype=np.int64)[rows]
    defective = counts * labels
    # one int64 per distinct row: its sample count in the high 32 bits and
    # its defective count in the low 32, so one cumsum gives both prefixes
    weights = (counts << 32) | defective
    table = entropy_table(n)
    # each node owns a contiguous [start, end) segment of the distinct rows
    members = np.arange(rows.shape[0])

    if ranks is None:
        ranks = RankTable.of(X)
    # counting covers every feature's slots, sorting only the candidates
    big = COUNT_ROWS_PER_VALUE * ranks.values.size / len(feature_table[0])
    counting = root_hist = None
    if rows.shape[0] >= big:
        counting = _Histograms(ranks, rows, counts, labels)
        root_hist = counting.count(slice(None))

    cap = 2 * rows.shape[0] + 1
    node_feature, node_left, node_right = (np.full(cap, -1, dtype=np.int64) for _ in range(3))
    node_threshold = np.zeros(cap, dtype=np.float64)
    node_n, node_pos = np.empty(cap, dtype=np.int64), np.empty(cap, dtype=np.int64)

    stack = [(0, 0, rows.shape[0], n, int(defective.sum()), root_hist)]
    node_count = 1
    while stack:
        node, start, end, n_node, pos, hist = stack.pop()
        node_n[node], node_pos[node] = n_node, pos
        if not 0 < pos < n_node:
            continue

        feats = feature_table[node if len(feature_table) > 1 else 0]
        segment = members[start:end]
        if hist is not None:
            found = counting.split(hist, feats, n_node, pos, table)
            if found is None:
                continue
            best_f, best_t, left_n, left_p = found
            if left_n == n_node:
                # x <= t holds for every row, as in the sorted case below
                continue
            goes_left = columns[best_f, segment] <= best_t
            n_left = int(np.count_nonzero(goes_left))
            members[start:end] = np.concatenate((segment[goes_left], segment[~goes_left]))
            hist_left, hist_right = counting.children(
                hist, members[start:start + n_left], members[start + n_left:end],
                n_left >= big and 0 < left_p < left_n,
                end - start - n_left >= big and 0 < pos - left_p < n_node - left_n,
            )
        else:
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
            best = _best_candidate(left >> 32, left & LOW, n_node, pos, table)
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
            hist_left = hist_right = None

        left_id, right_id = node_count, node_count + 1
        node_count += 2
        node_feature[node], node_threshold[node] = best_f, best_t
        node_left[node], node_right[node] = left_id, right_id
        stack.append((right_id, start + n_left, end, n_node - left_n, pos - left_p, hist_right))
        stack.append((left_id, start, start + n_left, left_n, left_p, hist_left))

    return tuple(a[:node_count].copy() for a in (
        node_feature, node_threshold, node_left, node_right, node_n, node_pos))


def train_tree(data: TrainingMatrix) -> TreeModel:
    """Grow and prune a tree on the full training set."""
    feature_table = np.arange(data.n_features, dtype=np.int64)[None, :]
    arrays = grow_tree_arrays(
        data.X, data.y, np.arange(data.n_rows, dtype=np.int64), feature_table, data.ranks,
    )
    return TreeModel(data.n_features, [prune_tree(*arrays)])
