"""Scalar reference for the tree growth kernel.

A plain-loop transcription of the original per-node, per-feature,
per-threshold scan: re-sort each feature's values at every node, walk the
thresholds in order and keep the strictly better gain ratio.  Entropies
come from the same ``k * log2(k)`` table as the kernel and are combined in
the same order, so the two must agree bit for bit on every tree.
"""

from __future__ import annotations

import numpy as np

from defectclean.learners.tree import GAIN_EPS, entropy_table


def reference_grow(X, y, sample_idx, feature_table):
    """Same contract and output as ``grow_tree_arrays``."""
    X = np.asarray(X, dtype=np.float64)
    y = [int(v) for v in np.asarray(y, dtype=np.int64)]
    idx = [int(i) for i in sample_idx]
    table = entropy_table(len(idx)).tolist()
    rows = [[int(f) for f in row] for row in feature_table]

    nodes: dict[int, list] = {}  # id -> [feature, threshold, left, right, n, pos]
    stack = [(0, 0, len(idx))]
    node_count = 1
    while stack:
        node, start, end = stack.pop()
        members = idx[start:end]
        n = len(members)
        pos = sum(y[s] for s in members)
        nodes[node] = [-1, 0.0, -1, -1, n, pos]
        if not 0 < pos < n:
            continue

        best_f, best_t, best_ratio = -1, 0.0, -1.0
        first_f, first_t = -1, 0.0
        for f in rows[node if len(rows) > 1 else 0]:
            ordered = sorted(members, key=lambda s: X[s, f])
            pl = 0
            for i in range(n - 1):
                pl += y[ordered[i]]
                lo, hi = float(X[ordered[i], f]), float(X[ordered[i + 1], f])
                if lo == hi:
                    continue
                threshold = (lo + hi) / 2.0
                if first_f == -1:
                    first_f, first_t = f, threshold
                nl = i + 1
                nr = n - nl
                pr = pos - pl
                n_gain = (table[n] - (table[pos] + table[n - pos])) - (
                    (table[nl] - (table[pl] + table[nl - pl]))
                    + (table[nr] - (table[pr] + table[nr - pr]))
                )
                if n_gain / n > GAIN_EPS:
                    ratio = n_gain / (table[n] - (table[nl] + table[nr]))
                    if ratio > best_ratio:
                        best_f, best_t, best_ratio = f, threshold, ratio
        if best_f == -1:
            best_f, best_t = first_f, first_t
        if best_f == -1:
            continue

        left = [s for s in members if X[s, best_f] <= best_t]
        right = [s for s in members if not X[s, best_f] <= best_t]
        if not right:  # a split that separates nothing leaves a leaf
            continue
        idx[start:end] = left + right
        left_id, right_id = node_count, node_count + 1
        node_count += 2
        nodes[node][:4] = [best_f, best_t, left_id, right_id]
        stack.append((right_id, start + len(left), end))
        stack.append((left_id, start, start + len(left)))

    columns = list(zip(*(nodes[k] for k in range(node_count))))
    dtypes = (np.int64, np.float64, np.int64, np.int64, np.int64, np.int64)
    return tuple(np.array(col, dtype=t) for col, t in zip(columns, dtypes))


def reference_predict(node_feature, node_threshold, node_left, node_right,
                      node_n, node_pos, X):
    """Walk each row to its leaf one at a time; same output as
    ``predict_kernel``."""
    out = np.empty(X.shape[0], dtype=np.float64)
    for r in range(X.shape[0]):
        node = 0
        while node_feature[node] != -1:
            if X[r, node_feature[node]] <= node_threshold[node]:
                node = node_left[node]
            else:
                node = node_right[node]
        out[r] = node_pos[node] / node_n[node]
    return out
