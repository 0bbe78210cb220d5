"""References for the tree growth kernel.

``reference_grow`` is a plain-loop transcription of the original
per-node, per-feature, per-threshold scan: re-sort each feature's values
at every node, walk the thresholds in order and keep the strictly better
gain ratio.  Entropies come from the same ``k * log2(k)`` table as the
kernel and are combined in the same order, so the two must agree bit for
bit on every tree.

``sorting_grow`` is the vectorized kernel with no counting path: every
node argsorts its candidate features, however many rows it holds.  It is
fast enough to check the kernel on pools of thousands of rows, where the
scalar scan is too slow.
"""

from __future__ import annotations

import numpy as np

from defectclean.learners.tree import GAIN_EPS, LOW, entropy_table


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


def sorting_grow(
    X: np.ndarray,
    y: np.ndarray,
    sample_idx: np.ndarray,
    feature_table,
) -> tuple[np.ndarray, ...]:
    """Same contract and output as ``grow_tree_arrays``, sorting at
    every node."""
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
