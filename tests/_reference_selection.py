"""Reference selection filters: the nearest-neighbour union and the
clustering filter's attach/pick procedure, restated with plain loops.

Every distance is the fixed-order sum ``Σ_f (a_f - b_f)^2`` of
``_pairwise_sq``, added over the features in a Python loop, the rule the
package decides by.  So the filters must agree with these oracles exactly,
distance ties included, on scaled features as on integer ones.
"""

from __future__ import annotations

import numpy as np

from defectclean.clustering import kmeans

from ._reference_kmeans import _pairwise_sq


def knn_union_oracle(pool_m, target_m, k) -> set[int]:
    """Per target case, the k nearest pool rows by (distance, row index)."""
    union: set[int] = set()
    for d2 in _pairwise_sq(target_m, pool_m):
        order = sorted(range(len(pool_m)), key=lambda i: (d2[i], i))
        union.update(order[:k])
    return union


def peters_trace_oracle(pool, target, k_clusters, seed) -> set[int]:
    """Re-derive the attach/pick procedure with plain loops."""
    points = np.vstack([pool.feature_matrix, target.feature_matrix])
    clustering = kmeans(points, k_clusters, seed)
    n_pool = len(pool)
    pool_cl = clustering.assignments[:n_pool]
    target_cl = clustering.assignments[n_pool:]
    d2 = _pairwise_sq(pool.feature_matrix, target.feature_matrix)

    picked: set[int] = set()
    for cid in sorted(set(target_cl.tolist())):
        pool_members = [i for i in range(n_pool) if pool_cl[i] == cid]
        target_members = [t for t in range(len(target_cl)) if target_cl[t] == cid]
        if not pool_members:
            continue
        attached: dict[int, list[int]] = {t: [] for t in target_members}
        for p in pool_members:
            best_t = min(target_members, key=lambda t: (d2[p, t], t))
            attached[best_t].append(p)
        for t, candidates in attached.items():
            if candidates:
                picked.add(min(candidates, key=lambda p: (d2[p, t], p)))
    return picked
