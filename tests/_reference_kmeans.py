"""Reference k-means: the per-cluster Lloyd loop the package shipped first.

A copy of the original ``clustering.kmeans`` and its helpers (one full
``n x k`` distance matrix per pass, one Python-level mean per cluster),
with one change: every squared distance is the fixed-order sum
``Σ_f (x_f - c_f)^2``, added over the features in a Python loop, the rule
the package decides by.  The package's bounded, buffered loop must agree
with it bit for bit: same assignments, centroids, iteration count and
inertia history.
"""

from __future__ import annotations

import numpy as np


def _pairwise_sq(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # |x - c|^2 added one feature at a time, in feature order
    d2 = np.zeros((points.shape[0], centers.shape[0]))
    for f in range(points.shape[1]):
        d2 += (points[:, f, None] - centers[None, :, f]) ** 2
    return d2


def _plus_plus_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = _pairwise_sq(points, points[chosen[-1]][None, :])[:, 0]
    while len(chosen) < k:
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            # all remaining points coincide with a chosen centroid
            taken = set(chosen)
            idx = next(i for i in range(n) if i not in taken)
        chosen.append(idx)
        d2 = np.minimum(d2, _pairwise_sq(points, points[idx][None, :])[:, 0])
    return points[chosen].copy()


def _repair_empty(
    points: np.ndarray, assignments: np.ndarray, centroids: np.ndarray, k: int
) -> None:
    """Give each empty cluster the farthest point of the largest cluster."""
    counts = np.bincount(assignments, minlength=k)
    for cid in range(k):
        if counts[cid] > 0:
            continue
        donor = int(np.argmax(counts))
        members = np.flatnonzero(assignments == donor)
        d2 = _pairwise_sq(points[members], centroids[donor][None, :])[:, 0]
        steal = int(members[np.argmax(d2)])
        assignments[steal] = cid
        counts[donor] -= 1
        counts[cid] += 1
        centroids[cid] = points[steal]
        centroids[donor] = points[assignments == donor].mean(axis=0)


def reference_kmeans(points, k, seed, max_iter=100):
    """Cluster points into k groups.

    Points with exactly equal coordinates always land in the same cluster
    (except for single points relocated by empty-cluster repair, which can
    only happen among exact duplicates).  Raises ValueError for k < 1 or
    k > number of points.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("points must be a non-empty 2-D array")
    n = points.shape[0]
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of points ({n})")

    rng = np.random.default_rng(seed)
    centroids = _plus_plus_init(points, k, rng)

    history: list[float] = []
    d2 = _pairwise_sq(points, centroids)
    assignments = d2.argmin(axis=1).astype(np.int64)
    history.append(float(d2[np.arange(n), assignments].sum()))

    iterations = 1
    for _ in range(max_iter - 1):
        for cid in range(k):
            members = assignments == cid
            if members.any():
                centroids[cid] = points[members].mean(axis=0)

        d2 = _pairwise_sq(points, centroids)
        new_assignments = d2.argmin(axis=1).astype(np.int64)
        history.append(float(d2[np.arange(n), new_assignments].sum()))
        iterations += 1
        if np.array_equal(new_assignments, assignments):
            assignments = new_assignments
            break
        assignments = new_assignments

    _repair_empty(points, assignments, centroids, k)
    counts = np.bincount(assignments, minlength=k)
    if counts.min() == 0:
        raise RuntimeError("empty cluster survived repair")

    return assignments, centroids, iterations, tuple(history)
