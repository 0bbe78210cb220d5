"""Seeded k-means (Lloyd iterations with k-means++ style initialisation).

Deterministic for a given (points, k, seed): randomness is confined to
initial centroid choice, assignment ties go to the lowest cluster id, and
empty clusters are repaired by moving the farthest point out of the largest
cluster.  The within-cluster squared-distance objective never increases
from one iteration to the next.

The Lloyd loop repeats no work that does not depend on the centroids and
allocates no ``n x k`` array:

* ``|x|^2`` and ``-2 x`` are computed once per call.  Scaling by a power of
  two is exact, so ``(|x|^2 + |c|^2) + (-2 x) . c`` rounds exactly like
  ``(|x|^2 + |c|^2) - 2 x . c``, and the clip at 0 (which decides ties
  between coincident centroids) sees the same values.
* Points are assigned in row blocks of about ``_ASSIGN_BLOCK_CELLS``
  distances, written into two block-sized buffers allocated once per call.
  A block stays in cache across the add, matmul, add, clip, argmin and
  gather that pass over it, where two ``n x k`` buffers made each of those
  a trip to main memory.  Each row's nearest centroid and its distance go
  into two n-vectors; the inertia is the sum of the distance vector, so it
  adds the same values in the same order whatever the block size.
* The centroid update takes cluster sizes and per-feature sums from
  ``np.bincount``.  A weighted bincount adds each cluster's members in row
  order starting from 0.0, which is how numpy's mean over the rows of a
  C-ordered ``(m, d)`` array adds them when ``d >= 2``.

So for two or more features every assignment, centroid, iteration count
and inertia is bit-identical to the plain loop that computes each
cluster's mean on its own (kept as a test oracle), at every block size.
With a single feature numpy sums a cluster's column pairwise instead, so
centroids may differ from that loop in the last bit.

Distance blocks never hold a single row (:func:`_blocks`): a one-row
product goes through BLAS gemv instead of gemm and rounds differently in
the last bit, which would let the block layout decide distance ties.  The
selection filters block their distances by the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: distances per k-means assignment block.  Sized to the cache: two
#: float64 buffers of 2**15 cells take 512 KB, well inside a 2 MB L2.  On
#: the ``select`` benchmark's two k-means inputs (2-core Xeon, one BLAS
#: thread) 2**12 to 2**17 cells gave the same bits and 2**15 was fastest
_ASSIGN_BLOCK_CELLS = 1 << 15


@dataclass(frozen=True)
class Clustering:
    """Result of one k-means run."""

    k: int
    assignments: np.ndarray
    centroids: np.ndarray
    iterations: int
    inertia: float
    inertia_history: tuple[float, ...]


def default_k(n_points: int) -> int:
    """Cluster count heuristic: max(2, round(sqrt(n/2))), capped at n."""
    return min(n_points, max(2, round(np.sqrt(n_points / 2.0))))


def _block_rows(columns: int, cells: int) -> int:
    """Rows per distance block of about ``cells`` distances (at least two)."""
    return max(2, cells // columns)


def _blocks(rows: int, step: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of consecutive blocks of ``step`` rows.

    A lone trailing row joins the previous block: a one-row product goes
    through BLAS gemv instead of gemm and rounds differently in the last
    bit, which would let the block layout decide distance ties.
    """
    bounds = list(range(0, rows, step)) + [rows]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


def _sq_distances_into(
    out: np.ndarray,
    scratch: np.ndarray,
    points_sq: np.ndarray,
    neg2_points: np.ndarray,
    centers: np.ndarray,
) -> np.ndarray:
    """Write ``max(|x|^2 + |c|^2 - 2 x.c, 0)`` for every point and centre.

    ``points_sq`` holds ``|x|^2`` and ``neg2_points`` holds ``-2 x``, so a
    caller that measures the same points repeatedly computes them once.
    ``out`` and ``scratch`` have shape (points, centres).  The clip guards
    against float cancellation.
    """
    np.add(
        points_sq[:, None], np.einsum("ij,ij->i", centers, centers)[None, :], out=out
    )
    np.matmul(neg2_points, centers.T, out=scratch)
    np.add(out, scratch, out=out)
    np.maximum(out, 0.0, out=out)
    return out


def pairwise_sq(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, shape (len(points), len(centers))."""
    shape = (points.shape[0], centers.shape[0])
    return _sq_distances_into(
        np.empty(shape), np.empty(shape),
        np.einsum("ij,ij->i", points, points), -2.0 * points, centers,
    )


def _plus_plus_init(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator,
    points_sq: np.ndarray,
    neg2_points: np.ndarray,
) -> np.ndarray:
    n = points.shape[0]
    out, scratch = np.empty((n, 1)), np.empty((n, 1))

    def distances_to(i: int) -> np.ndarray:
        center = points[i][None, :]
        return _sq_distances_into(out, scratch, points_sq, neg2_points, center)[:, 0]

    chosen = [int(rng.integers(n))]
    d2 = distances_to(chosen[-1]).copy()
    while len(chosen) < k:
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            # all remaining points coincide with a chosen centroid
            taken = set(chosen)
            idx = next(i for i in range(n) if i not in taken)
        chosen.append(idx)
        np.minimum(d2, distances_to(idx), out=d2)
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
        d2 = pairwise_sq(points[members], centroids[donor][None, :])[:, 0]
        steal = int(members[np.argmax(d2)])
        assignments[steal] = cid
        counts[donor] -= 1
        counts[cid] += 1
        centroids[cid] = points[steal]
        centroids[donor] = points[assignments == donor].mean(axis=0)


def kmeans(points: np.ndarray, k: int, seed: int, max_iter: int = 100) -> Clustering:
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

    points_sq = np.einsum("ij,ij->i", points, points)
    neg2_points = -2.0 * points
    columns = np.ascontiguousarray(points.T)
    rng = np.random.default_rng(seed)
    centroids = _plus_plus_init(points, k, rng, points_sq, neg2_points)

    blocks = _blocks(n, _block_rows(k, _ASSIGN_BLOCK_CELLS))
    widest = max(stop - start for start, stop in blocks)
    d2, scratch = np.empty((widest, k)), np.empty((widest, k))
    rows = np.arange(widest)
    nearest_d2 = np.empty(n)
    sums = np.empty((k, points.shape[1]))
    history: list[float] = []

    def assign() -> np.ndarray:
        nearest = np.empty(n, dtype=np.int64)
        for start, stop in blocks:
            m = stop - start
            block = _sq_distances_into(
                d2[:m], scratch[:m], points_sq[start:stop], neg2_points[start:stop],
                centroids,
            )
            block.argmin(axis=1, out=nearest[start:stop])
            nearest_d2[start:stop] = block[rows[:m], nearest[start:stop]]
        history.append(float(nearest_d2.sum()))
        return nearest

    assignments = assign()
    iterations = 1
    for _ in range(max_iter - 1):
        counts = np.bincount(assignments, minlength=k)
        filled = counts > 0
        for j, col in enumerate(columns):
            sums[:, j] = np.bincount(assignments, weights=col, minlength=k)
        centroids[filled] = sums[filled] / counts[filled, None]
        _repair_empty(points, assignments, centroids, k)

        new_assignments = assign()
        iterations += 1
        if np.array_equal(new_assignments, assignments):
            assignments = new_assignments
            break
        assignments = new_assignments

    _repair_empty(points, assignments, centroids, k)
    counts = np.bincount(assignments, minlength=k)
    if counts.min() == 0:
        raise RuntimeError("empty cluster survived repair")

    assignments.flags.writeable = False
    centroids.flags.writeable = False
    return Clustering(
        k=k,
        assignments=assignments,
        centroids=centroids,
        iterations=iterations,
        inertia=history[-1],
        inertia_history=tuple(history),
    )
