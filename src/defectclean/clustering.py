"""Seeded k-means (Lloyd iterations with k-means++ style initialisation)
and :class:`PointSet`, the package's one squared-distance helper.

Deterministic for a given (points, k, seed): randomness is confined to
initial centroid choice, assignment ties go to the lowest cluster id, and
empty clusters are repaired by moving the farthest point out of the largest
cluster.  The within-cluster squared-distance objective never increases
from one iteration to the next.

A :class:`PointSet` computes ``|x|^2`` and ``-2 x`` once and measures its
points against centres in row blocks of about ``cells`` distances.
Scaling by a power of two is exact, so ``(|x|^2 + |c|^2) + (-2 x) . c``
rounds exactly like ``(|x|^2 + |c|^2) - 2 x . c``.  A block never holds a
single row (:func:`_blocks`): a one-row product goes through BLAS gemv
instead of gemm and rounds differently in the last bit, which would let
the block layout decide distance ties.  k-means blocks are cache-sized
(``_ASSIGN_BLOCK_CELLS``), so a block stays in cache across the add,
matmul, add, clip, argmin and gather that pass over it.  The selection
filters' blocks are memory-sized (``selection._BLOCK_CELLS``), because each
of them streams the whole pool or cluster once.

The Lloyd loop allocates no ``n x k`` array.  The inertia is the sum of
the points' nearest distances, so it adds the same values in the same
order whatever the block size.  The centroid update takes cluster sizes
and per-feature sums from ``np.bincount``.  A weighted bincount adds each
cluster's members in row order starting from 0.0, which is how numpy's
mean over the rows of a C-ordered ``(m, d)`` array adds them when
``d >= 2``.

So for two or more features every assignment, centroid, iteration count
and inertia is bit-identical to the plain loop that computes each
cluster's mean on its own (kept as a test oracle), at every block size.
With a single feature numpy sums a cluster's column pairwise instead, so
centroids may differ from that loop in the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

#: distances per k-means block.  Sized to the cache: a float64 block of
#: 2**15 cells and its product take 512 KB, well inside a 2 MB L2.  On the
#: ``select`` benchmark's two k-means inputs (2-core Xeon, one BLAS thread)
#: 2**12 to 2**17 cells gave the same bits and 2**15 was fastest
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
    """``(start, stop)`` of consecutive blocks of ``step`` rows; a lone
    trailing row joins the previous block."""
    bounds = list(range(0, rows, step)) + [rows]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


class PointSet:
    """Points measured repeatedly against sets of centres.

    ``blocks`` yields ``max(|x|^2 + |c|^2 - 2 x.c, 0)`` in row blocks of
    about ``cells`` distances; the clip guards against float cancellation.
    """

    def __init__(self, points: np.ndarray, cells: int) -> None:
        self.points = points
        self.cells = cells
        self.sq = np.einsum("ij,ij->i", points, points)
        self.neg2 = -2.0 * points
        self._out = np.empty(0)
        self._rows = np.arange(points.shape[0])

    def blocks(self, centers: np.ndarray) -> Iterator[tuple[int, int, np.ndarray]]:
        """Yield ``(start, stop, d2)``: the squared distances of points
        ``start:stop`` to every centre.  ``d2`` is one reused buffer, valid
        until the next block."""
        k = centers.shape[0]
        layout = _blocks(self.sq.size, _block_rows(k, self.cells))
        widest = max((stop - start for start, stop in layout), default=0)
        if self._out.size < widest * k:
            self._out = np.empty(widest * k)
        centers_sq = np.einsum("ij,ij->i", centers, centers)
        for start, stop in layout:
            d2 = self._out[:(stop - start) * k].reshape(stop - start, k)
            np.add(self.sq[start:stop, None], centers_sq[None, :], out=d2)
            # the product is a per-block temporary: a second cached buffer
            # would outlive the block, and a filter's blocks are 8 MB
            np.add(d2, self.neg2[start:stop] @ centers.T, out=d2)
            np.maximum(d2, 0.0, out=d2)
            yield start, stop, d2

    def nearest(self, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each point's nearest centre (ties: lowest index) and its squared
        distance."""
        index = np.empty(self.sq.size, dtype=np.int64)
        dist = np.empty(self.sq.size)
        for start, stop, d2 in self.blocks(centers):
            d2.argmin(axis=1, out=index[start:stop])
            dist[start:stop] = d2[self._rows[:stop - start], index[start:stop]]
        return index, dist


def _plus_plus_init(space: PointSet, k: int, rng: np.random.Generator) -> np.ndarray:
    points = space.points
    n = points.shape[0]
    d2 = np.full(n, np.inf)

    def measure_to(i: int) -> None:
        """Lower each point's distance to its nearest chosen centroid."""
        for start, stop, block in space.blocks(points[i:i + 1]):
            np.minimum(d2[start:stop], block[:, 0], out=d2[start:stop])

    chosen = [int(rng.integers(n))]
    measure_to(chosen[-1])
    while len(chosen) < k:
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            # all remaining points coincide with a chosen centroid
            taken = set(chosen)
            idx = next(i for i in range(n) if i not in taken)
        chosen.append(idx)
        measure_to(idx)
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
        _, d2 = PointSet(points[members], _ASSIGN_BLOCK_CELLS).nearest(
            centroids[donor:donor + 1]
        )
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

    space = PointSet(points, _ASSIGN_BLOCK_CELLS)
    columns = np.ascontiguousarray(points.T)
    centroids = _plus_plus_init(space, k, np.random.default_rng(seed))
    sums = np.empty((k, points.shape[1]))
    history: list[float] = []

    def assign() -> np.ndarray:
        nearest, d2 = space.nearest(centroids)
        history.append(float(d2.sum()))
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
