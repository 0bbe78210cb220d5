"""Seeded k-means (Lloyd iterations with k-means++ style initialisation)
and :class:`PointSet`, the package's one squared-distance helper.

Deterministic for a given (points, k, seed): randomness is confined to
initial centroid choice and assignment ties go to the lowest cluster id.
An empty cluster keeps its centroid while the Lloyd loop runs; once it
stops, each empty cluster is repaired, once, by moving the farthest point
out of the largest cluster.  The within-cluster squared-distance objective
never increases from one iteration to the next.

A :class:`PointSet` computes ``|x|^2`` and ``[-2x | 1]`` once and measures
its points (all of them, or chosen rows) against centres in row blocks of about
``cells`` distances.  Scaling by a power of two is exact, so
``(|x|^2 + |c|^2) + (-2 x) . c`` rounds exactly like
``(|x|^2 + |c|^2) - 2 x . c``.  The first sum is formed as the two-column
product ``(|x|^2, 1) @ (1, |c|^2)``, one matmul per block where a broadcast
add pays numpy's inner-loop setup once per row.  Both of its terms are
products with 1, which are exact, so any BLAS kernel, in any order, with or
without a fused multiply-add, rounds the sum once, exactly as the add does.
A block of this exact formula never holds a single row (:func:`_blocks`,
and k-means measures a lone row as two copies of itself): a one-row
product goes through BLAS gemv instead of gemm and rounds differently in
the last bit, which would let the block layout decide distance ties.  k-means blocks are cache-sized
(``_ASSIGN_BLOCK_CELLS``), so a block stays in cache across the two
matmuls, add, clip, argmins and gathers that pass over it.  The selection
filters' blocks are memory-sized (``selection._BLOCK_CELLS``), because each
of them streams the whole pool or cluster once.

Bounded assignment (Hamerly, SDM 2010).  Each point keeps an upper bound
``u`` on its exact distance to its own centre and a lower bound ``l`` on its
exact distance to every other centre.  When the centres move, ``u`` grows by
its own centre's drift and ``l`` shrinks by the largest drift of any other
centre (triangle inequality).  An iteration measures only the points that
fail the strict test ``(u^2 + 2Δ)(1 + 8ε) < l|l|(1 - 8ε)``; the others keep
their centre.  ``Δ = (2d + 8) ε (|x|^2 + max |c|^2)`` bounds how far a
computed squared distance over ``d`` features sits from the exact one in
any summation order: ``|x|^2`` and ``|c|^2`` are each off by at most ``d ε``
times themselves and ``2 x . c`` by at most ``d ε (|x|^2 + |c|^2)`` (since
``2|x||c| <= |x|^2 + |c|^2``), the two additions add at most
``3 ε (|x|^2 + |c|^2)``, and the clip at 0 only moves a value towards the
exact one; the remaining ``5 ε`` covers second-order terms.  So a point
that passes has computed distances with its own centre strictly below every
other, whatever order the BLAS adds in, which is exactly what a full pass
would find.  The ``8 ε`` factors cover the rounding of the test itself.
Bounds are set from a measured row's smallest and second smallest distances
widened by their margin, and every update is rounded outwards.  NaN,
infinite or overflowing bounds fail the test, so those points are measured.

Propose, then decide.  A point is measured first by a proposal
(:meth:`PointSet.propose`): one gemm ``[-2x | 1] @ [c | |c|^2]^T`` gives
``p = |c|^2 - 2 x . c`` against every centre, and ``|x|^2`` is added to the
row's smallest and second smallest ``p`` only (rounding to nearest is
monotone, so that is the smallest and second smallest sum), clipped at 0.
Its margin is ``Δp = (2d + 8) ε (|x|^2 + 2 max |c|^2)``, ``Δ`` with
``max |c|^2`` counted twice: ``p`` is a sum of ``d + 1`` terms whose
magnitudes add up to at most ``2|x||c| + |c|^2 <= |x|^2 + 2|c|^2``, so in
any order, with or without a fused multiply-add, it is off by at most
``(d + 1) ε (|x|^2 + 2|c|^2)``; ``|c|^2`` and ``|x|^2`` add ``d ε`` times
themselves, the final add ``2 ε (|x|^2 + |c|^2)``, in all at most
``(2d + 3) ε (|x|^2 + 2 max |c|^2)``, and ``5 ε`` again covers
second-order terms.  The same sum bounds every partial sum of the product,
so ``p`` overflows only where ``|x|^2 + 2 max |c|^2`` does, and there
``Δp`` is infinite and the point contested.  Bounds made from a
proposal with ``Δp`` hold for the exact distances, so a proposal that
passes the test above (which still reads the exact formula's ``Δ``) is
what a full pass finds, on any BLAS kernel, and the point takes it.  Any
other point is contested and is measured again by the exact formula
(:meth:`PointSet.nearest`), whose own bounds replace the proposal's.  A
proposal skips the exact formula's lift product, add and clip over the
``rows x k`` block.  The first assignment and each iteration's stale points
are proposed; the k-means++ weights, the final pass and the repair of
empty clusters read distances whose bits feed draws, sums and tie-breaks,
so they measure with the exact formula.

The Lloyd loop allocates no ``n x k`` array.  The inertia comes from one
full pass at the last assignment step's centroids, the sum of the points'
nearest distances, so it adds the same values in the same order whatever
the block size; that pass also checks the bounded assignments and raises
``RuntimeError`` if they differ.  The centroid update takes cluster sizes
and per-feature sums from ``np.bincount``.  A weighted bincount adds each
cluster's members in row order starting from 0.0, which is how numpy's
mean over the rows of a C-ordered ``(m, d)`` array adds them when
``d >= 2``.

So for two or more features every assignment, centroid, iteration count
and inertia is bit-identical to the plain loop that computes every
distance and each cluster's mean on its own (kept as a test oracle), at
every block size.  With a single feature numpy sums a cluster's column
pairwise instead, so centroids may differ from that loop in the last bit.
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

_EPS = float(np.finfo(np.float64).eps)
#: factors that round a bound outwards after one or two roundings of it
_UP, _DOWN = 1.0 + 4.0 * _EPS, 1.0 - 4.0 * _EPS


@dataclass(frozen=True)
class Clustering:
    """Result of one k-means run."""

    k: int
    assignments: np.ndarray
    centroids: np.ndarray
    iterations: int
    inertia: float


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
    ``|x|^2 + |c|^2`` is the exact-term product ``(|x|^2, 1) @ (1, |c|^2)``,
    which rounds like the plain sum on every BLAS kernel (see the module
    docstring).  ``nearest`` is the one nearest-centre query built on it; it
    reads each row's second smallest distance as the value at the argmin of
    the row with its smallest masked, which is that row's minimum (NaN
    included) and costs less than numpy's row-wise ``min``.  ``propose``
    answers the same query from one product per block, whose rounding the
    gemm kernel decides; its answer is only a proposal (see the module
    docstring).

    The points are held once, as ``[-2x | 1]`` (``augmented``), the
    proposals' left operand; ``neg2`` is a view of its first ``d`` columns.
    """

    def __init__(self, points: np.ndarray, cells: int) -> None:
        self.points = points
        self.cells = cells
        self.sq = np.einsum("ij,ij->i", points, points)
        n, d = points.shape
        self.augmented = np.empty((n, d + 1))
        np.multiply(points, -2.0, out=self.augmented[:, :d])
        self.augmented[:, d] = 1.0
        self.neg2 = self.augmented[:, :d]
        self._out = np.empty(0)
        self._lift = np.ones((0, 2))
        self._rows = np.arange(n)

    def _layout(self, k: int, count: int) -> list[tuple[int, int]]:
        """The row blocks of ``count`` rows against ``k`` centres, with the
        reused output and lift buffers grown to the widest of them."""
        layout = _blocks(count, _block_rows(k, self.cells))
        widest = max((stop - start for start, stop in layout), default=0)
        if self._out.size < widest * k:
            self._out = np.empty(widest * k)
        if self._lift.shape[0] < widest:
            self._lift = np.ones((widest, 2))
        return layout

    def _count(self, rows: np.ndarray | None) -> int:
        """How many rows ``rows`` measures: every point when it is None."""
        return self.sq.size if rows is None else rows.size

    def blocks(
        self, centers: np.ndarray, rows: np.ndarray | None = None
    ) -> Iterator[tuple[int, int, np.ndarray]]:
        """Yield ``(start, stop, d2)``: the squared distances of points
        ``start:stop`` to every centre.  ``d2`` is one reused buffer, valid
        until the next block.  With ``rows`` (point indices) only those
        points are measured, and ``start:stop`` index ``rows``; a row's
        distances have the same bits either way."""
        k = centers.shape[0]
        # |x|^2 + |c|^2 as (|x|^2, 1) @ (1, |c|^2), rounded once
        centers_lift = np.ones((2, k))
        centers_lift[1] = np.einsum("ij,ij->i", centers, centers)
        for start, stop in self._layout(k, self._count(rows)):
            picked = slice(start, stop) if rows is None else rows[start:stop]
            lift = self._lift[:stop - start]
            lift[:, 0] = self.sq[picked]
            d2 = self._out[:(stop - start) * k].reshape(stop - start, k)
            np.matmul(lift, centers_lift, out=d2)
            # the -2x.c product is a per-block temporary: a cached buffer
            # would outlive the block, and a filter's blocks are 8 MB
            np.add(d2, self.neg2[picked] @ centers.T, out=d2)
            np.maximum(d2, 0.0, out=d2)
            yield start, stop, d2

    def _products(
        self, centers: np.ndarray, rows: np.ndarray
    ) -> Iterator[tuple[int, int, np.ndarray]]:
        """Yield ``(start, stop, p)`` as :meth:`blocks` does, where ``p``
        holds ``[-2x | 1] . [c | |c|^2]``: ``|x - c|^2 - |x|^2`` from one
        gemm with K = d + 1, its rounding left to the kernel."""
        k, d = centers.shape
        # [c | |c|^2]^T held C-ordered: on select's k-means inputs (20
        # features, 2-core Xeon, one BLAS thread) gemm took about 30 % less
        # time with it than with a transposed view of [c | |c|^2]
        right = np.empty((d + 1, k))
        right[:d] = centers.T
        right[d] = np.einsum("ij,ij->i", centers, centers)
        for start, stop in self._layout(k, rows.size):
            p = self._out[:(stop - start) * k].reshape(stop - start, k)
            np.matmul(self.augmented[rows[start:stop]], right, out=p)
            yield start, stop, p

    def _two_smallest(
        self, blocks: Iterator[tuple[int, int, np.ndarray]], count: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each row's smallest value's column (ties: lowest), that value and
        the smallest value in any other column (``inf`` for one column)."""
        if self._rows.size < count:  # ``rows`` may repeat a point
            self._rows = np.arange(count)
        index = np.empty(count, dtype=np.int64)
        first = np.empty(count)
        second = np.empty(count)
        for start, stop, d2 in blocks:
            at = (self._rows[:stop - start], index[start:stop])
            d2.argmin(axis=1, out=at[1])
            first[start:stop] = d2[at]
            d2[at] = np.inf
            second[start:stop] = d2[at[0], d2.argmin(axis=1)]
        return index, first, second

    def nearest(
        self, centers: np.ndarray, rows: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For every point, or only the points ``rows``: the nearest centre
        (ties: lowest index), its squared distance and the smallest squared
        distance to any other centre (``inf`` for a single centre)."""
        return self._two_smallest(self.blocks(centers, rows), self._count(rows))

    def propose(
        self, centers: np.ndarray, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """What :meth:`nearest` answers for the points ``rows``, from one
        gemm per block: the centre with the smallest product (ties: lowest
        index), and that product and the smallest other plus ``|x|^2``,
        clipped at 0.  Each value sits within the propose margin ``Δp`` of
        the exact squared distance it stands for, or is not finite, on any
        BLAS kernel; the centre itself may differ from ``nearest``'s."""
        # overflow and NaN are read as values here: they fail the bounds test
        with np.errstate(over="ignore", invalid="ignore"):
            index, first, second = self._two_smallest(self._products(centers, rows), rows.size)
            first += self.sq[rows]
            second += self.sq[rows]
        # np.maximum keeps NaN, so a NaN proposal stays contested
        np.maximum(first, 0.0, out=first)
        np.maximum(second, 0.0, out=second)
        return index, first, second


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
    space: PointSet, assignments: np.ndarray, centroids: np.ndarray, k: int
) -> None:
    """Give each empty cluster the farthest point of the largest cluster.

    While a cluster is empty the largest holds at least two points, so the
    donor never loses its last point and its members are never a lone row
    (see :func:`_blocks`)."""
    points = space.points
    counts = np.bincount(assignments, minlength=k)
    for cid in np.flatnonzero(counts == 0):
        donor = int(np.argmax(counts))
        members = np.flatnonzero(assignments == donor)
        _, d2, _ = space.nearest(centroids[donor:donor + 1], members)
        steal = int(members[np.argmax(d2)])
        assignments[steal] = cid
        counts[donor] -= 1
        counts[cid] += 1
        centroids[cid] = points[steal]
        centroids[donor] = points[assignments == donor].mean(axis=0)


def _rounding_errors(
    space: PointSet, centers: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each point's ``Δ`` and ``Δp``: how far its squared distances to
    ``centers`` may sit from the exact ones when computed by the exact
    formula (:meth:`PointSet.nearest`) and by a proposal
    (:meth:`PointSet.propose`), in any summation order (see the module
    docstring)."""
    margin = (2 * centers.shape[1] + 8) * _EPS
    largest = np.einsum("ij,ij->i", centers, centers).max()
    return margin * (space.sq + largest), margin * (space.sq + 2.0 * largest)


def _bounds(
    first: np.ndarray, second: np.ndarray, delta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on the exact distance to the nearest centre (upper) and to
    every other centre (lower), from computed squared distances that sit
    within ``delta`` of the exact ones.  Each result is rounded outwards."""
    upper = np.sqrt(first + delta)
    upper *= _UP
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which never settles
        lower = np.sqrt(np.maximum(second - delta, 0.0))
    lower *= _DOWN
    return upper, lower


def _settled(upper: np.ndarray, lower: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Whether a full pass, whose distances sit within ``delta`` of the
    exact ones, gives each point the centre its bounds belong to.  Written
    so that NaN fails it: NaN bounds and infinite upper bounds never
    settle a point."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (
            (upper * upper + 2.0 * delta) * (1.0 + 8.0 * _EPS)
            < lower * np.abs(lower) * (1.0 - 8.0 * _EPS)
        )


def _assign(
    space: PointSet,
    centers: np.ndarray,
    rows: np.ndarray,
    errors: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The centre a full pass gives each of the points ``rows``, with an
    upper bound on its exact distance to it and a lower bound on its exact
    distance to every other centre.  A point takes its proposed centre when
    the bounds settle it; only the contested points are measured again by
    the exact formula."""
    delta, proposed = errors
    index, first, second = space.propose(centers, rows)
    upper, lower = _bounds(first, second, proposed[rows])
    contested = np.flatnonzero(~_settled(upper, lower, delta[rows]))
    if contested.size:
        if contested.size == 1:
            # a lone row would go through gemv (see _blocks); measure it twice
            contested = np.repeat(contested, 2)
        picked = rows[contested]
        index[contested], first, second = space.nearest(centers, picked)
        upper[contested], lower[contested] = _bounds(first, second, delta[picked])
    return index, upper, lower


def kmeans(points: np.ndarray, k: int, seed: int, max_iter: int = 100) -> Clustering:
    """Cluster points into k groups.

    Empty clusters are repaired once, after the Lloyd loop stops, so every
    result has k non-empty clusters; ``iterations`` counts the assignment
    steps, at most ``max_iter``.  Points with exactly equal coordinates
    always land in the same cluster (except for single points relocated by
    that repair, which can only happen among exact duplicates).  Raises
    ValueError for k < 1, k > number of points or max_iter < 1, and
    RuntimeError if the bounded assignments ever disagree with a full pass
    (which the rounding margin rules out).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("points must be a non-empty 2-D array")
    n, features = points.shape
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of points ({n})")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")

    space = PointSet(points, _ASSIGN_BLOCK_CELLS)
    columns = np.ascontiguousarray(points.T)
    centroids = _plus_plus_init(space, k, np.random.default_rng(seed))
    sums = np.empty((k, features))

    assignments, upper, lower = _assign(
        space, centroids, np.arange(n), _rounding_errors(space, centroids)
    )
    iterations = 1
    for _ in range(max_iter - 1):
        previous = centroids.copy()
        counts = np.bincount(assignments, minlength=k)
        filled = counts > 0
        for j, col in enumerate(columns):
            sums[:, j] = np.bincount(assignments, weights=col, minlength=k)
        # an empty cluster keeps its centroid until the loop stops
        centroids[filled] = sums[filled] / counts[filled, None]

        errors = _rounding_errors(space, centroids)
        with np.errstate(over="ignore", invalid="ignore"):
            # each centre's drift, rounded up: the difference, squares, sum
            # and square root leave it at most (d / 2 + 4) eps short
            step = centroids - previous
            shift = np.sqrt(np.einsum("ij,ij->i", step, step)) * (1.0 + (features + 8) * _EPS)
            top = int(np.argmax(shift))
            runner_up = np.delete(shift, top).max(initial=0.0)
            upper += shift[assignments]
            upper *= _UP
            lower -= np.where(assignments == top, runner_up, shift[top])
            lower *= _DOWN
        stale = np.flatnonzero(~_settled(upper, lower, errors[0]))
        new_assignments = assignments.copy()
        if stale.size:
            new_assignments[stale], upper[stale], lower[stale] = _assign(
                space, centroids, stale, errors
            )
        iterations += 1
        if np.array_equal(new_assignments, assignments):
            assignments = new_assignments
            break
        assignments = new_assignments

    # the inertia from one full pass, which also checks the bounded loop
    nearest, d2, _ = space.nearest(centroids)
    if not np.array_equal(nearest, assignments):
        raise RuntimeError("bounded k-means assignments disagree with a full pass")
    inertia = float(d2.sum())

    _repair_empty(space, assignments, centroids, k)
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
        inertia=inertia,
    )
