"""Seeded k-means (Lloyd iterations with k-means++ style initialisation)
and :class:`PointSet`, the package's one squared-distance helper.

Deterministic for a given (points, k, seed): randomness is confined to
initial centroid choice and assignment ties go to the lowest cluster id.
An empty cluster keeps its centroid while the Lloyd loop runs; once it
stops, each empty cluster is repaired, once, by moving the farthest point
out of the largest cluster.  The within-cluster squared-distance objective
never increases from one iteration to the next.

One distance rule.  Every squared distance that a decision, a draw or a sum
reads is the fixed-order sum ``Σ_f (x_f - c_f)^2``, added feature by feature
(f = 0, 1, ...) with element-wise numpy ops, no BLAS and no ``einsum``
(:meth:`PointSet.measure`, :meth:`PointSet.pairs`).  Each subtraction,
square and add rounds once, whatever the CPU, its SIMD level or the BLAS
thread count, so a pair of points has one distance in any block layout and
identical points tie exactly.  Every term is non-negative, so the sum is
off from the exact one by at most ``(d + 2) ε |x - c|^2``, which is at most
``(2d + 4) ε (|x|^2 + |c|^2)`` since ``|x - c|^2 <= 2 (|x|^2 + |c|^2)``.
One margin, ``Δ = (2d + 8) ε (|x|^2 + 2 max |c|^2)``, bounds it and a
proposal's error alike (below); its slack covers second-order terms and
the rounding of ``|x|^2`` and ``|c|^2``, which feed only margins and
proposals and so may come from ``einsum``.

Propose, then decide.  A fixed-order pass costs about 12 times a matrix
product, so a point is first proposed a centre (:meth:`PointSet.propose`):
one gemm ``[-2x | 1] @ [c | |c|^2]^T`` gives ``p = |c|^2 - 2 x . c``
against every centre, and ``|x|^2`` is added to the row's smallest and
second smallest ``p`` only (rounding to nearest is monotone, so that is the
smallest and second smallest sum), clipped at 0.  It sits within ``Δ``
of the exact distance: ``p`` is a sum of ``d + 1`` terms whose magnitudes
add up to at most ``2|x||c| + |c|^2 <= |x|^2 + 2|c|^2``, so in any order,
with or without a fused multiply-add, it is off by at most
``(d + 1) ε (|x|^2 + 2|c|^2)``; ``|c|^2`` and ``|x|^2`` add ``d ε`` times
themselves, the final add ``2 ε (|x|^2 + |c|^2)``, in all at most
``(2d + 3) ε (|x|^2 + 2 max |c|^2)``, and ``5 ε`` covers second-order
terms.  The same sum bounds every partial sum of the product, so ``p``
overflows only where ``Δ`` is infinite.  The gemm's rounding is the
kernel's own, so a proposal decides only what its margin settles.

Bounded assignment (Hamerly, SDM 2010).  Each point keeps an upper bound
``u`` on its exact distance to its own centre and a lower bound ``l`` on its
exact distance to every other centre.  When the centres move, ``u`` grows by
its own centre's drift and ``l`` shrinks by the largest drift of any other
centre (triangle inequality).  A point is settled when the strict test
``(u^2 + 2Δ)(1 + 8ε) < l|l|(1 - 8ε)`` passes (the ``8 ε`` factors cover the
rounding of the test itself): its fixed-order distance to its own centre is
then strictly below every other, so its centre is the fixed-order answer.
Bounds are set from a measured row's smallest and second smallest distances,
proposed or summed in fixed order, widened by ``Δ``, and every update is
rounded outwards.  NaN, infinite or overflowing bounds fail the test.  An
assignment step (:func:`_assign`) proposes every point it is given; a
point whose proposal does not settle is contested and measured in fixed
order against every centre, and its bounds come from those sums.  The
Lloyd loop proposes every point in the first step and each iteration's
stale points after that.

Queries.  :meth:`PointSet.nearest` is an assignment step on every point
with no carried bounds, plus the winners' fixed-order distances.
:meth:`PointSet.k_nearest` screens with the products and ranks with the
fixed-order sums.  A row's products fall into at least ``k`` strided groups
of centres, and the ``k``-th smallest group minimum, its ceiling, is at or
above the row's ``k``-th smallest product ``K``.  Every centre whose ``p``
is at most the ceiling plus ``4Δ`` is a candidate, measured in fixed order;
the candidates are ordered by (distance, index) and the row keeps its first
``k``.  That is exact: a centre whose ``p`` exceeds ``K + 4Δ`` has a
fixed-order distance above that of each of the ``k`` centres at or below
``K``, since each distance sits within ``Δ`` of the exact one and so does
each ``p + |x|^2``.  The k-means++ weights and the repair of empty clusters
are fixed-order sums.

The Lloyd loop allocates no ``n x k`` array.  The inertia comes from one
:meth:`PointSet.nearest` at the last assignment step's centroids, the sum of
the points' nearest distances, and that fresh pass raises ``RuntimeError``
if the loop's assignments differ: it checks the bound bookkeeping (drifts,
outward rounding), and trusts proposals within ``Δ`` as every pass does.
``Δ`` itself is checked by the fixed-order test oracle and by running the
tests under several BLAS kernels.  The centroid update takes cluster sizes
and per-feature sums from ``np.bincount``.  A weighted bincount adds each
cluster's members in row order starting from 0.0, which is how numpy's
mean over the rows of a C-ordered ``(m, d)`` array adds them when
``d >= 2``.

So for two or more features every assignment, centroid, iteration count
and inertia is bit-identical to the plain loop that computes every
distance in fixed order and each cluster's mean on its own (kept as a test
oracle), at every block size and on every CPU.  With a single feature
numpy sums a cluster's column pairwise instead, so centroids may differ
from that loop in the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

#: distances per block of an assignment step (every k-means step and
#: :meth:`PointSet.nearest`).  Sized to the cache: a float64 block of 2**15
#: cells and its product take 512 KB, well inside a 2 MB L2.  On the
#: ``select`` benchmark's two k-means inputs (2-core Xeon, one BLAS thread)
#: 2**15 was the fastest of 2**12 to 2**17 cells
_ASSIGN_BLOCK_CELLS = 1 << 15

#: products per block of :meth:`PointSet.k_nearest`'s screen; bounds each
#: block temporary to about 4 MB whatever the pool size.  On the ``select``
#: benchmark's first burak call (2-core Xeon, one BLAS thread) 2**18 to
#: 2**20 cells took 0.12 s and 2**17 took 0.14 s
_K_NEAREST_BLOCK_CELLS = 1 << 19

#: strided groups of centres per row in :meth:`PointSet.k_nearest` (at
#: least ``k``); the ``k``-th smallest group minimum bounds which products
#: it gathers
_K_NEAREST_GROUPS = 256

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
    """Rows per distance block of about ``cells`` distances (at least one)."""
    return max(1, cells // columns)


def _spans(count: int, k: int, cells: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of ``count`` rows' blocks of ``cells`` distances to ``k`` centres."""
    step = _block_rows(k, cells)
    return [(start, min(start + step, count)) for start in range(0, count, step)]


def _two_smallest(
    blocks: Iterable[tuple[int, int, np.ndarray]], count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's smallest value's column (ties: lowest), that value and
    the smallest value in any other column (``inf`` for one column).
    The second is read at the argmin of the row with its smallest
    masked, which costs less than numpy's row-wise ``min``."""
    index = np.empty(count, dtype=np.int64)
    first = np.empty(count)
    second = np.empty(count)
    for start, stop, d2 in blocks:
        at = (np.arange(stop - start), index[start:stop])
        d2.argmin(axis=1, out=at[1])
        first[start:stop] = d2[at]
        d2[at] = np.inf
        second[start:stop] = d2[at[0], d2.argmin(axis=1)]
    return index, first, second


def _fixed_order(
    left: Iterable[np.ndarray], right: Iterable[np.ndarray], shape: tuple
) -> np.ndarray:
    """``Σ_f (left[f] - right[f])^2``, each term broadcast to ``shape``,
    added in feature order by element-wise ops."""
    total, term = np.zeros(shape), np.empty(shape)
    for a, b in zip(left, right):
        np.subtract(a, b, out=term)
        np.multiply(term, term, out=term)
        total += term
    return total


class PointSet:
    """Points measured repeatedly against sets of centres.

    ``measure`` and ``pairs`` give fixed-order squared distances, the only
    ones a decision reads; ``propose`` proposes each point's nearest centre
    from one gemm per block of ``_ASSIGN_BLOCK_CELLS`` products.  ``nearest``
    (an assignment step) and ``k_nearest`` (blocks of
    ``_K_NEAREST_BLOCK_CELLS``) are the two queries the package asks: the
    products propose or screen, and fixed-order sums decide (see the
    module docstring).  The points are held as ``columns``, feature by
    feature as the fixed-order sums read them (a view of a whole
    column-major array, such as the points the peters filter clusters, and
    a copy of any other), and as ``augmented = [-2x | 1]``, the proposals'
    left operand.  Layout moves no bit of any result.

    The points are measured as given, with no overflow scaling: only
    ``selection._stacked`` scales raw points, so that their squared
    distances stay finite.  With coordinates near 1e154 or more, a direct
    caller's products overflow, and which candidates ``k_nearest`` keeps,
    and whether it raises, can then depend on the block size.
    """

    def __init__(self, points: np.ndarray) -> None:
        self.points = points
        self.columns = np.ascontiguousarray(points.T)
        self.sq = np.einsum("ij,ij->i", points, points)
        n, d = points.shape
        self.augmented = np.empty((n, d + 1))
        np.multiply(points, -2.0, out=self.augmented[:, :d])
        self.augmented[:, d] = 1.0

    def measure(self, centers: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """The fixed-order squared distances of every point, or of the
        points ``rows``, to every centre, as a ``(rows, k)`` array."""
        columns = self.columns if rows is None else self.columns[:, rows]
        return _fixed_order(
            columns[:, :, None], centers.T[:, None, :], (columns.shape[1], centers.shape[0])
        )

    def pairs(
        self, rows: np.ndarray | None, centers: np.ndarray, index: np.ndarray
    ) -> np.ndarray:
        """The fixed-order squared distance of each point ``rows[i]`` (of
        point ``i`` when ``rows`` is None) to its one centre
        ``centers[index[i]]``; the same bits as :meth:`measure`'s.  Each
        feature's centre values are gathered as it is added, so no
        ``(points, d)`` copy of the centres is made."""
        columns = self.columns if rows is None else self.columns[:, rows]
        return _fixed_order(columns, (feature[index] for feature in centers.T), index.shape)

    def _products(
        self, centers: np.ndarray, rows: np.ndarray, cells: int
    ) -> Iterator[tuple[int, int, np.ndarray]]:
        """Yield ``(start, stop, p)`` for the points ``rows[start:stop]``, in
        blocks of about ``cells`` products, where ``p`` holds
        ``[-2x | 1] . [c | |c|^2]``: ``|x - c|^2 - |x|^2`` from one gemm with
        K = d + 1, its rounding left to the kernel.  ``p`` is valid until the
        next block."""
        k, d = centers.shape
        # [c | |c|^2]^T held C-ordered: on select's k-means inputs (20
        # features, 2-core Xeon, one BLAS thread) gemm took about 30 % less
        # time with it than with a transposed view of [c | |c|^2]
        right = np.empty((d + 1, k))
        right[:d] = centers.T
        right[d] = np.einsum("ij,ij->i", centers, centers)
        # one buffer for every block, so no two blocks are held at once
        out = np.empty((min(_block_rows(k, cells), rows.size), k))
        for start, stop in _spans(rows.size, k, cells):
            p = np.matmul(self.augmented[rows[start:stop]], right, out=out[:stop - start])
            yield start, stop, p

    def propose(
        self, centers: np.ndarray, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For the points ``rows``, from one gemm per block: the centre with
        the smallest product (ties: lowest index), and that product and the
        smallest other plus ``|x|^2``, clipped at 0.  Each value sits within
        the margin ``Δ`` of the exact squared distance it stands for, or is
        not finite, on any BLAS kernel."""
        # overflow and NaN are read as values here: they fail the bounds test
        with np.errstate(over="ignore", invalid="ignore"):
            products = self._products(centers, rows, _ASSIGN_BLOCK_CELLS)
            index, first, second = _two_smallest(products, rows.size)
            first += self.sq[rows]
            second += self.sq[rows]
        # np.maximum keeps NaN, so a NaN proposal stays contested
        np.maximum(first, 0.0, out=first)
        np.maximum(second, 0.0, out=second)
        return index, first, second

    def nearest(self, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each point's nearest centre by fixed-order distance (ties: lowest
        index) and that distance: one assignment step on every point, with
        no bounds carried in."""
        everyone = np.arange(self.sq.size)
        index, _, _ = _assign(self, centers, everyone, _rounding_errors(self, centers))
        return index, self.pairs(None, centers, index)

    def k_nearest(self, centers: np.ndarray, k: int) -> np.ndarray:
        """Each point's ``k`` nearest centres by (fixed-order distance,
        index), as an ``(n, k)`` array with each row in index order; ``k``
        is at most the number of centres.  The products screen out centres
        that cannot be among a row's ``k`` nearest, and every candidate left
        is measured in fixed order (see the module docstring).  Raises
        ValueError when some point has fewer than ``k`` candidates, which
        only overflowing products can cause."""
        width = 4.0 * _rounding_errors(self, centers)
        n, m = self.sq.size, centers.shape[0]
        # strided groups of centres: column j is in group j % groups, and the
        # tail columns past per * groups join the first groups
        groups = max(k, min(m, _K_NEAREST_GROUPS))
        per, tail = divmod(m, groups)
        short, found = 0, [np.empty(0, dtype=np.int64)]
        for start, stop, p in self._products(centers, np.arange(n), _K_NEAREST_BLOCK_CELLS):
            count = stop - start
            # the k-th smallest group minimum is at or above the row's k-th
            # smallest product.  fmin skips NaN; when fewer than k groups
            # hold a number, every non-NaN product is a candidate
            low = np.fmin.reduce(p[:, :per * groups].reshape(count, per, groups), axis=1)
            np.fmin(low[:, :tail], p[:, per * groups:], out=low[:, :tail])
            low.partition(k - 1, axis=1)
            ceiling = low[:, k - 1]
            ceiling[np.isnan(ceiling)] = np.inf
            # candidates come in (row, index) order, so a stable sort by
            # (row, fixed-order distance) breaks ties by index; each row
            # keeps its first k; ranked per block, so pairs gathers at most a block
            row, col = np.divmod(np.flatnonzero(p <= (ceiling + width[start:stop])[:, None]), m)
            short += np.count_nonzero(np.bincount(row, minlength=count) < k)
            order = np.lexsort((self.pairs(row + start, centers, col), row))
            found.append(col[order][np.arange(row.size) - np.searchsorted(row, row) < k])
        if short:
            raise ValueError(
                f"{short} of {n} points have fewer than {k} centres whose squared"
                " distance does not overflow"
            )
        return np.sort(np.concatenate(found).reshape(n, k), axis=1)


def _plus_plus_init(space: PointSet, k: int, rng: np.random.Generator) -> np.ndarray:
    points = space.points
    n = points.shape[0]
    d2 = np.full(n, np.inf)

    def measure_to(i: int) -> None:
        """Lower each point's distance to its nearest chosen centroid."""
        np.minimum(d2, space.measure(points[i:i + 1])[:, 0], out=d2)

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
    donor never loses its last point."""
    points = space.points
    counts = np.bincount(assignments, minlength=k)
    for cid in np.flatnonzero(counts == 0):
        donor = int(np.argmax(counts))
        members = np.flatnonzero(assignments == donor)
        d2 = space.measure(centroids[donor:donor + 1], members)[:, 0]
        steal = int(members[np.argmax(d2)])
        assignments[steal] = cid
        counts[donor] -= 1
        counts[cid] += 1
        centroids[cid] = points[steal]
        centroids[donor] = points[assignments == donor].mean(axis=0)


def _rounding_errors(space: PointSet, centers: np.ndarray) -> np.ndarray:
    """Each point's ``Δ``: how far its squared distances to ``centers`` may
    sit from the exact ones, summed in fixed order (:meth:`PointSet.measure`)
    or proposed (:meth:`PointSet.propose`), on any CPU (see the module
    docstring)."""
    largest = np.einsum("ij,ij->i", centers, centers).max()
    return (2 * centers.shape[1] + 8) * _EPS * (space.sq + 2.0 * largest)


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
    """Whether a fixed-order pass, whose distances sit within ``delta`` of
    the exact ones, gives each point the centre its bounds belong to.
    Written so that NaN fails it: NaN bounds and infinite upper bounds
    never settle a point."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (
            (upper * upper + 2.0 * delta) * (1.0 + 8.0 * _EPS)
            < lower * np.abs(lower) * (1.0 - 8.0 * _EPS)
        )


def _assign(
    space: PointSet,
    centers: np.ndarray,
    rows: np.ndarray,
    delta: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The centre a fixed-order pass gives each of the points ``rows``, with
    an upper bound on its exact distance to it and a lower bound on its
    exact distance to every other centre.  A point takes its proposed
    centre when the bounds settle it; only the contested points are
    measured in fixed order, in row blocks."""
    delta = delta[rows]
    index, first, second = space.propose(centers, rows)
    upper, lower = _bounds(first, second, delta)
    contested = np.flatnonzero(~_settled(upper, lower, delta))
    if contested.size:
        picked = rows[contested]
        spans = _spans(picked.size, centers.shape[0], _ASSIGN_BLOCK_CELLS)
        blocks = ((a, b, space.measure(centers, picked[a:b])) for a, b in spans)
        index[contested], first, second = _two_smallest(blocks, picked.size)
        upper[contested], lower[contested] = _bounds(first, second, delta[contested])
    return index, upper, lower


def kmeans(points: np.ndarray, k: int, seed: int, max_iter: int = 100) -> Clustering:
    """Cluster points into k groups.

    Empty clusters are repaired once, after the Lloyd loop stops, so every
    result has k non-empty clusters; ``iterations`` counts the assignment
    steps, at most ``max_iter``.  Points with exactly equal coordinates
    always land in the same cluster (except for single points relocated by
    that repair, which can only happen among exact duplicates).  Raises
    ValueError for k < 1, k > number of points or max_iter < 1, and
    RuntimeError if the bounded assignments ever disagree with a fresh
    pass (which the rounding margins rule out).

    The points are clustered as given, with no overflow scaling: only
    ``selection._stacked`` scales raw points, so that every squared distance
    and their sums stay finite.  With coordinates near 1e154 or more, a
    direct caller's k-means++ total overflows, its draw probabilities are
    NaN and ``rng.choice`` raises ValueError.
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

    space = PointSet(points)
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
        for j, col in enumerate(space.columns):
            sums[:, j] = np.bincount(assignments, weights=col, minlength=k)
        # an empty cluster keeps its centroid until the loop stops
        centroids[filled] = sums[filled] / counts[filled, None]

        delta = _rounding_errors(space, centroids)
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
        stale = np.flatnonzero(~_settled(upper, lower, delta))
        new_assignments = assignments.copy()
        if stale.size:
            new_assignments[stale], upper[stale], lower[stale] = _assign(
                space, centroids, stale, delta
            )
        iterations += 1
        if np.array_equal(new_assignments, assignments):
            assignments = new_assignments
            break
        assignments = new_assignments

    # the inertia from one fresh pass, which also checks the bounded loop
    nearest, d2 = space.nearest(centroids)
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
