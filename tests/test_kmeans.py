"""k-means tests.

The load-bearing properties: the objective never increases across
iterations, no cluster is ever left empty, ties go to the lowest cluster
id, and a converged run leaves every point attached to its nearest
centroid (verified against an independent distance recomputation).

A run capped at ``max_iter = t`` stops after iteration t, so its inertia is
the objective after t iterations of any longer run with the same seed
(:func:`inertia_prefixes`).
"""

from __future__ import annotations

import numpy as np
import pytest

from defectclean import clustering
from defectclean.clustering import PointSet, default_k, kmeans

from ._reference_kmeans import _pairwise_sq, reference_kmeans


def inertia_prefixes(points, k, seed, iterations):
    """The inertia after each of the first ``iterations`` iterations."""
    return [kmeans(points, k, seed, max_iter=t).inertia for t in range(1, iterations + 1)]


def blob_points(rng, centers, per_blob=30, spread=0.05):
    parts = [
        center + spread * rng.standard_normal((per_blob, len(center)))
        for center in centers
    ]
    return np.vstack(parts)


class TestKmeansBasics:
    def test_k1_centroid_is_the_mean(self, rng):
        points = rng.random((40, 5))
        result = kmeans(points, k=1, seed=0)
        assert result.k == 1
        assert np.allclose(result.centroids[0], points.mean(axis=0))
        expected = float(((points - points.mean(axis=0)) ** 2).sum())
        assert result.inertia == pytest.approx(expected)
        assert (result.assignments == 0).all()

    def test_recovers_separated_blobs(self, rng):
        centers = [np.zeros(4), np.full(4, 10.0), np.full(4, -10.0)]
        points = blob_points(rng, centers)
        result = kmeans(points, k=3, seed=7)
        # each blob of 30 consecutive points must map to a single cluster
        blob_ids = [set(result.assignments[i * 30:(i + 1) * 30]) for i in range(3)]
        assert all(len(ids) == 1 for ids in blob_ids)
        assert len(set.union(*blob_ids)) == 3

    def test_k_equals_n_reaches_zero_inertia(self, rng):
        points = rng.random((12, 3))
        result = kmeans(points, k=12, seed=1)
        assert result.inertia == pytest.approx(0.0)
        assert sorted(result.assignments) == list(range(12))

    def test_k_validation(self, rng):
        points = rng.random((5, 2))
        with pytest.raises(ValueError, match="k"):
            kmeans(points, k=0, seed=0)
        with pytest.raises(ValueError, match="exceeds"):
            kmeans(points, k=6, seed=0)
        with pytest.raises(ValueError, match="2-D"):
            kmeans(np.zeros((0, 2)), k=1, seed=0)
        for max_iter in (0, -5):
            with pytest.raises(ValueError, match="max_iter must be at least 1"):
                kmeans(points, k=2, seed=0, max_iter=max_iter)

    def test_default_k_heuristic(self):
        assert default_k(1) == 1
        assert default_k(2) == 2
        assert default_k(3) == 2   # floor at 2 once n allows it
        assert default_k(100) == 7
        assert default_k(800) == 20
        assert default_k(5000) == 50


class TestKmeansInvariants:
    def test_objective_never_increases(self, rng):
        for _ in range(30):
            n = int(rng.integers(5, 60))
            points = rng.integers(0, 6, size=(n, 4)).astype(float)
            k = int(rng.integers(1, n + 1))
            seed = int(rng.integers(1 << 31))
            result = kmeans(points, k=k, seed=seed)
            history = np.array(inertia_prefixes(points, k, seed, result.iterations))
            assert (np.diff(history) <= 1e-9).all()
            assert result.inertia == history[-1]

    def test_no_empty_clusters(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 40))
            points = rng.integers(0, 3, size=(n, 3)).astype(float)
            k = int(rng.integers(1, n + 1))
            result = kmeans(points, k=k, seed=3)
            counts = np.bincount(result.assignments, minlength=k)
            assert counts.min() >= 1

    def test_all_duplicate_points_still_fill_k_clusters(self):
        points = np.ones((10, 4))
        result = kmeans(points, k=3, seed=0)
        assert np.bincount(result.assignments, minlength=3).min() >= 1
        assert result.inertia == pytest.approx(0.0)

    def test_empty_cluster_after_repair_raises(self, monkeypatch):
        # a real exception, not an assert that ``python -O`` strips
        monkeypatch.setattr(clustering, "_repair_empty", lambda *args: None)
        with pytest.raises(RuntimeError, match="empty cluster"):
            kmeans(np.ones((10, 4)), k=3, seed=0)

    def test_converged_points_sit_at_nearest_centroid(self, rng):
        for trial in range(20):
            points = rng.random((50, 6))
            k = int(rng.integers(2, 8))
            result = kmeans(points, k=k, seed=trial, max_iter=200)
            if result.iterations >= 200:
                continue
            d2 = ((points[:, None, :] - result.centroids[None, :, :]) ** 2).sum(axis=2)
            assert np.array_equal(result.assignments, d2.argmin(axis=1))

    def test_assignment_ties_take_lowest_cluster_id(self):
        # two coincident centroid candidates: duplicate extremes force the
        # midpoint to tie; argmin must resolve to the lower id
        points = np.array([[0.0], [0.0], [4.0], [4.0], [2.0]])
        result = kmeans(points, k=2, seed=0, max_iter=50)
        d2 = ((points[:, None, :] - result.centroids[None, :, :]) ** 2).sum(axis=2)
        ties = np.isclose(d2[:, 0], d2[:, 1])
        assert np.array_equal(result.assignments[ties], np.zeros(ties.sum(), dtype=int))

    def test_deterministic_for_fixed_seed(self, rng):
        points = rng.random((40, 5))
        a = kmeans(points, k=4, seed=99)
        b = kmeans(points, k=4, seed=99)
        assert np.array_equal(a.assignments, b.assignments)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.iterations == b.iterations
        assert a.inertia == b.inertia

    def test_column_major_input_gives_the_same_bits(self, rng, monkeypatch):
        # the peters filter hands k-means a column-major array; its layout
        # moves no assignment, centroid, iteration count or inertia, also
        # on duplicate-heavy inputs whose empty clusters are repaired
        repaired = []
        real_repair = clustering._repair_empty

        def spy(space, assignments, centroids, k):
            repaired.append(np.bincount(assignments, minlength=k).min() == 0)
            real_repair(space, assignments, centroids, k)

        monkeypatch.setattr(clustering, "_repair_empty", spy)
        for trial in range(40):
            n, d = int(rng.integers(2, 80)), int(rng.integers(2, 8))
            if trial % 2:
                points = draw_floats(rng, n, d)
            else:
                distinct = rng.integers(0, 3, (int(rng.integers(1, 6)), d)) * 0.1
                points = distinct[rng.integers(0, len(distinct), n)]
            k, seed = int(rng.integers(1, n + 1)), int(rng.integers(1 << 31))
            want, got = kmeans(points, k, seed), kmeans(np.asfortranarray(points), k, seed)
            assert got.assignments.tobytes() == want.assignments.tobytes()
            assert got.centroids.tobytes() == want.centroids.tobytes()
            assert (got.iterations, got.inertia) == (want.iterations, want.inertia)
        assert any(repaired)

    def test_result_arrays_are_frozen(self, rng):
        result = kmeans(rng.random((10, 2)), k=2, seed=0)
        with pytest.raises(ValueError):
            result.assignments[0] = 1
        with pytest.raises(ValueError):
            result.centroids[0, 0] = 1.0


def brute_force_sq(points, centers):
    return ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


def measured_rows(monkeypatch):
    """Record, in call order, the point indices of every proposal
    (``PointSet.propose``) and of every fixed-order measurement against two
    or more centres (``PointSet.measure``; one centre is initialisation or
    repair)."""
    proposed, measured = [], []
    real_propose, real_measure = PointSet.propose, PointSet.measure

    def propose(space, centers, rows):
        proposed.append(rows.copy())
        return real_propose(space, centers, rows)

    def measure(space, centers, rows=None):
        if centers.shape[0] > 1:
            measured.append(np.arange(space.sq.size) if rows is None else rows.copy())
        return real_measure(space, centers, rows)

    monkeypatch.setattr(PointSet, "propose", propose)
    monkeypatch.setattr(PointSet, "measure", measure)
    return proposed, measured


def contest_every_proposal(monkeypatch):
    """Make every proposal's smallest value NaN, which never settles, so
    each proposed point is measured in fixed order.  The margin ``Δ`` stays
    real: the measured points' bounds can settle them in later steps."""
    real = PointSet.propose

    def propose(space, centers, rows):
        index, first, second = real(space, centers, rows)
        first[:] = np.nan
        return index, first, second

    monkeypatch.setattr(PointSet, "propose", propose)


def settled_proposals(space, centers, rows):
    """``space.propose(centers, rows)``, which of its rows the bounds test
    settles, as :func:`clustering._assign` reads them, and each row's
    margin ``Δ``."""
    margin = clustering._rounding_errors(space, centers)[rows]
    index, first, second = space.propose(centers, rows)
    upper, lower = clustering._bounds(first, second, margin)
    return (index, first, second), clustering._settled(upper, lower, margin), margin


def draw_floats(rng, rows, d):
    """Coordinates over six decades, either sign, so sums round often."""
    return rng.choice([-1.0, 1.0], (rows, d)) * 10.0 ** rng.uniform(-3, 3, (rows, d))


def draw_ranking_case(rng, kind, n, m):
    """``n`` points and ``m`` centres of ``kind``: lattice (every distance
    exact, many ties), duplicates (repeated centres, points on centres) or
    float (six decades)."""
    d = int(rng.integers(1, 6))
    if kind == "lattice":
        return (
            rng.integers(0, 3, (n, d)).astype(np.float64),
            rng.integers(0, 3, (m, d)).astype(np.float64),
        )
    points, centers = draw_floats(rng, n, d), draw_floats(rng, m, d)
    if kind == "duplicates":
        centers = centers[rng.integers(0, max(1, m // 3), m)]
        points[: n // 2] = centers[rng.integers(0, m, n // 2)]
    return points, centers


def assert_k_nearest_ranking(points, centers, ks):
    """``k_nearest`` is each row's first ``k`` centres by (fixed-order
    distance, index), in index order, for every ``k`` in ``ks`` at three
    block heights."""
    m = centers.shape[0]
    want = _pairwise_sq(points, centers)
    ranking = [sorted(range(m), key=lambda j: (d2[j], j)) for d2 in want]
    for k in ks:
        for cells in (m, 5 * m, 1 << 20):
            got = PointSet(points, cells).k_nearest(centers, k)
            assert got.shape == (points.shape[0], k)
            for row, ranked in zip(got, ranking):
                assert row.tolist() == sorted(ranked[:k])


def pairs_measured(monkeypatch):
    """Record how many pairs each ``PointSet.k_nearest`` call measures, and
    check that no one ``PointSet.pairs`` call in it gathers more than a
    block of ``cells`` products (or one row) holds."""
    counts, most = [], []
    real_k_nearest, real_pairs = PointSet.k_nearest, PointSet.pairs

    def k_nearest(space, centers, k):
        counts.append(0)
        most.append(max(space.cells, centers.shape[0]))
        return real_k_nearest(space, centers, k)

    def pairs(space, rows, centers, index):
        assert index.size <= most[-1]
        counts[-1] += index.size
        return real_pairs(space, rows, centers, index)

    monkeypatch.setattr(PointSet, "k_nearest", k_nearest)
    monkeypatch.setattr(PointSet, "pairs", pairs)
    return counts


class TestPointSet:
    """``PointSet`` against the fixed-order oracle (``_pairwise_sq``) and a
    brute-force argmin.  Integer coordinates keep every distance exact, and
    a grid of three values per feature makes most rows tie between several
    centres; float coordinates check the fixed-order sum bit for bit.  A
    proposal's rounding is the kernel's own, so proposals are held to what
    holds on every kernel: a settled proposal is the fixed-order answer."""

    @pytest.mark.parametrize("height", [1, 2, 3, "n-1"])
    def test_measure_pairs_and_nearest_match_brute_force(self, rng, height):
        for _ in range(40):
            n, d = int(rng.integers(2, 30)), int(rng.integers(1, 4))
            points = rng.integers(0, 3, (n, d)).astype(np.float64)
            space = PointSet(points, 0)
            # the same set measured against several centre counts reuses
            # (and regrows) its one proposal buffer
            for k in (1, int(rng.integers(2, 9)), int(rng.integers(1, 4))):
                centers = rng.integers(0, 3, (k, d)).astype(np.float64)
                space.cells = (n - 1 if height == "n-1" else height) * k
                want = brute_force_sq(points, centers)
                assert np.array_equal(space.measure(centers), want)

                index, d2 = space.nearest(centers)
                assert np.array_equal(index, want.argmin(axis=1))
                assert np.array_equal(d2, want.min(axis=1))
                # chosen points, repeats and more of them than points included
                chosen = rng.integers(0, n, int(rng.integers(1, 2 * n + 2)))
                assert np.array_equal(space.measure(centers, chosen), want[chosen])
                to = rng.integers(0, k, chosen.size)
                assert np.array_equal(space.pairs(chosen, centers, to), want[chosen, to])

    def test_one_point(self):
        space = PointSet(np.array([[1.0, 2.0]]), 1 << 15)
        centers = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 0.0]])
        assert space.measure(centers).tolist() == [[4.0, 1.0, 4.0]]
        index, d2 = space.nearest(centers)
        assert index.tolist() == [1] and d2.tolist() == [1.0]
        index, d2 = space.nearest(centers[:1])
        assert index.tolist() == [0] and d2.tolist() == [4.0]
        assert space.k_nearest(centers, 2).tolist() == [[0, 1]]

    @pytest.mark.parametrize("n", [1, 2, 37, 300])
    def test_float_distances_are_the_fixed_order_sum(self, rng, n):
        d = int(rng.integers(1, 21))
        points = draw_floats(rng, n, d)
        space = PointSet(points, 0)
        for k in (1, 2, 97):
            # some centres sit on points, where distances cancel to 0
            centers = draw_floats(rng, k, d)
            shared = min(n, k // 2)
            centers[:shared] = points[:shared]
            want = _pairwise_sq(points, centers)
            for cells in (k, 3 * k, 1 << 15):
                space.cells = cells
                assert space.measure(centers).tobytes() == want.tobytes()
                rows = rng.integers(0, n, 2 * n + 3)
                assert space.measure(centers, rows).tobytes() == want[rows].tobytes()
                index, d2 = space.nearest(centers)
                assert np.array_equal(index, want.argmin(axis=1))
                assert d2.tobytes() == want.min(axis=1).tobytes()

    @pytest.mark.parametrize("kind", ["lattice", "duplicates", "float"])
    def test_k_nearest_is_the_fixed_order_ranking(self, monkeypatch, rng, kind):
        # each row's k nearest centres by (fixed-order distance, index), in
        # blocks of one row up to all of them.  Past 256 centres a row's
        # products are screened in strided groups of centres: around that
        # boundary, with a short last group (a tail) or none, k up to every
        # centre, and equal centres in different groups
        groups = clustering._K_NEAREST_GROUPS
        measured = pairs_measured(monkeypatch)
        shapes = [(int(rng.integers(1, 20)), int(rng.integers(1, 40))) for _ in range(25)]
        wide = (
            groups - 1, groups, groups + 1, 2 * groups, 2 * groups + 3,
            int(rng.integers(groups + 2, 701)),
        )
        shapes += [(int(rng.integers(1, 6)), m) for m in wide]
        for n, m in shapes:
            points, centers = draw_ranking_case(rng, kind, n, m)
            if m >= groups:
                # one centre copied into columns spread over the groups
                centers[rng.integers(0, m, m // 8)] = centers[rng.integers(0, m)]
            ks = [int(rng.integers(1, m + 1))]
            if m >= groups:
                ks += [1, int(rng.integers(2, 12)), int(rng.integers(groups, m + 1)), m]
            assert_k_nearest_ranking(points, centers, ks)

        # the near centres sit at j, j + G, j + 2G, ... (G groups), so every
        # other group's minimum is far and the screen keeps far centres too
        for m in (2 * groups + 1, 3 * groups, 4 * groups + 7):
            n = int(rng.integers(1, 6))
            points, centers = draw_ranking_case(rng, kind, n, m)
            near = np.arange(int(rng.integers(0, groups)), m, groups)
            centers[near] = points[rng.integers(0, n, near.size)]
            centers[near] += rng.integers(0, 3, centers[near].shape) * 0.25
            centers[np.setdiff1d(np.arange(m), near)] += 1e5
            for k in (1, 2, near.size, int(rng.integers(near.size + 1, m + 1))):
                assert_k_nearest_ranking(points, centers, [k])
                # with k <= G groups the near centres share one group, so
                # every near centre and each of the k - 1 far groups'
                # nearest is at or below the screen's ceiling
                if 1 < k <= groups:
                    assert min(measured[-3:]) >= n * (near.size + k - 1)

        # a 1e300 margin makes every centre a candidate: each is measured,
        # and the ranking alone decides
        monkeypatch.setattr(
            clustering, "_rounding_errors", lambda space, centers: np.full_like(space.sq, 1e300)
        )
        for n, m in shapes[:10] + [(3, groups + 1), (2, 2 * groups + 3)]:
            points, centers = draw_ranking_case(rng, kind, n, m)
            assert_k_nearest_ranking(points, centers, [int(rng.integers(1, m + 1))])
            assert measured[-3:] == [n * m] * 3

    def test_k_nearest_refuses_a_point_short_of_k_candidates(self):
        # against the first point, 1e200, every centre but 0 and G overflows
        # its product to NaN.  Those two share a strided group, so fewer than
        # k = 2 groups hold a number, yet both are that point's candidates.
        # With k = 3 it is one short: returning the other point's row alone
        # would drop a row without a word
        groups = clustering._K_NEAREST_GROUPS
        points = np.array([[1e200, 0.0], [0.0, 0.0]])
        centers = np.full((groups + 1, 2), 1e200)
        centers[[0, groups]] = [[1.0, 0.0], [2.0, 0.0]]
        with np.errstate(over="ignore", invalid="ignore"):
            for cells in (1, 1 << 15):
                space = PointSet(points, cells)
                assert space.k_nearest(centers, 2).tolist() == [[0, groups]] * 2
                with pytest.raises(ValueError, match="^1 of 2 points have fewer than 3 centres"):
                    space.k_nearest(centers, 3)

    @pytest.mark.parametrize("kind", ["lattice", "float"])
    def test_settled_proposals_agree_with_nearest(self, rng, kind):
        def draw(rows, d):
            if kind == "lattice":
                return rng.integers(0, 3, (rows, d)).astype(np.float64)
            return draw_floats(rng, rows, d)

        settled_rows = contested_rows = 0
        for _ in range(30):
            n, d = int(rng.integers(2, 40)), int(rng.integers(1, 21))
            points = draw(n, d)
            space = PointSet(points, int(rng.integers(2, 200)))
            for k in (1, 2, int(rng.integers(3, 40))):
                # some centres sit on points, some near them, some anywhere
                centers = draw(k, d)
                on = rng.integers(0, n, k)
                centers[:k // 3] = points[on[:k // 3]]
                if kind == "float":
                    near = on[k // 3:2 * k // 3]
                    centers[k // 3:2 * k // 3] = points[near] * (
                        1.0 + 1e-9 * rng.standard_normal((near.size, d))
                    )
                rows = rng.integers(0, n, int(rng.integers(1, 2 * n + 2)))
                # a settled proposal is the fixed-order answer, whatever the kernel
                (index, first, second), settled, margin = settled_proposals(space, centers, rows)
                want = _pairwise_sq(points[rows], centers).argmin(axis=1)
                assert np.array_equal(index[settled], want[settled])
                settled_rows += settled.sum()
                contested_rows += (~settled).sum()
                # each value sits within its margin of the exact distance it
                # stands for (extended precision stands in for exact here)
                exact = brute_force_sq(points.astype(np.longdouble), centers.astype(np.longdouble))[rows]
                picked = np.arange(rows.size)
                assert np.all(np.abs(first - exact[picked, index]) <= margin)
                exact[picked, index] = np.inf
                others = exact.min(axis=1)
                if k == 1:
                    assert np.all(second == np.inf)
                else:
                    assert np.all(np.abs(second - others) <= margin)
                assert (first >= 0.0).all() and (second >= 0.0).all()
                if kind == "lattice":
                    # small integers: every product is exact, so is the proposal
                    want = brute_force_sq(points, centers)[rows]
                    assert np.array_equal(index, want.argmin(axis=1))
                    assert np.array_equal(first, want.min(axis=1))
        assert settled_rows > 0 and contested_rows > 0

    def test_unusable_proposals_stay_contested(self):
        # NaN, infinite and overflowing values never settle a point, and
        # reading them raises no RuntimeWarning (an error in this suite)
        points = np.array([[0.0, 0.0], [np.nan, 1.0], [np.inf, 0.0], [1e200, 0.0], [3.0, 4.0]])
        centers = np.array([[0.0, 0.0], [3.0, 4.0], [-3.0, 4.0]])
        space = PointSet(points, 1 << 15)
        (index, _, _), settled, _ = settled_proposals(space, centers, np.arange(5))
        assert settled.tolist() == [True, False, False, False, True]
        assert index[[0, 4]].tolist() == [0, 1]

    def test_assign_bounds_each_row_with_its_own_margin(self, monkeypatch, rng):
        # a strict subset of the points, with repeats; every other proposal
        # is made NaN, so the contested rows are a strict subset too.  |x|^2,
        # and so Δ, differs by six decades between the small and the large
        # points: each row's bounds, proposed or measured, take its own Δ
        points = np.concatenate([draw_floats(rng, 20, 3) * 1e-3, draw_floats(rng, 20, 3)])
        centers = points[rng.integers(0, 40, 6)] * (1.0 + 1e-6 * rng.standard_normal((6, 3)))
        rows = rng.integers(0, 40, 50)
        real = PointSet.propose

        def propose(space, centers, rows):
            index, first, second = real(space, centers, rows)
            first[::2] = np.nan
            return index, first, second

        monkeypatch.setattr(PointSet, "propose", propose)
        space = PointSet(points, 16)
        (index, first, second), settled, margin = settled_proposals(space, centers, rows)
        assert 0 < settled.sum() < rows.size
        d2 = _pairwise_sq(points[rows], centers)
        measured = d2.argmin(axis=1)
        nearest = d2[np.arange(rows.size), measured]
        d2[np.arange(rows.size), measured] = np.inf
        upper, lower = np.where(
            settled,
            clustering._bounds(first, second, margin),
            clustering._bounds(nearest, d2.min(axis=1), margin),
        )
        got = clustering._assign(space, centers, rows, clustering._rounding_errors(space, centers))
        assert got[0].tolist() == np.where(settled, index, measured).tolist()
        assert got[1].tobytes() == upper.tobytes()
        assert got[2].tobytes() == lower.tobytes()

    @pytest.mark.parametrize("case", ["lattice", "duplicates", "float"])
    def test_every_contested_point_is_measured(self, monkeypatch, case):
        # with no proposal settled, every point each assignment step
        # proposes, the final pass's included, is measured in fixed order,
        # and k-means stays the reference loop bit for bit.  The measured
        # bounds are real, so some later step proposes only its stale points
        rng = np.random.default_rng(7)
        if case == "lattice":
            points, k, seed = rng.integers(0, 20, size=(23, 2)).astype(np.float64), 2, 77
        elif case == "duplicates":
            points, k, seed = np.repeat(rng.integers(0, 3, (20, 3)) * 0.1, 3, axis=0), 6, 3
        else:
            points, k, seed = rng.random((60, 3)), 5, 2
        contest_every_proposal(monkeypatch)
        proposed, measured = measured_rows(monkeypatch)
        result = kmeans(points, k, seed)
        assert len(proposed) >= 3
        assert len(measured) == len(proposed)
        assert all(np.array_equal(a, b) for a, b in zip(proposed, measured))
        assert np.array_equal(measured[-1], np.arange(points.shape[0]))
        assert any(rows.size < points.shape[0] for rows in proposed[1:-1])
        assignments, centroids, iterations, history = reference_kmeans(points, k, seed)
        assert result.assignments.tobytes() == assignments.tobytes()
        assert result.centroids.tobytes() == centroids.tobytes()
        assert result.iterations == iterations
        assert np.float64(result.inertia).tobytes() == np.float64(history[-1]).tobytes()
