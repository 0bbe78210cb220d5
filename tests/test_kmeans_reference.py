"""k-means against the per-cluster reference loop, bit for bit.

``tests/_reference_kmeans.py`` keeps the original Lloyd loop: one full
``n x k`` matrix of fixed-order distances per pass and one numpy mean per
cluster.  The package's bounded, buffered loop must reproduce its
assignments, centroids, iteration count and inertia history exactly,
because assignment ties (duplicate rows, coincident centroids, small-integer
grids) are decided by the last bit of a distance.  The history is read
through ``max_iter``: a run capped at t iterations reports the inertia
after iteration t.  Rerunning every prefix costs O(t^2) iterations, more
than hundreds of generated inputs can afford, so the generated tests
record the same values in one run (:func:`recorded_run`), and
:class:`TestBoundedLoop` checks that recording against the reruns.

The one documented exception: with a single feature, numpy sums each
cluster's column pairwise, while the buffered loop adds members in row
order, so fractional centroids may differ in the last bit.  Integer-valued
single-feature inputs sum exactly either way and are covered bit for bit.

The assignment step works in row blocks; the result must not depend on
where they split, or on the BLAS kernel that rounds the proposals in them,
so the reference is also compared under blocks of a few rows, which the
generated inputs never span at the default block size.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from defectclean import clustering
from defectclean.clustering import kmeans

from ._reference_kmeans import reference_kmeans
from .test_kmeans import inertia_prefixes, measured_rows


def assert_bit_identical(result, reference, points, k, seed, history=None):
    """``result`` (``kmeans(points, k, seed, ...)``) equals the reference
    bit for bit, and so does ``history``, the inertia after each iteration:
    by default ``kmeans(points, k, seed, max_iter=t).inertia`` for every t."""
    assignments, centroids, iterations, reference_history = reference
    assert result.assignments.dtype == assignments.dtype
    assert result.assignments.tobytes() == assignments.tobytes()
    assert result.centroids.dtype == centroids.dtype
    assert result.centroids.tobytes() == centroids.tobytes()
    assert result.iterations == iterations
    if history is None:
        history = inertia_prefixes(points, k, seed, iterations)
    assert np.array(history).tobytes() == np.array(reference_history).tobytes()
    assert np.float64(result.inertia).tobytes() == np.float64(history[-1]).tobytes()


def recorded_run(points, k, seed, max_iter=100):
    """Run k-means once; return its result and, for each iteration t, the
    inertia that ``kmeans(points, k, seed, max_iter=t)`` reports: the
    nearest-centre distances at iteration t's centroids, summed by the same
    fresh pass.  ``_rounding_errors`` sees those centroids once per
    assignment step, and the last ones once more in the final pass."""
    seen = []
    real = clustering._rounding_errors

    def spy(space, centers):
        seen.append((space, centers.copy()))
        return real(space, centers)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(clustering, "_rounding_errors", spy)
        result = kmeans(points, k, seed, max_iter=max_iter)
    return result, [float(space.nearest(centers)[1].sum()) for space, centers in seen[:-1]]


@st.composite
def kmeans_cases(draw):
    """Inputs where float rounding decides ties, plus every edge of the loop."""
    kind = draw(st.sampled_from(["grid", "duplicates", "all_equal", "scaled"]))
    n = draw(st.integers(1, 60))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "grid":  # small integers: ties between distances are common
        points = rng.integers(0, draw(st.integers(1, 4)), size=(n, d)).astype(np.float64)
    elif kind == "duplicates":  # exact duplicate rows; k above the distinct count
        distinct = rng.integers(0, 5, size=(draw(st.integers(1, 4)), d)) * 0.1
        points = distinct[rng.integers(0, len(distinct), size=n)]
    elif kind == "all_equal":
        points = np.full((n, d), draw(st.sampled_from([0.0, 1.0, 0.3])))
    else:  # min-max scaled, as the peters filter clusters them
        points = rng.random((n, d)) * rng.integers(0, 3, size=d)
        span = points.max(axis=0) - points.min(axis=0)
        points = (points - points.min(axis=0)) / np.where(span > 0, span, 1.0)
    if d == 1 and kind != "grid":
        # single-feature fractional means are the documented exception
        points = np.round(points * 10.0)
    k = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    max_iter = draw(st.one_of(st.integers(1, 3), st.just(100)))
    return points, k, draw(st.integers(0, 2**32 - 1)), max_iter


#: (n, d, k, seed) of the peters filter's shape: 20 scaled metrics,
#: k ~ sqrt(n / 2)
FILTER_SCALE = [(2000, 20, 32, 5), (1500, 20, 27, 9)]


def filter_scale_points(n, d, seed):
    """Min-max scaled heavy-tailed columns with many repeated values."""
    rng = np.random.default_rng(seed)
    raw = np.floor(rng.pareto(1.5, size=(n, d)) * 4.0)
    return raw / np.where(raw.max(axis=0) > 0, raw.max(axis=0), 1.0)


class TestKmeansAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(kmeans_cases())
    def test_bit_identical_to_reference(self, case_args):
        points, k, seed, max_iter = case_args
        result, history = recorded_run(points, k, seed, max_iter)
        assert_bit_identical(
            result, reference_kmeans(points, k, seed, max_iter=max_iter),
            points, k, seed, history,
        )

    @pytest.mark.parametrize("n, d, k, seed", FILTER_SCALE)
    def test_bit_identical_at_filter_scale(self, n, d, k, seed):
        points = filter_scale_points(n, d, seed)
        assert_bit_identical(
            kmeans(points, k, seed), reference_kmeans(points, k, seed), points, k, seed
        )

    def test_edge_cases_are_exercised(self, monkeypatch):
        # the generated cases must reach repair and the iteration cap; pin one
        # input of each so a change to the generator cannot silently drop them
        repaired = []
        real_repair = clustering._repair_empty

        def spy(space, assignments, centroids, k):
            repaired.append(np.bincount(assignments, minlength=k).min() == 0)
            real_repair(space, assignments, centroids, k)

        monkeypatch.setattr(clustering, "_repair_empty", spy)
        duplicates = np.repeat(np.array([[0.0, 0.1], [0.3, 0.2]]), 5, axis=0)
        result = kmeans(duplicates, 4, 0)
        assert any(repaired)
        assert_bit_identical(result, reference_kmeans(duplicates, 4, 0), duplicates, 4, 0)

        rng = np.random.default_rng(3)
        points = rng.random((80, 3))
        capped = kmeans(points, 6, 1, max_iter=2)
        assert capped.iterations == 2
        assert_bit_identical(capped, reference_kmeans(points, 6, 1, max_iter=2), points, 6, 1)

    def test_single_feature_fractional_agrees_to_rounding(self):
        rng = np.random.default_rng(11)
        points = np.concatenate([rng.random(40), 5.0 + rng.random(40)])[:, None]
        result = kmeans(points, 2, 0)
        assignments, centroids, iterations, history = reference_kmeans(points, 2, 0)
        assert np.array_equal(result.assignments, assignments)
        assert result.iterations == iterations
        np.testing.assert_allclose(result.centroids, centroids, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(
            inertia_prefixes(points, 2, 0, iterations), history, rtol=1e-12, atol=0.0
        )


def assert_bit_identical_in_blocks(points, k, seed, rows, max_iter=100):
    """Run k-means in blocks of ``rows`` rows against all ``k`` centres and
    compare it with the reference."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(clustering, "_ASSIGN_BLOCK_CELLS", rows * k)
        result, history = recorded_run(points, k, seed, max_iter)
    assert_bit_identical(
        result, reference_kmeans(points, k, seed, max_iter=max_iter), points, k, seed, history
    )


class TestKmeansBlockLayouts:
    @settings(max_examples=150, deadline=None)
    @given(kmeans_cases(), st.sampled_from([1, 2, 3, "n-1"]))
    def test_bit_identical_to_reference_in_small_blocks(self, case_args, rows):
        points, k, seed, max_iter = case_args
        if rows == "n-1":  # n mod rows == 1: the last block holds one row
            rows = max(1, points.shape[0] - 1)
        assert_bit_identical_in_blocks(points, k, seed, rows, max_iter=max_iter)

    @pytest.mark.parametrize("rows", [2, 3, 7, -1])
    @pytest.mark.parametrize("n, d, k, seed", FILTER_SCALE)
    def test_bit_identical_at_filter_scale_in_small_blocks(self, n, d, k, seed, rows):
        # 2000 and 1500 leave 5 and 2 rows over 7-row blocks and one row
        # over n - 1 (rows == -1); 2000 mod 3 == 2.  Held on every BLAS
        # kernel: a proposal decides only what its margin settles
        points = filter_scale_points(n, d, seed)
        assert_bit_identical_in_blocks(points, k, seed, n - 1 if rows == -1 else rows)


class TestBoundedLoop:
    """Edges of the bounded assignment step, each against the reference bit
    for bit.  A point is measured again only when its bounds cannot prove
    that a full pass would keep it where it is."""

    def test_recorded_history_equals_capped_runs(self):
        # the one-run recording the generated tests use, against the reruns;
        # the duplicates leave clusters empty until the loop stops
        rng = np.random.default_rng(5)
        duplicates = np.repeat(np.array([[0.0, 0.1], [0.3, 0.2]]), 5, axis=0)
        for points, k, max_iter in (
            (rng.random((60, 3)), 5, 100),
            (rng.integers(0, 3, (40, 2)).astype(np.float64), 7, 100),
            (duplicates, 4, 30),
        ):
            result, history = recorded_run(points, k, 2, max_iter)
            assert len(history) == result.iterations
            assert history == inertia_prefixes(points, k, 2, result.iterations)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", ["one", "n"])
    def test_one_cluster_and_one_point_per_cluster(self, seed, k):
        rng = np.random.default_rng(seed)
        points = rng.random((40, 4))
        k = 1 if k == "one" else points.shape[0]
        assert_bit_identical(
            kmeans(points, k, seed), reference_kmeans(points, k, seed), points, k, seed
        )

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_all_equal_points(self, k):
        points = np.full((30, 3), 0.3)
        assert_bit_identical(
            kmeans(points, k, 4, max_iter=20), reference_kmeans(points, k, 4, max_iter=20),
            points, k, 4,
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_integer_grids_full_of_ties(self, seed):
        # every point of {0, 1, 2}^3, each repeated: most distances tie
        grid = np.array(np.meshgrid(*[np.arange(3.0)] * 3)).reshape(3, -1).T
        points = np.repeat(grid, 1 + seed % 3, axis=0)
        k = [2, 3, 4, 8, 9, 13][seed]
        assert_bit_identical(
            kmeans(points, k, seed), reference_kmeans(points, k, seed), points, k, seed
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_raw_features_of_magnitude_1e5(self, seed):
        # unscaled metrics (normalize=False): |x|^2 near 1e10 makes the
        # rounding margin large next to the gaps between near distances
        rng = np.random.default_rng(seed)
        spread = np.floor(rng.pareto(1.5, size=(300, 6)) * 1e4)
        points = np.vstack([spread, 1e5 + rng.integers(0, 40, size=(100, 6)) * 0.5])
        k = 12
        assert_bit_identical(
            kmeans(points, k, seed), reference_kmeans(points, k, seed), points, k, seed
        )

    @pytest.mark.parametrize("bad", ["nan upper", "nan lower", "inf upper", "overflowing upper"])
    def test_unusable_bounds_send_every_point_to_be_measured(self, monkeypatch, bad):
        # comparisons with NaN are false, so a bounds test written the other
        # way round (stale when lhs >= rhs) would keep these points
        value = {"nan": np.nan, "inf": np.inf, "overflowing": 1e200}[bad.split()[0]]
        real_bounds = clustering._bounds

        def bounds_spy(first, second, delta):
            upper, lower = real_bounds(first, second, delta)
            if bad.endswith("upper"):
                upper[:] = value
            else:
                lower[:] = value
            return upper, lower

        monkeypatch.setattr(clustering, "_bounds", bounds_spy)
        proposed, measured = measured_rows(monkeypatch)
        rng = np.random.default_rng(8)
        points = np.repeat(rng.random((30, 3)), 2, axis=0)
        result = kmeans(points, 4, 8)
        assert result.iterations >= 3
        # every assignment step, and then the final pass, proposes every
        # point and, none settled, measures them all in fixed order
        assert len(proposed) == len(measured) == result.iterations + 1
        assert all(np.array_equal(rows, np.arange(60)) for rows in proposed + measured)
        assert_bit_identical(result, reference_kmeans(points, 4, 8), points, 4, 8)

    def test_more_clusters_than_distinct_points_converge(self):
        # empty clusters are repaired once, after the loop: a repair inside
        # it would move a duplicate out and the next assignment move it back,
        # until max_iter
        rng = np.random.default_rng(1)
        distinct = rng.random((4, 3))
        points = distinct[np.arange(45) % 4]
        result = kmeans(points, 45, 1)
        assert result.iterations <= 20
        assert np.bincount(result.assignments, minlength=45).min() == 1
        assert_bit_identical(result, reference_kmeans(points, 45, 1), points, 45, 1)

    def test_too_small_margin_is_caught_by_the_final_pass(self, monkeypatch):
        # one feature near 1e8 on a 0.1 grid: |x|^2 rounds by about 1e16 *
        # eps, more than many gaps between distances.  With no margin some
        # point keeps a centre a fresh pass would not give it.  Both margins
        # are zeroed, the fixed-order one and the proposals', in the loop
        # and in the final pass alike
        rng = np.random.default_rng(0)
        n = int(rng.integers(30, 120))
        points = 1e8 + rng.integers(0, 60, size=(n, 1)) * 0.1
        k = int(rng.integers(2, 8))
        kmeans(points, k, 0)
        monkeypatch.setattr(
            clustering, "_rounding_errors",
            lambda space, centers: (np.zeros(space.sq.size), np.zeros(space.sq.size)),
        )
        with pytest.raises(RuntimeError, match="disagree with a full pass"):
            kmeans(points, k, 0)
