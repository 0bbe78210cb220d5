"""k-means against the per-cluster reference loop, bit for bit.

``tests/_reference_kmeans.py`` keeps the original Lloyd loop: one ``n x k``
temporary per distance term and one numpy mean per cluster.  The package's
buffered loop must reproduce its assignments, centroids, iteration count and
inertia history exactly, because assignment ties (duplicate rows, coincident
centroids, small-integer grids) are decided by the last bit of a distance.

The one documented exception: with a single feature, numpy sums each
cluster's column pairwise, while the buffered loop adds members in row
order, so fractional centroids may differ in the last bit.  Integer-valued
single-feature inputs sum exactly either way and are covered bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from defectclean import clustering
from defectclean.clustering import kmeans

from ._reference_kmeans import reference_kmeans


def assert_bit_identical(result, reference):
    assignments, centroids, iterations, history = reference
    assert result.assignments.dtype == assignments.dtype
    assert result.assignments.tobytes() == assignments.tobytes()
    assert result.centroids.dtype == centroids.dtype
    assert result.centroids.tobytes() == centroids.tobytes()
    assert result.iterations == iterations
    assert np.array(result.inertia_history).tobytes() == np.array(history).tobytes()
    assert result.inertia == history[-1]


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


class TestKmeansAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(kmeans_cases())
    def test_bit_identical_to_reference(self, case_args):
        points, k, seed, max_iter = case_args
        assert_bit_identical(
            kmeans(points, k, seed, max_iter=max_iter),
            reference_kmeans(points, k, seed, max_iter=max_iter),
        )

    @pytest.mark.parametrize("n, d, k, seed", [(2000, 20, 32, 5), (1500, 20, 27, 9)])
    def test_bit_identical_at_filter_scale(self, n, d, k, seed):
        # the peters filter's shape: 20 scaled metrics, k ~ sqrt(n / 2),
        # heavy-tailed columns with many repeated values
        rng = np.random.default_rng(seed)
        raw = np.floor(rng.pareto(1.5, size=(n, d)) * 4.0)
        points = raw / np.where(raw.max(axis=0) > 0, raw.max(axis=0), 1.0)
        assert_bit_identical(kmeans(points, k, seed), reference_kmeans(points, k, seed))

    def test_edge_cases_are_exercised(self, monkeypatch):
        # the generated cases must reach repair and the iteration cap; pin one
        # input of each so a change to the generator cannot silently drop them
        repaired = []
        real_repair = clustering._repair_empty

        def spy(points, assignments, centroids, k):
            repaired.append(np.bincount(assignments, minlength=k).min() == 0)
            real_repair(points, assignments, centroids, k)

        monkeypatch.setattr(clustering, "_repair_empty", spy)
        duplicates = np.repeat(np.array([[0.0, 0.1], [0.3, 0.2]]), 5, axis=0)
        result = kmeans(duplicates, 4, 0)
        assert any(repaired)
        assert_bit_identical(result, reference_kmeans(duplicates, 4, 0))

        rng = np.random.default_rng(3)
        points = rng.random((80, 3))
        capped = kmeans(points, 6, 1, max_iter=2)
        assert capped.iterations == 2
        assert_bit_identical(capped, reference_kmeans(points, 6, 1, max_iter=2))

    def test_single_feature_fractional_agrees_to_rounding(self):
        rng = np.random.default_rng(11)
        points = np.concatenate([rng.random(40), 5.0 + rng.random(40)])[:, None]
        result = kmeans(points, 2, 0)
        assignments, centroids, iterations, history = reference_kmeans(points, 2, 0)
        assert np.array_equal(result.assignments, assignments)
        assert result.iterations == iterations
        np.testing.assert_allclose(result.centroids, centroids, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(result.inertia_history, history, rtol=1e-12, atol=0.0)
