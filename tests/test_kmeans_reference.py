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

The assignment step works in row blocks; the result must not depend on
where they split, so the reference is also compared under blocks of a few
rows, which the generated inputs never span at the default block size.
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
        assert_bit_identical(
            kmeans(points, k, seed, max_iter=max_iter),
            reference_kmeans(points, k, seed, max_iter=max_iter),
        )

    @pytest.mark.parametrize("n, d, k, seed", FILTER_SCALE)
    def test_bit_identical_at_filter_scale(self, n, d, k, seed):
        points = filter_scale_points(n, d, seed)
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


def assert_bit_identical_in_blocks(points, k, seed, rows, max_iter=100):
    """Run k-means in blocks of ``rows`` rows and compare it with the
    reference.  Every assignment block holds ``rows`` rows except the last,
    which holds 2 to ``rows + 1``: a lone trailing row joins the block
    before it.  Initialisation and repair measure against one centre, so
    their blocks are ``rows * k`` high; only the assignment layout is
    checked here."""
    n = points.shape[0]
    layouts = []
    real = clustering._blocks

    def spy(n_rows, step):
        layout = real(n_rows, step)
        if (n_rows, step) == (n, rows):
            layouts.append(layout)
        return layout

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(clustering, "_ASSIGN_BLOCK_CELLS", rows * k)
        patch.setattr(clustering, "_blocks", spy)
        result = kmeans(points, k, seed, max_iter=max_iter)
    # one assignment per iteration, all in the same layout
    assert len(layouts) >= result.iterations
    blocks = layouts[0]
    assert all(layout == blocks for layout in layouts)
    assert [b[0] for b in blocks] == [0] + [b[1] for b in blocks[:-1]]
    assert blocks[-1][1] == n
    heights = [stop - start for start, stop in blocks]
    assert set(heights[:-1]) <= {rows}
    assert 2 <= heights[-1] <= rows + 1 or heights == [1] == [n]
    assert_bit_identical(result, reference_kmeans(points, k, seed, max_iter=max_iter))


class TestKmeansBlockLayouts:
    @settings(max_examples=150, deadline=None)
    @given(kmeans_cases(), st.sampled_from([2, 3, "n-1"]))
    def test_bit_identical_to_reference_in_small_blocks(self, case_args, rows):
        points, k, seed, max_iter = case_args
        if rows == "n-1":  # n mod rows == 1: the last row joins the block before
            rows = max(2, points.shape[0] - 1)
        assert_bit_identical_in_blocks(points, k, seed, rows, max_iter=max_iter)

    @pytest.mark.parametrize("rows", [2, 3, 7, -1])
    @pytest.mark.parametrize("n, d, k, seed", FILTER_SCALE)
    def test_bit_identical_at_filter_scale_in_small_blocks(self, n, d, k, seed, rows):
        # 2000 and 1500 leave 5 and 2 rows over 7-row blocks and one row
        # over n - 1 (rows == -1); 2000 mod 3 == 2
        points = filter_scale_points(n, d, seed)
        assert_bit_identical_in_blocks(points, k, seed, n - 1 if rows == -1 else rows)
