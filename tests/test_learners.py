"""Learner tests.

Oracles: a scalar transcription of Bayes' rule for the naive Bayes
posteriors, a numeric root-finder for the pessimistic error bound, and the
scalar loop kernels in ``_reference_tree`` for the vectorized ones.  The
perfect-fit property (100% training accuracy on duplicate-free data when
pruning is off) pins the zero-gain fallback behaviour.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from defectclean.learners import (
    LEARNER_NAMES,
    train,
    train_forest,
    train_naive_bayes,
    train_tree,
)
from defectclean.learners.base import RankTable, TrainingMatrix, check_features, predict
from defectclean.learners.forest import FeatureSubsets, default_feature_count, _tree_rng
from defectclean.learners.tree import (
    COUNT_ROWS_PER_VALUE,
    TreeModel,
    _Histograms,
    _pessimistic_errors,
    entropy_table,
    grow_tree_arrays,
    predict_kernel,
    prune_tree,
)

from ._reference_tree import reference_grow, reference_predict, sorting_grow
from .conftest import case, dataset


def matrix(X, y) -> TrainingMatrix:
    return TrainingMatrix(np.asarray(X, dtype=np.float64), np.asarray(y, dtype=bool))


def unpruned_tree(data: TrainingMatrix) -> TreeModel:
    """The tree ``train_tree`` grows on ``data``, before pruning."""
    return TreeModel(data.n_features, [grow_tree_arrays(
        data.X, data.y, np.arange(data.n_rows, dtype=np.int64),
        np.arange(data.n_features, dtype=np.int64)[None, :])])


def only_tree(model: TreeModel) -> tuple[np.ndarray, ...]:
    """The node arrays (feature, threshold, left, right, n, pos) of a
    one-tree model."""
    (tree,) = model.trees
    return tree


def root_feature(model: TreeModel) -> int:
    return int(only_tree(model)[0][0])


def depth(model: TreeModel) -> int:
    """Edges on the longest path from the root to a leaf."""
    feature, _, left, right, _, _ = only_tree(model)
    deepest = 0
    stack = [(0, 0)]
    while stack:
        node, level = stack.pop()
        if feature[node] == -1:
            deepest = max(deepest, level)
        else:
            stack.extend(((int(left[node]), level + 1), (int(right[node]), level + 1)))
    return deepest


def separable(rng, n=60, d=6, gap=8.0) -> TrainingMatrix:
    y = np.arange(n) % 2 == 0
    X = rng.random((n, d))
    X[y] += gap
    return matrix(X, y)


def pool(rng, n, values, d=20) -> TrainingMatrix:
    """A noisy pool whose features take about ``values`` distinct values
    each: 16 integer levels, each jittered into ``values // 16`` steps."""
    levels = rng.integers(0, 16, size=(n, d)).astype(np.float64)
    steps = max(1, values // 16)
    X = levels + rng.integers(0, steps, size=(n, d)) / (steps * 1000.0)
    y = levels[:, :3].sum(axis=1) + rng.normal(0.0, 6.0, n) > 24.0
    return matrix(X, y)


def same_arrays(fast, slow) -> None:
    assert len(fast) == len(slow) == 6
    for a, b in zip(fast, slow):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


@pytest.fixture
def counted_splits(monkeypatch) -> list:
    """Records the node sizes ``(n, pos)`` of every split read off class
    counts rather than sorted."""
    calls = []
    split = _Histograms.split

    def spy(self, hist, feats, n_node, pos, table):
        calls.append((n_node, pos))
        return split(self, hist, feats, n_node, pos, table)

    monkeypatch.setattr(_Histograms, "split", spy)
    return calls


class TestTrainingMatrix:
    def test_from_dataset_columns(self):
        ds = dataset("tm1.0", [case("a", True, 1, 2), case("b", False, 3)])
        data = TrainingMatrix(ds.feature_matrix, ds.labels)
        assert data.n_rows == 2 and data.n_features == 20
        assert data.y.tolist() == [True, False]
        assert data.X[0, 1] == 2.0

    def test_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            matrix([1.0, 2.0], [True, False])
        with pytest.raises(ValueError, match="mismatch"):
            matrix([[1.0], [2.0]], [True])
        with pytest.raises(ValueError, match="empty"):
            matrix(np.empty((0, 3)), np.empty(0, dtype=bool))
        with pytest.raises(ValueError, match="no features"):
            matrix(np.empty((2, 0)), [True, False])


class TestRankTable:
    def test_codes_index_each_columns_sorted_distinct_values(self):
        lo, hi = 1 + 2**-52, 1 + 2**-51
        X = np.array([[2.0, math.inf], [lo, 1.0], [2.0, 1.0], [hi, 0.0], [lo, math.inf]])
        ranks = RankTable.of(X)
        assert ranks.values.tolist() == [lo, hi, 2.0, 0.0, 1.0, math.inf]
        assert ranks.offsets.tolist() == [0, 3, 6]
        assert ranks.feature.tolist() == [0, 0, 0, 1, 1, 1]
        assert ranks.codes.tolist() == [[2, 5], [0, 4], [2, 4], [1, 3], [0, 5]]
        assert np.array_equal(ranks.values[ranks.codes], X)

    def test_built_once_per_matrix_read_only_and_shared(self, monkeypatch):
        built = []
        of = RankTable.of.__func__
        monkeypatch.setattr(RankTable, "of", classmethod(
            lambda cls, X: built.append(X) or of(cls, X)))
        used = []
        init = _Histograms.__init__

        def spy(self, ranks, *args):
            used.append(ranks)
            init(self, ranks, *args)

        monkeypatch.setattr(_Histograms, "__init__", spy)
        data = pool(np.random.default_rng(5), 400, 16)
        train("naive_bayes", data)
        assert built == []  # built in tree training, never before
        train("decision_tree", data)
        train("random_forest", data, seed=2, trees=3)
        # one table, built once and counted over by the tree and every
        # forest tree
        assert len(built) == 1 and built[0] is data.X
        assert len(used) == 4 and all(ranks is data.ranks for ranks in used)
        ranks = data.ranks
        for array in (ranks.codes, ranks.values, ranks.feature, ranks.offsets):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


class TestNaiveBayes:
    def test_posterior_matches_scalar_bayes_rule(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        y = np.array([False, False, False, True, True, True])
        model = train_naive_bayes(matrix(X, y))

        def density(x, mean, var):
            return math.exp(-((x - mean) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)

        for x in (0.5, 5.0, 11.3, 42.0):
            joint = []
            for c, rows in ((0, X[~y]), (1, X[y])):
                mean = rows.mean()
                var = max(rows.var(), 1e-9)
                prior = (3 + 1) / (6 + 2)
                joint.append(prior * density(x, mean, var))
            expected = joint[1] / (joint[0] + joint[1])
            got = model.predict_proba(np.array([[x]]))[0]
            assert got == pytest.approx(expected, abs=1e-12)

    def test_separable_data_classified_perfectly(self, rng):
        data = separable(rng)
        model = train_naive_bayes(data)
        labels, scores = predict(model, data.X)
        assert np.array_equal(labels, data.y)
        assert ((scores >= 0.0) & (scores <= 1.0)).all()

    def test_scores_are_probabilities(self, rng):
        data = separable(rng, n=30)
        scores = train_naive_bayes(data).predict_proba(rng.random((50, 6)) * 10)
        assert scores.shape == (50,)
        assert ((scores >= 0.0) & (scores <= 1.0)).all()

    def test_laplace_priors(self):
        data = matrix([[0.0], [1.0], [2.0], [9.0]], [True, True, True, False])
        model = train_naive_bayes(data)
        assert np.allclose(model.log_prior, np.log([2 / 6, 4 / 6]))

    def test_single_class_training(self):
        all_pos = train_naive_bayes(matrix([[1.0], [2.0]], [True, True]))
        assert all_pos.single_class
        scores = all_pos.predict_proba(np.array([[0.0], [100.0]]))
        assert np.array_equal(scores, [1.0, 1.0])
        all_neg = train_naive_bayes(matrix([[1.0], [2.0]], [False, False]))
        assert np.array_equal(all_neg.predict_proba(np.array([[5.0]])), [0.0])

    def test_constant_feature_hits_variance_floor(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 5.0], [1.0, 6.0]])
        y = np.array([False, False, True, True])
        model = train_naive_bayes(matrix(X, y))
        assert model.variances[:, 0].min() == 1e-9
        probs = model.predict_proba(X)
        assert np.isfinite(probs).all()

def reachable_nodes(model: TreeModel) -> int:
    feature, _, left, right, _, _ = only_tree(model)
    count = 0
    stack = [0]
    while stack:
        node = stack.pop()
        count += 1
        if feature[node] != -1:
            stack.extend((int(left[node]), int(right[node])))
    return count


class TestDecisionTree:
    def test_xor_is_fit_exactly(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([False, True, True, False])
        model = unpruned_tree(matrix(X, y))
        labels, _ = predict(model, X)
        assert np.array_equal(labels, y)
        assert depth(model) == 2

    def test_zero_gain_fallback_takes_first_candidate(self):
        # alternating labels in 1-D: every threshold has zero gain, so the
        # lowest one must be taken
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([False, True, False, True])
        model = unpruned_tree(matrix(X, y))
        assert root_feature(model) == 0
        assert only_tree(model)[1][0] == 0.5
        labels, _ = predict(model, X)
        assert np.array_equal(labels, y)

    def test_perfect_fit_on_unique_rows(self, rng):
        for _ in range(20):
            n = int(rng.integers(5, 60))
            X = rng.random((n, 4))
            y = rng.random(n) < 0.5
            model = unpruned_tree(matrix(X, y))
            labels, _ = predict(model, X)
            assert np.array_equal(labels, y)

    def test_feature_tie_goes_to_lower_index(self):
        # both features separate perfectly; feature 0 must win
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        y = np.array([False, False, True, True])
        model = unpruned_tree(matrix(X, y))
        assert root_feature(model) == 0

    def test_mirror_image_splits_tie_exactly(self):
        # feature "low" cuts the three defects off on the left, "high" on
        # the right: the gain ratios are equal, so the lower feature index
        # must win in either column order
        y = np.array([True] * 3 + [False] * 6)
        low = np.arange(9.0)
        high = low[::-1]
        for X in (np.column_stack([low, high]), np.column_stack([high, low])):
            model = unpruned_tree(matrix(X, y))
            assert root_feature(model) == 0

    def test_unseparable_node_scores_class_fraction(self):
        X = np.array([[1.0], [1.0], [1.0]])
        y = np.array([True, True, False])
        model = unpruned_tree(matrix(X, y))
        assert depth(model) == 0
        assert model.predict_proba(X)[0] == pytest.approx(2 / 3)

    def test_half_score_predicts_defect_free(self):
        X = np.array([[1.0], [1.0]])
        y = np.array([True, False])
        model = train_tree(matrix(X, y))
        labels, scores = predict(model, X)
        assert scores[0] == 0.5
        assert not labels.any()

    def test_pruning_collapses_noise_only_structure(self):
        # 19 clean cases and one stray defect: the pessimistic estimate of
        # one root leaf beats the deep perfect subtree, so everything folds
        X = np.arange(20, dtype=np.float64)[:, None]
        y = np.zeros(20, dtype=bool)
        y[7] = True
        unpruned = unpruned_tree(matrix(X, y))
        pruned = train_tree(matrix(X, y))
        assert depth(unpruned) > 0
        assert depth(pruned) == 0
        assert not predict(pruned, X)[0].any()

    def test_pruning_keeps_genuine_structure(self, rng):
        data = separable(rng, n=80, d=3)
        model = train_tree(data)
        labels, _ = predict(model, data.X)
        assert np.array_equal(labels, data.y)

    def test_pruned_never_larger_than_unpruned(self, rng):
        for _ in range(10):
            X = rng.integers(0, 4, size=(50, 3)).astype(float)
            y = rng.random(50) < 0.4
            full = unpruned_tree(matrix(X, y))
            cut = train_tree(matrix(X, y))
            assert reachable_nodes(cut) <= reachable_nodes(full)

    def test_pruning_drops_unreachable_nodes(self, rng):
        # prune_tree collapses in place, so ``full`` is left as the pruned
        # tree before its unreachable nodes are dropped
        X = rng.random((500, 4))
        y = rng.random(500) < 0.3
        data = matrix(X, y)
        model = train_tree(data)
        assert model.node_count == reachable_nodes(model)
        full = unpruned_tree(data).trees[0]
        compact = prune_tree(*full)
        assert compact[0].shape[0] < full[0].shape[0]
        for a, b in zip(only_tree(model), compact):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        queries = rng.random((200, 4))
        assert np.array_equal(predict_kernel(*full, queries), predict_kernel(*compact, queries))
        # numbered as grown: children after their parent, siblings adjacent
        feature, _, left, right, _, _ = compact
        inner = np.flatnonzero(feature != -1)
        assert (left[inner] > inner).all()
        assert np.array_equal(right[inner], left[inner] + 1)

    def test_feature_dimension_checked(self, rng):
        model = train_tree(separable(rng, n=10, d=4))
        with pytest.raises(ValueError, match="dimension"):
            model.predict_proba(np.zeros((2, 5)))

class TestPessimisticBound:
    def test_matches_numeric_root(self):
        # the bound U solves f_obs = U - z * sqrt(U (1-U) / n); invert it by
        # bisection instead of algebra
        z = 0.6744897501960817
        for n, e in [(10, 0), (10, 3), (50, 1), (7, 7), (100, 25), (1, 0)]:
            f_obs = min(1.0, (e + 0.5) / n)
            lo, hi = f_obs, 1.0
            for _ in range(200):
                mid = (lo + hi) / 2
                if mid - z * math.sqrt(mid * (1 - mid) / n) < f_obs:
                    lo = mid
                else:
                    hi = mid
            expected = n * min(1.0, lo)
            assert _pessimistic_errors(n, e, z) == pytest.approx(expected, abs=1e-6)

    def test_monotone_in_errors(self):
        z = 0.6744897501960817
        values = [_pessimistic_errors(40, e, z) for e in range(0, 20)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[0] > 0  # even an error-free leaf gets a positive charge


@st.composite


def kernel_cases(draw):
    """Small trees with every awkward input the kernel must handle."""
    # from a few dozen rows on, the root and other big nodes count their
    # classes per value instead of sorting
    n = draw(st.integers(1, 200))
    wide = draw(st.booleans())  # the 20 standard metrics, 5 per forest node
    d = 20 if wide else draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.integers(1, 6))  # 1: every value tied
    X = rng.integers(0, levels, size=(n, d)).astype(np.float64)
    values = draw(st.sampled_from(["integers", "decimals", "inf", "adjacent"]))
    if values == "decimals":
        X *= 0.1  # decimal ratios: midpoints round
    elif values == "inf":
        X[X == levels - 1] = math.inf  # midpoints with inf are inf
    elif values == "adjacent":
        # adjacent floats: their midpoint rounds up onto the upper one
        X[X == 0] = 1 + 2**-52
        X[X == 1] = 1 + 2**-51
    X[:, rng.random(d) < draw(st.sampled_from([0.0, 0.3]))] = 3.0  # constant
    y = rng.random(n) < draw(st.sampled_from([0.1, 0.5, 0.9]))
    if d >= 2 and draw(st.booleans()):  # XOR: no single split has gain
        X[:, :2] = rng.integers(0, 2, size=(n, 2))
        y = X[:, 0] != X[:, 1]
    if draw(st.booleans()):  # equal rows with opposite labels
        half = n // 2
        X[half:2 * half] = X[:half]
        y[half:2 * half] = ~y[:half]
    sampling = draw(st.sampled_from(["all", "bootstrap", "few_rows"]))
    if sampling == "bootstrap":  # duplicates
        idx = rng.integers(0, n, size=n, dtype=np.int64)
    elif sampling == "few_rows":  # heavy duplicates of at most 3 rows
        few = rng.choice(n, size=min(n, 3), replace=False)
        idx = few[rng.integers(0, few.size, size=draw(st.integers(1, 40)))].astype(np.int64)
    else:
        idx = np.arange(n, dtype=np.int64)
    if draw(st.booleans()):  # per-node feature subsets
        m = 5 if wide else draw(st.integers(1, d))
        perms = np.argsort(rng.random((2 * idx.size + 1, d)), axis=1)
        table = np.sort(perms[:, :m], axis=1).astype(np.int64)
    else:
        table = np.arange(d, dtype=np.int64)[None, :]
    return X, y, idx, table


def eager_subsets(gen, n, d, m):
    """The forest's per-node feature table drawn in one call, as the seed
    contract defines it (after the bootstrap draw)."""
    perms = gen.permuted(np.tile(np.arange(d, dtype=np.int64), (2 * n + 1, 1)), axis=1)
    return np.sort(perms[:, :m], axis=1)


class TestKernelAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(kernel_cases())
    def test_grow_equals_scalar_reference(self, case_args):
        X, y, idx, table = case_args
        fast = grow_tree_arrays(X, y, idx, table)
        slow = reference_grow(X, y, idx, table)
        assert len(fast) == len(slow) == 6
        for a, b in zip(fast, slow):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    def test_grow_equals_reference_on_forest_trees(self, rng):
        data = separable(rng, n=120, d=20, gap=0.5)
        forest = train_forest(data, 3, seed=4)
        for t, arrays in enumerate(forest.trees):
            gen = _tree_rng(4, t)
            idx = gen.integers(0, 120, size=120, dtype=np.int64)
            perms = gen.permuted(np.tile(np.arange(20, dtype=np.int64), (241, 1)), axis=1)
            table = np.sort(perms[:, :5], axis=1)
            for a, b in zip(arrays, reference_grow(data.X, data.y, idx, table)):
                assert np.array_equal(a, b)

    def test_lazy_subsets_past_the_first_chunk_equal_the_eager_table(self, rng):
        # noise labels need hundreds of nodes, so the trees split at node
        # ids beyond the first 256-row chunk of lazily drawn subsets
        n = 800
        data = matrix(rng.random((n, 20)), rng.random(n) < 0.5)
        forest = train_forest(data, 2, seed=7)
        for t, arrays in enumerate(forest.trees):
            assert np.flatnonzero(arrays[0] != -1).max() >= 256
            gen = _tree_rng(7, t)
            idx = gen.integers(0, n, size=n, dtype=np.int64)
            table = eager_subsets(gen, n, 20, 5)
            for a, b in zip(arrays, reference_grow(data.X, data.y, idx, table)):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("idx", [[0, 1, 2, 3], [0, 1, 1, 2, 3, 3]])
    def test_midpoint_rounding_onto_the_upper_value(self, idx):
        # these adjacent floats have a midpoint that rounds up to ``hi``, so
        # ``x <= t`` also sends the ``hi`` rows left: the left child is not
        # the rows below the gap, and its counts must follow the test
        lo, hi = 1 + 2**-52, 1 + 2**-51
        assert (lo + hi) / 2 == hi
        X = np.array([[lo], [hi], [5.0], [6.0]])
        y = np.array([True, False, False, False])
        idx = np.array(idx, dtype=np.int64)
        table = np.zeros((1, 1), dtype=np.int64)
        fast = grow_tree_arrays(X, y, idx, table)
        slow = reference_grow(X, y, idx, table)
        assert fast[0][0] == 0 and fast[1][0] == hi
        assert fast[4][1] == np.count_nonzero(idx <= 1)
        for a, b in zip(fast, slow):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("lo,hi", [(5.0, math.inf), (1 + 2**-52, 1 + 2**-51)])
    def test_split_that_separates_nothing_leaves_a_leaf(self, lo, hi):
        # the midpoint is the upper value itself, so ``x <= t`` sends both
        # rows left; the node must stop as a leaf, not repeat the split
        # until the node arrays overflow
        assert (lo + hi) / 2 == hi
        X = np.array([[lo], [hi]])
        y = np.array([True, False])
        model = train_tree(TrainingMatrix(X, y))
        feature, _, _, _, node_n, node_pos = only_tree(model)
        assert feature.tolist() == [-1]
        assert (node_n[0], node_pos[0]) == (2, 1)
        assert predict(model, X)[1].tolist() == [0.5, 0.5]
        table = np.zeros((1, 1), dtype=np.int64)
        for rows in ([0, 1], [0, 0, 1], [0, 1, 1]):
            idx = np.array(rows, dtype=np.int64)
            for a, b in zip(grow_tree_arrays(X, y, idx, table),
                            reference_grow(X, y, idx, table)):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("values", ["inf", "adjacent"])
    def test_big_nodes_with_inf_and_adjacent_floats(self, values, counted_splits):
        # 200 rows over 4 levels per feature, so the nodes near the root
        # count their classes; feature 3's top gap has the midpoint inf, or
        # its bottom gap a midpoint that rounds onto the upper value
        rng = np.random.default_rng(11)
        X = rng.integers(0, 4, size=(200, 4)).astype(np.float64)
        y = X[:, 0] + X[:, 3] + rng.normal(0.0, 1.0, 200) > 3.0
        if values == "inf":
            X[X[:, 3] == 3, 3] = math.inf
        else:
            X[X[:, 3] == 0, 3] = 1 + 2**-52
            X[X[:, 3] == 1, 3] = 1 + 2**-51
        for idx in (np.arange(200), rng.integers(0, 200, size=200)):
            for table in (np.arange(4)[None, :], np.array([[3]])):
                counted_splits.clear()
                fast = grow_tree_arrays(X, y, idx, table)
                same_arrays(fast, reference_grow(X, y, idx, table))
                same_arrays(fast, sorting_grow(X, y, idx, table))
                assert len(counted_splits) >= 2

    def test_degenerate_split_below_a_real_one(self):
        # the root splits 0 from the rest; its right child holds 5 and inf
        # with both labels and can only be a leaf
        X = np.array([[0.0], [0.0], [5.0], [math.inf]])
        y = np.array([False, False, True, False])
        idx = np.arange(4, dtype=np.int64)
        table = np.zeros((1, 1), dtype=np.int64)
        fast = grow_tree_arrays(X, y, idx, table)
        for a, b in zip(fast, reference_grow(X, y, idx, table)):
            assert np.array_equal(a, b)
        assert fast[0].tolist() == [0, -1, -1]
        assert fast[4].tolist() == [4, 2, 2] and fast[5].tolist() == [1, 0, 1]
        forest = train_forest(TrainingMatrix(X, y), 5, seed=0)
        assert forest.predict_proba(X).shape == (4,)

    @settings(max_examples=100, deadline=None)
    @given(kernel_cases())
    def test_predict_equals_scalar_reference(self, case_args):
        X, y, idx, table = case_args
        arrays = grow_tree_arrays(X, y, idx, table)
        queries = np.vstack([X, X + 0.05, X - 0.05])
        assert np.array_equal(
            predict_kernel(*arrays, queries), reference_predict(*arrays, queries))

    def test_entropy_table(self):
        table = entropy_table(6)
        assert table[0] == 0.0 and table[1] == 0.0
        for k in range(2, 7):
            assert table[k] == pytest.approx(k * math.log2(k), rel=1e-15)


class TestCountingAgainstSorting:
    """The kernel against the all-sorting oracle on pools with thousands of
    rows, where big nodes count their classes."""

    @pytest.mark.parametrize("n,values,forest_counts", [
        (2400, 16, True),     # the benchmark twin's narrow features
        (2400, 480, False),   # jittered: the forest's nodes all sort
        (6000, 2000, False),
    ])
    def test_pruned_tree_and_forest(self, n, values, forest_counts, counted_splits):
        data = pool(np.random.default_rng(values), n, values)
        assert values * 0.8 < data.ranks.values.size / 20 <= values
        idx = np.arange(n, dtype=np.int64)
        table = np.arange(20, dtype=np.int64)[None, :]
        same_arrays(grow_tree_arrays(data.X, data.y, idx, table, data.ranks),
                    sorting_grow(data.X, data.y, idx, table))
        assert counted_splits
        assert all(n_node >= COUNT_ROWS_PER_VALUE * data.ranks.values.size / 20
                   for n_node, _ in counted_splits)
        same_arrays(only_tree(train_tree(data)),
                    prune_tree(*sorting_grow(data.X, data.y, idx, table)))

        counted_splits.clear()
        forest = train_forest(data, 5, seed=1)
        for t, arrays in enumerate(forest.trees):
            gen = _tree_rng(1, t)
            idx = gen.integers(0, n, size=n, dtype=np.int64)
            same_arrays(arrays, sorting_grow(data.X, data.y, idx, eager_subsets(gen, n, 20, 5)))
        assert bool(counted_splits) == forest_counts


class TestRandomForest:
    def test_deterministic_per_seed(self, rng):
        data = separable(rng, n=40, d=8, gap=1.0)
        a = train_forest(data, 10, seed=5)
        b = train_forest(data, 10, seed=5)
        assert len(a.trees) == len(b.trees) == 10
        for tree_a, tree_b in zip(a.trees, b.trees):
            for x, y in zip(tree_a, tree_b):
                assert x.dtype == y.dtype and np.array_equal(x, y)
        assert np.array_equal(a.predict_proba(data.X), b.predict_proba(data.X))

    def test_seed_changes_the_forest(self, rng):
        data = separable(rng, n=40, d=8, gap=1.0)
        a = train_forest(data, 5, seed=1)
        b = train_forest(data, 5, seed=2)
        assert any(
            not np.array_equal(x, y)
            for tree_a, tree_b in zip(a.trees, b.trees)
            for x, y in zip(tree_a, tree_b)
        )

    def test_degenerate_forest_equals_plain_tree(self, rng):
        # with two features every node considers both (m == d), so a
        # one-tree forest is an unpruned tree on that tree's bootstrap sample
        data = separable(rng, n=50, d=2, gap=0.3)
        assert default_feature_count(2) == 2
        forest = train_forest(data, 1, seed=6)
        idx = _tree_rng(6, 0).integers(0, 50, size=50, dtype=np.int64)
        tree = unpruned_tree(matrix(data.X[idx], data.y[idx]))
        grid = rng.random((40, 2)) * 1.3
        assert np.array_equal(forest.predict_proba(grid), tree.predict_proba(grid))

    def test_score_is_mean_of_tree_scores(self, rng):
        data = separable(rng, n=30, d=5, gap=1.0)
        model = train_forest(data, 7, seed=3)
        X = np.ascontiguousarray(rng.random((12, 5)))
        per_tree = np.empty((7, 12))
        for t, arrays in enumerate(model.trees):
            per_tree[t] = reference_predict(*arrays, X)
        assert np.allclose(model.predict_proba(X), per_tree.mean(axis=0))

    def test_first_tree_reproducible_from_seed_contract(self, rng):
        # the per-tree substream is derived from (seed, tree index); tree 0
        # must equal a tree grown from exactly those draws
        data = separable(rng, n=25, d=20, gap=1.0)
        model = train_forest(data, 2, seed=9)
        gen = _tree_rng(9, 0)
        idx = gen.integers(0, 25, size=25, dtype=np.int64)
        perms = np.tile(np.arange(20, dtype=np.int64), (51, 1))
        perms = gen.permuted(perms, axis=1)
        table = np.ascontiguousarray(np.sort(perms[:, :5], axis=1))
        expected = grow_tree_arrays(
            np.ascontiguousarray(data.X), data.y, idx, table)
        for a, b in zip(model.trees[0], expected):
            assert np.array_equal(a, b)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400),
           d=st.integers(1, 20), data=st.data())
    def test_lazy_subsets_equal_one_permuted_call(self, seed, n, d, data):
        m = data.draw(st.integers(1, d))
        rows = 2 * n + 1
        splits = sorted(data.draw(st.lists(st.integers(0, rows), max_size=4)))
        nodes = data.draw(st.lists(st.integers(0, rows - 1), max_size=6))
        eager = _tree_rng(seed, 0)
        eager.integers(0, n, size=n, dtype=np.int64)
        expected = eager_subsets(eager, n, d, m)
        lazy = _tree_rng(seed, 0)
        lazy.integers(0, n, size=n, dtype=np.int64)
        subsets = FeatureSubsets(lazy, d, m, rows)
        assert len(subsets) == rows
        for split in splits:  # explicit chunk boundaries
            subsets.draw_to(max(split, subsets.drawn))
        for node in nodes:  # on-demand chunks, in any order
            assert np.array_equal(subsets[node], expected[node])
        subsets.draw_to(rows)
        assert np.array_equal(subsets.table, expected)

    def test_default_feature_count(self):
        assert default_feature_count(20) == 5
        assert default_feature_count(16) == 5
        assert default_feature_count(1) == 1

    def test_tree_count(self, rng):
        data = separable(rng, n=20, d=20, gap=1.0)
        assert len(train_forest(data, seed=0).trees) == 100
        with pytest.raises(ValueError, match="at least one tree"):
            train_forest(data, 0)

class TestDispatch:
    def test_learner_names(self):
        assert LEARNER_NAMES == ("naive_bayes", "decision_tree", "random_forest")

    def test_train_routes_and_forwards_trees_and_seed(self, rng):
        data = separable(rng, n=20, d=4, gap=1.0)
        X = rng.random((30, 4)) * 2
        nb = train("naive_bayes", data)
        assert np.array_equal(nb.predict_proba(X), train_naive_bayes(data).predict_proba(X))
        tree = train("decision_tree", data)
        assert len(tree.trees) == 1
        assert np.array_equal(tree.predict_proba(X), train_tree(data).predict_proba(X))
        forest = train("random_forest", data, seed=3, trees=4)
        assert len(forest.trees) == 4
        expected = train_forest(data, 4, seed=3).predict_proba(X)
        assert np.array_equal(forest.predict_proba(X), expected)
        assert not np.array_equal(train_forest(data, 4, seed=4).predict_proba(X), expected)

    @pytest.mark.parametrize("name", LEARNER_NAMES)
    def test_scores_are_one_vector(self, name, rng):
        data = separable(rng, n=20, d=4, gap=1.0)
        scores = train(name, data, trees=3).predict_proba(rng.random((7, 4)))
        assert scores.shape == (7,) and scores.dtype == np.float64

    @pytest.mark.parametrize("name", LEARNER_NAMES)
    def test_nan_features_are_rejected(self, name, rng):
        data = separable(rng, n=20, d=4, gap=1.0)
        X = data.X.copy()
        X[3, 2] = math.nan
        with pytest.raises(ValueError, match="NaN"):
            train(name, matrix(X, data.y), trees=3)
        model = train(name, data, trees=3)
        with pytest.raises(ValueError, match="NaN"):
            model.predict_proba(X)
        X[3, 2] = math.inf  # inf stays a value
        assert matrix(X, data.y).n_rows == 20
        assert check_features(4, X) is not None

    def test_unknown_learner(self, rng):
        with pytest.raises(ValueError, match="unknown learner"):
            train("svm", separable(rng, n=10, d=3))

