"""Metric tests.

F-measure fixtures below are hand-derived fractions from the confusion
counts.  The AUC oracles are trapezoidal integration of the ROC curve and
an O(n^2) count of concordant pairs, both implemented independently in
this module; the rank-based implementation must agree with the first to
1e-9 and with the exact pair count bit for bit.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from defectclean.evaluation import (
    ConfusionMatrix,
    auc,
    average_change,
    change_rate,
    f_measure,
    precision,
    recall,
)


def pair_count_auc(scores, labels) -> Fraction:
    """O(n^2) Mann-Whitney count: each (defective, clean) pair scores 1
    when the defective case ranks higher and 1/2 when they tie."""
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    halves = sum(2 * (p > q) + (p == q) for p in pos for q in neg)
    return Fraction(halves, 2 * len(pos) * len(neg))


def trapezoid_auc(scores, labels) -> float:
    """ROC curve area by explicit threshold sweep and trapezoid rule."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    order = np.argsort(-s, kind="mergesort")
    s, y = s[order], y[order]
    tps = np.cumsum(y)
    fps = np.cumsum(~y)
    # ROC vertices sit at the last index of each distinct score
    last = np.r_[np.flatnonzero(s[1:] != s[:-1]), s.size - 1]
    tpr = np.r_[0.0, tps[last] / tps[-1]]
    fpr = np.r_[0.0, fps[last] / fps[-1]]
    return float(np.trapezoid(tpr, fpr))


# (tp, fp, tn, fn) -> exact F-measure, worked out by hand from
# F = 2PR / (P + R) with P = tp/(tp+fp), R = tp/(tp+fn)
F_FIXTURES = [
    ((5, 0, 5, 0), Fraction(1)),
    ((0, 0, 10, 0), Fraction(0)),       # nothing defective, nothing flagged
    ((1, 1, 1, 1), Fraction(1, 2)),
    ((3, 1, 4, 2), Fraction(2, 3)),     # P=3/4, R=3/5
    ((2, 3, 1, 0), Fraction(4, 7)),     # P=2/5, R=1
    ((0, 5, 5, 0), Fraction(0)),        # no true positives
    ((0, 0, 5, 5), Fraction(0)),        # nothing flagged
    ((4, 2, 3, 1), Fraction(8, 11)),    # P=2/3, R=4/5
    ((1, 0, 0, 9), Fraction(2, 11)),    # P=1, R=1/10
    ((10, 10, 0, 0), Fraction(2, 3)),   # P=1/2, R=1
    ((7, 3, 80, 10), Fraction(14, 27)), # P=7/10, R=7/17
    ((1, 9, 90, 0), Fraction(2, 11)),   # P=1/10, R=1
]


class TestFMeasure:
    @pytest.mark.parametrize("counts,expected", F_FIXTURES)
    def test_hand_fixtures(self, counts, expected):
        cm = ConfusionMatrix(*counts)
        assert f_measure(cm) == pytest.approx(float(expected), abs=1e-12)

    def test_precision_recall_conventions(self):
        assert precision(ConfusionMatrix(0, 0, 5, 5)) == 0.0
        assert recall(ConfusionMatrix(0, 5, 5, 0)) == 0.0
        assert precision(ConfusionMatrix(3, 1, 0, 0)) == 0.75
        assert recall(ConfusionMatrix(3, 0, 0, 1)) == 0.75

    def test_always_in_unit_interval(self, rng):
        for _ in range(500):
            counts = rng.integers(0, 30, size=4)
            value = f_measure(ConfusionMatrix(*map(int, counts)))
            assert 0.0 <= value <= 1.0

    def test_from_predictions(self):
        truth = [True, True, False, False, True]
        pred = [True, False, True, False, True]
        cm = ConfusionMatrix.from_predictions(truth, pred)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (2, 1, 1, 1)

    def test_from_predictions_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            ConfusionMatrix.from_predictions([True], [True, False])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(1, -1, 0, 0)


class TestAuc:
    def test_textbook_fixture(self):
        assert auc([0.1, 0.4, 0.35, 0.8], [False, False, True, True]) == pytest.approx(0.75)

    def test_perfect_and_inverted_ranking(self):
        labels = [False, False, True, True]
        assert auc([0.1, 0.2, 0.8, 0.9], labels) == pytest.approx(1.0)
        assert auc([0.9, 0.8, 0.2, 0.1], labels) == pytest.approx(0.0)

    def test_constant_scores_give_half(self):
        assert auc([0.3] * 6, [True, False] * 3) == pytest.approx(0.5)

    def test_tie_between_classes_counts_half(self):
        # one tied pos/neg pair contributes 0.5 of its pair weight
        assert auc([0.7, 0.7, 0.2], [True, False, False]) == pytest.approx(0.75)

    def test_single_class_is_undefined(self):
        assert auc([0.1, 0.9], [True, True]) is None
        assert auc([0.1, 0.9], [False, False]) is None

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            auc([0.1, 0.2], [True])
        with pytest.raises(ValueError):
            auc([[0.1], [0.2]], [True, False])

    def test_matches_trapezoid_oracle(self, rng):
        for _ in range(500):
            n = int(rng.integers(2, 40))
            labels = rng.random(n) < 0.5
            if labels.all() or not labels.any():
                continue
            # coarse grid forces plenty of ties
            scores = rng.integers(0, 5, size=n) / 4.0
            assert auc(scores, labels) == pytest.approx(
                trapezoid_auc(scores, labels), abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.booleans()), min_size=1, max_size=60),
           st.sampled_from([0.25, 0.1, 1e-3]))
    def test_equals_concordant_pair_count(self, cells, scale):
        # five score levels over up to 60 cases: ties within and across
        # classes are the rule, and single-class draws are frequent
        scores = [level * scale for level, _ in cells]
        labels = [label for _, label in cells]
        got = auc(scores, labels)
        if all(labels) or not any(labels):
            assert got is None
        else:
            assert got == float(pair_count_auc(scores, labels))

    def test_score_inversion_flips_area(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 30))
            labels = rng.random(n) < 0.5
            if labels.all() or not labels.any():
                continue
            scores = rng.random(n)
            assert auc(-scores, labels) == pytest.approx(1.0 - auc(scores, labels))

    def test_invariant_under_monotone_transform(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 30))
            labels = rng.random(n) < 0.5
            if labels.all() or not labels.any():
                continue
            scores = rng.integers(0, 6, size=n) / 5.0
            base = auc(scores, labels)
            assert auc(3.0 * scores + 1.0, labels) == pytest.approx(base)
            assert auc(scores ** 3, labels) == pytest.approx(base)


class TestChangeRate:
    @pytest.mark.parametrize(
        "original,cleaned,expected",
        [
            (0.5, 0.6, pytest.approx(20.0)),
            (0.5, 0.4, pytest.approx(-20.0)),
            (0.5, 0.5, pytest.approx(0.0)),
            (0.2, 0.8, pytest.approx(300.0)),
            (1.0, 0.0, pytest.approx(-100.0)),
            (0.0, 0.0, pytest.approx(0.0)),  # stayed at zero: 0% by convention
            (0.0, 0.3, None),                # grew from zero: undefined
            (None, 0.3, None),
            (0.3, None, None),
            (None, None, None),
        ],
    )
    def test_fixtures(self, original, cleaned, expected):
        result = change_rate(original, cleaned)
        if expected is None:
            assert result is None
        else:
            assert isinstance(result, float) and result == expected

    def test_average_skips_undefined(self):
        rates = [
            change_rate(0.5, 0.6),   # +20
            change_rate(0.0, 0.3),   # undefined
            change_rate(0.5, 0.4),   # -20
            change_rate(None, 0.1),  # undefined
        ]
        assert average_change(rates) == pytest.approx(0.0)

    def test_average_of_nothing_defined_is_none(self):
        assert average_change([]) is None
        assert average_change([change_rate(0.0, 0.5), None]) is None

    def test_average_plain_mean(self):
        rates = [change_rate(1.0, 1.1), change_rate(1.0, 1.3)]
        assert average_change(rates) == pytest.approx(20.0)
