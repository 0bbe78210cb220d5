"""Identical/inconsistent detection tests.

The oracle is the definition itself, transcribed as a quadratic scan over
all case pairs: case i is identical if some j != i has equal metrics and
equal label, inconsistent if some j has equal metrics and opposite label.
The grouped implementation must reproduce those per-case verdicts exactly.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings

from defectclean import cleaning, data, quality
from defectclean.cleaning import clean_corpus
from defectclean.data import Dataset
from defectclean.datagen import synthetic_corpus
from defectclean.quality import (
    CrossReleaseReport,
    corpus_quality,
    cross_release_quality,
    release_pairs,
    within_quality,
)

from .conftest import (
    case, collision_dataset, dataset, decimal_rows, problem_datasets, random_problem_dataset,
)


def quadratic_counts(ds: Dataset) -> tuple[int, int]:
    """Per-case verdicts via the literal all-pairs definition."""
    cases = [(metrics, bugs >= 1) for _, metrics, bugs in decimal_rows(ds)]
    identical = 0
    inconsistent = 0
    for i, (metrics, defective) in enumerate(cases):
        has_twin = any(
            j != i and other == metrics and label == defective
            for j, (other, label) in enumerate(cases)
        )
        has_conflict = any(
            other == metrics and label != defective for other, label in cases
        )
        identical += has_twin
        inconsistent += has_conflict
    return identical, inconsistent


def quadratic_groups(ds: Dataset) -> list[tuple[int, ...]]:
    """Members of every feature group, by a scan from each first member."""
    metrics = [values for _, values, _ in decimal_rows(ds)]
    groups, seen = [], set()
    for i, key in enumerate(metrics):
        if i not in seen:
            group = tuple(j for j in range(i, len(metrics)) if metrics[j] == key)
            seen.update(group)
            groups.append(group)
    return groups


def quadratic_cross(a: Dataset, b: Dataset) -> tuple[int, int]:
    identical = 0
    inconsistent = 0
    for _, metrics_a, bugs_a in decimal_rows(a):
        for _, metrics_b, bugs_b in decimal_rows(b):
            if metrics_a != metrics_b:
                continue
            if (bugs_a >= 1) == (bugs_b >= 1):
                identical += 1
            else:
                inconsistent += 1
    return identical, inconsistent


class TestWithinQuality:
    def test_hand_fixture(self):
        # {X,+} {X,+} {X,-} {Y,+}: two identical cases, three inconsistent
        ds = dataset("fix1.0", [
            case("a", True, 1, 2),
            case("b", True, 1, 2),
            case("c", False, 1, 2),
            case("d", True, 9, 9),
        ])
        report = within_quality(ds)
        assert report.identical_case_count == 2
        assert report.inconsistent_case_count == 3
        assert not report.problem_free
        ids, first = ds.feature_ids
        assert ids.tolist() == [0, 0, 0, 1]
        assert first.tolist() == [0, 3]
        assert ds.label_counts.tolist() == [[1, 2], [0, 1]]

    def test_clean_dataset_is_problem_free(self):
        ds = dataset("ok1.0", [case("a", False, 1), case("b", True, 2)])
        report = within_quality(ds)
        assert report.problem_free

    def test_identical_requires_equal_label(self):
        ds = dataset("lbl1.0", [case("a", True, 5), case("b", False, 5)])
        report = within_quality(ds)
        assert report.identical_case_count == 0
        assert report.inconsistent_case_count == 2

    def test_formatting_variants_collide(self):
        ds = dataset("fmt1.0", [
            case("a", True, "1.0", "2"),
            case("b", True, "1.00", "2.0"),
        ])
        assert within_quality(ds).identical_case_count == 2

    def test_triple_duplicate_counts_all_members(self):
        ds = dataset("tri1.0", [case(n, False, 7) for n in "abc"])
        assert within_quality(ds).identical_case_count == 3

    def test_matches_quadratic_oracle_on_random_datasets(self, rng):
        for _ in range(300):
            ds = random_problem_dataset(rng, max_cases=60)
            report = within_quality(ds)
            assert (report.identical_case_count,
                    report.inconsistent_case_count) == quadratic_counts(ds)

    @settings(max_examples=300, deadline=None)
    @given(problem_datasets())
    def test_counts_and_groups_match_quadratic_scan(self, ds):
        report = within_quality(ds)
        assert (report.identical_case_count,
                report.inconsistent_case_count) == quadratic_counts(ds)
        ids, first = ds.feature_ids
        groups = quadratic_groups(ds)
        assert [tuple(np.flatnonzero(ids == g).tolist())
                for g in range(len(first))] == groups
        assert first.tolist() == [g[0] for g in groups]

    @settings(max_examples=300, deadline=None)
    @given(problem_datasets())
    def test_label_counts_count_each_metric_vector_and_label(self, ds):
        want = Counter((metrics, bugs >= 1) for _, metrics, bugs in decimal_rows(ds))
        _, first = ds.feature_ids
        got = Counter()
        for row, (clean, defective) in zip(ds.value_ids[first].tolist(),
                                           ds.label_counts.tolist()):
            vector = tuple(ds.values[i] for i in row)
            got.update({(vector, False): clean, (vector, True): defective})
        assert +got == want
        assert (np.diff(first) > 0).all()

    def test_permutation_invariance(self, rng):
        for _ in range(50):
            ds = random_problem_dataset(rng, max_cases=40)
            base = within_quality(ds)
            cases = decimal_rows(ds)
            perm = rng.permutation(len(cases))
            shuffled = ds.replace_cases([cases[i] for i in perm])
            got = within_quality(shuffled)
            assert got.identical_case_count == base.identical_case_count
            assert got.inconsistent_case_count == base.inconsistent_case_count

    def test_collision_generator_has_both_problems(self):
        ds = collision_dataset(seed=7)
        report = within_quality(ds)
        assert report.identical_case_count > 0
        assert report.inconsistent_case_count > 0

    def test_groups_in_first_occurrence_order(self):
        ds = dataset("ord1.0", [
            case("a", True, 3), case("b", True, 1),
            case("c", True, 3), case("d", True, 1),
        ])
        ids, _ = ds.feature_ids
        assert ids.tolist() == [0, 1, 0, 1]


class TestCrossReleaseQuality:
    def test_hand_fixture(self):
        older = dataset("p1.0", [
            case("a", True, 1), case("b", False, 2), case("c", True, 3),
        ])
        newer = dataset("p1.1", [
            case("a", True, 1), case("a2", True, 1),
            case("b", True, 2), case("d", False, 4),
        ])
        report = cross_release_quality(older, newer)
        # key 1: 1 pos vs 2 pos -> 2 identical; key 2: 1 neg vs 1 pos -> 1 inconsistent
        assert report.identical_pair_count == 2
        assert report.inconsistent_pair_count == 1
        assert (report.release_a, report.release_b) == ("p1.0", "p1.1")

    def test_mixed_labels_both_sides(self):
        older = dataset("p1.0", [case("a", True, 1), case("b", False, 1)])
        newer = dataset("p1.1", [case("c", True, 1), case("d", False, 1)])
        report = cross_release_quality(older, newer)
        assert report.identical_pair_count == 2   # (+,+) and (-,-)
        assert report.inconsistent_pair_count == 2  # (+,-) and (-,+)

    def test_matches_quadratic_oracle(self, rng):
        for _ in range(100):
            a = random_problem_dataset(rng, max_cases=40)
            b = random_problem_dataset(rng, max_cases=40)
            b = Dataset.from_cases(a.project + "9.9", decimal_rows(b))
            report = cross_release_quality(a, b)
            assert (report.identical_pair_count,
                    report.inconsistent_pair_count) == quadratic_cross(a, b)

    @settings(max_examples=300, deadline=None)
    @given(problem_datasets(name="p1.0"), problem_datasets(name="p1.1"))
    def test_matches_pair_loop(self, a, b):
        report = cross_release_quality(a, b)
        assert (report.identical_pair_count,
                report.inconsistent_pair_count) == quadratic_cross(a, b)

    def test_requires_same_project_and_distinct_names(self):
        a = dataset("ant1.6", [case("a", True, 1)])
        b = dataset("ivy1.4", [case("b", True, 1)])
        with pytest.raises(ValueError, match="project"):
            cross_release_quality(a, b)
        with pytest.raises(ValueError, match="itself"):
            cross_release_quality(a, a)

    def test_disjoint_releases_report_zero(self):
        a = dataset("p1.0", [case("a", True, 1)])
        b = dataset("p1.1", [case("b", True, 2)])
        report = cross_release_quality(a, b)
        assert report.identical_pair_count == 0
        assert report.inconsistent_pair_count == 0


    def test_empty_release_on_either_side_reports_zero(self):
        cases = [case("a", True, 1), case("b", False, 2)]
        for older, newer in (([], cases), (cases, [])):
            report = cross_release_quality(dataset("p1.0", older), dataset("p1.1", newer))
            assert (report.identical_pair_count, report.inconsistent_pair_count) == (0, 0)


class TestCorpusQuality:
    def test_release_pairs_enumeration(self):
        corpus = synthetic_corpus(seed=3)
        pairs = [(a.name, b.name) for a, b in release_pairs(corpus)]
        # alpha has 2 releases, beta 2, gamma 1
        assert pairs == [("alpha1.0", "alpha1.1"), ("beta2.0", "beta2.1")]

    def test_pair_count_is_choose_two_per_project(self):
        corpus = synthetic_corpus(
            seed=5, releases=("p1.0", "p1.1", "p1.2", "p1.3", "q1.0"))
        assert len(release_pairs(corpus)) == 6  # C(4,2) for p, none for q

    def test_corpus_quality_covers_every_dataset(self):
        corpus = synthetic_corpus(seed=2)
        within, cross = corpus_quality(corpus)
        assert [r.dataset for r in within] == [ds.name for ds in corpus]
        assert all(isinstance(r, CrossReleaseReport) for r in cross)
        assert len(cross) == 2
        within_only, no_cross = corpus_quality(corpus, include_pairs=False)
        assert no_cross == []
        assert [r.dataset for r in within_only] == [r.dataset for r in within]

    def test_each_release_is_grouped_and_sorted_once(self, monkeypatch):
        # four releases of one project make six pairs: every release's rows
        # are grouped and label-counted once, by quality and cleaning
        # together, and each older release's groups sorted once
        corpus = synthetic_corpus(
            seed=5, releases=("p1.0", "p1.1", "p1.2", "p1.3"), duplicate_rate=0.2)
        grouped, counted, sorted_groups = Counter(), Counter(), Counter()
        real_groups = data.row_groups

        def row_groups(rows):
            grouped[len(rows)] += 1
            return real_groups(rows)

        def counting(attr, calls):
            real = getattr(Dataset, attr).func

            def compute(ds):
                calls[ds.name] += 1
                return real(ds)

            prop = cached_property(compute)
            prop.__set_name__(Dataset, attr)
            monkeypatch.setattr(Dataset, attr, prop)

        monkeypatch.setattr(data, "row_groups", row_groups)
        # quality and cleaning do not group rows themselves; if one did,
        # this would count it
        monkeypatch.setattr(quality, "row_groups", row_groups, raising=False)
        monkeypatch.setattr(cleaning, "row_groups", row_groups, raising=False)
        counting("label_counts", counted)
        counting("feature_order", sorted_groups)
        _, cross = corpus_quality(corpus, include_pairs=True)
        clean_corpus(corpus)
        assert len(cross) == 6
        assert grouped == Counter(ds.case_count for ds in corpus)
        assert counted == {ds.name: 1 for ds in corpus}
        assert sorted_groups == {"p1.0": 1, "p1.1": 1, "p1.2": 1}
        for a, b in release_pairs(corpus):
            report = cross_release_quality(a, b)
            assert (report.identical_pair_count,
                    report.inconsistent_pair_count) == quadratic_cross(a, b)

    def test_synthetic_corpus_injects_known_problem_kinds(self):
        corpus = synthetic_corpus(seed=11, duplicate_rate=0.2, inconsistent_rate=0.2)
        within, _ = corpus_quality(corpus, include_pairs=False)
        assert any(r.identical_case_count > 0 for r in within)
        assert any(r.inconsistent_case_count > 0 for r in within)


def test_report_counts_never_exceed_case_count(rng):
    for _ in range(100):
        ds = random_problem_dataset(rng, max_cases=30)
        report = within_quality(ds)
        assert 0 <= report.identical_case_count <= report.case_count
        assert 0 <= report.inconsistent_case_count <= report.case_count
        assert report.identical_case_count != 1  # twins come in groups >= 2
        assert report.inconsistent_case_count != 1
