"""Identical/inconsistent detection tests.

The oracle is the definition itself, transcribed as a quadratic scan over
all case pairs: case i is identical if some j != i has equal metrics and
equal label, inconsistent if some j has equal metrics and opposite label.
The grouped implementation must reproduce those per-case verdicts exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from defectclean.data import Dataset
from defectclean.datagen import synthetic_corpus
from defectclean.quality import (
    CrossReleaseReport,
    FeatureGroup,
    corpus_quality,
    cross_release_quality,
    release_pairs,
    within_quality,
)

from .conftest import (
    case, collision_dataset, dataset, problem_datasets, random_problem_dataset, vector,
)


def quadratic_counts(ds: Dataset) -> tuple[int, int]:
    """Per-case verdicts via the literal all-pairs definition."""
    identical = 0
    inconsistent = 0
    for i, a in enumerate(ds.cases):
        has_twin = any(
            j != i and b.metrics == a.metrics and b.defective == a.defective
            for j, b in enumerate(ds.cases)
        )
        has_conflict = any(
            b.metrics == a.metrics and b.defective != a.defective
            for b in ds.cases
        )
        identical += has_twin
        inconsistent += has_conflict
    return identical, inconsistent


def quadratic_groups(ds: Dataset) -> tuple[list[FeatureGroup], list[FeatureGroup]]:
    """Identical and inconsistent groups by a scan from each first member."""
    cases = ds.cases
    identical, inconsistent = [], []
    seen_rows, seen_features = set(), set()
    for i, a in enumerate(cases):
        if i not in seen_rows:
            twins = [j for j in range(i, len(cases))
                     if cases[j].metrics == a.metrics and cases[j].defective == a.defective]
            seen_rows.update(twins)
            if len(twins) >= 2:
                identical.append(
                    FeatureGroup(a.metrics, tuple(twins), (a.defective,) * len(twins)))
        if i not in seen_features:
            group = [j for j in range(i, len(cases)) if cases[j].metrics == a.metrics]
            seen_features.update(group)
            labels = tuple(cases[j].defective for j in group)
            if len(set(labels)) > 1:
                inconsistent.append(FeatureGroup(a.metrics, tuple(group), labels))
    return identical, inconsistent


def quadratic_cross(a: Dataset, b: Dataset) -> tuple[int, int]:
    identical = 0
    inconsistent = 0
    for ca in a.cases:
        for cb in b.cases:
            if ca.metrics != cb.metrics:
                continue
            if ca.defective == cb.defective:
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
        assert len(report.identical_groups) == 1
        assert report.identical_groups[0].member_indices == (0, 1)
        assert len(report.inconsistent_groups) == 1
        assert report.inconsistent_groups[0].member_indices == (0, 1, 2)
        assert report.inconsistent_groups[0].mixed

    def test_clean_dataset_is_problem_free(self):
        ds = dataset("ok1.0", [case("a", False, 1), case("b", True, 2)])
        report = within_quality(ds)
        assert report.problem_free
        assert report.identical_groups == ()
        assert report.inconsistent_groups == ()

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
        identical, inconsistent = quadratic_groups(ds)
        assert list(report.identical_groups) == identical
        assert list(report.inconsistent_groups) == inconsistent

    def test_permutation_invariance(self, rng):
        for _ in range(50):
            ds = random_problem_dataset(rng, max_cases=40)
            base = within_quality(ds)
            perm = rng.permutation(len(ds.cases))
            shuffled = ds.replace_cases([ds.cases[i] for i in perm])
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
        groups = within_quality(ds).identical_groups
        assert [g.member_indices for g in groups] == [(0, 2), (1, 3)]


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
            b = Dataset.from_cases(a.project, "9.9", a.project + "9.9", b.cases)
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
