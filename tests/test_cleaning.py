"""Cleaning procedure tests.

``clean_oracle`` from ``tests/_reference_cleaning.py`` (a literal quadratic
transcription of the pairwise deletion procedure) is the differential
oracle here; the production implementation must agree with it on every
random dataset, field by field.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from defectclean.cleaning import clean, clean_corpus
from defectclean.datagen import synthetic_corpus
from defectclean.quality import within_quality

from ._reference_cleaning import clean_oracle
from .conftest import (
    case, collision_dataset, dataset, decimal_rows, problem_datasets, random_problem_dataset,
)


class TestCleanFixtures:
    def test_hand_fixture(self):
        # {X,+} {X,+} {X,-} {Y,+}: one duplicate removed, then the mixed
        # X group (two survivors) dropped entirely; only {Y,+} remains.
        ds = dataset("fix1.0", [
            case("a", True, 1), case("b", True, 1),
            case("c", False, 1), case("d", True, 9),
        ])
        result = clean(ds)
        assert result.removed_duplicates == 1
        assert result.removed_inconsistent == 2
        assert result.removed_cases == 3
        assert result.removed_defective == 2
        assert result.removed_indices == (0, 1, 2)
        assert result.cleaned.class_names == ("d",)

    def test_step_order_is_not_swappable(self):
        # {X,+} {X,+} {X,-}: dedup first leaves {X,+} {X,-}, then the mixed
        # group goes -> empty.  Inconsistency removal first would delete
        # {X,+}(first) and {X,-}, and the surviving duplicate {X,+} would
        # then be kept by dedup -> one case.  The implementation must do
        # the former.
        ds = dataset("ord1.0", [
            case("a", True, 1), case("b", True, 1), case("c", False, 1),
        ])
        result = clean(ds)
        assert result.cleaned.case_count == 0
        assert result.removed_duplicates == 1
        assert result.removed_inconsistent == 2

    def test_clean_dataset_untouched(self):
        ds = dataset("ok1.0", [case("a", False, 1), case("b", True, 2)])
        result = clean(ds)
        assert result.cleaned == ds
        assert result.removed_cases == 0
        assert result.removed_indices == ()

    def test_duplicates_keep_first_occurrence(self):
        ds = dataset("first1.0", [
            case("z", True, 4), case("m", True, 4), case("a", True, 4),
        ])
        result = clean(ds)
        assert result.cleaned.class_names == ("z",)
        assert result.removed_duplicates == 2

    def test_survivors_keep_relative_order(self):
        ds = dataset("order1.0", [
            case("a", False, 5), case("b", True, 6),
            case("c", False, 5), case("d", False, 7),
        ])
        result = clean(ds)
        assert result.cleaned.class_names == ("a", "b", "d")

    def test_identity_preserved(self):
        ds = dataset("xercesinit", [case("a", True, 1)])
        cleaned = clean(ds).cleaned
        assert (cleaned.project, cleaned.release, cleaned.name) == (
            "xerces", "init", "xercesinit")


class TestCleanProperties:
    def test_idempotent(self, rng):
        for _ in range(100):
            ds = random_problem_dataset(rng, max_cases=60)
            once = clean(ds).cleaned
            again = clean(once)
            assert again.cleaned == once
            assert again.removed_cases == 0

    def test_output_is_problem_free(self, rng):
        for _ in range(100):
            ds = random_problem_dataset(rng, max_cases=60)
            report = within_quality(clean(ds).cleaned)
            assert report.problem_free

    def test_output_rows_unique_even_across_labels(self, rng):
        for _ in range(50):
            ds = random_problem_dataset(rng, max_cases=60)
            cleaned = clean(ds).cleaned
            keys = [metrics for _, metrics, _ in decimal_rows(cleaned)]
            assert len(keys) == len(set(keys))

    def test_counts_are_consistent(self, rng):
        for _ in range(100):
            ds = random_problem_dataset(rng, max_cases=60)
            result = clean(ds)
            assert result.removed_cases == len(result.removed_indices)
            assert ds.case_count == result.cleaned.case_count + result.removed_cases
            assert result.removed_defective <= result.removed_cases
            removed_set = set(result.removed_indices)
            survivors = [c for i, c in enumerate(decimal_rows(ds)) if i not in removed_set]
            assert survivors == decimal_rows(result.cleaned)

    def test_agrees_with_quadratic_oracle(self, rng):
        for _ in range(300):
            ds = random_problem_dataset(rng, max_cases=60)
            fast = clean(ds)
            slow = clean_oracle(ds)
            assert fast == slow

    def test_agrees_with_oracle_on_collision_heavy_data(self):
        for seed in range(20):
            ds = collision_dataset(seed=seed)
            assert clean(ds) == clean_oracle(ds)

    def test_oracle_refuses_large_input(self, rng):
        ds = random_problem_dataset(rng, max_cases=30)
        with pytest.raises(ValueError, match="quadratic"):
            clean_oracle(ds, size_bound=ds.case_count - 1)


class TestCleanAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(problem_datasets())
    def test_equals_oracle_and_is_idempotent(self, ds):
        result = clean(ds)
        assert result == clean_oracle(ds)  # every CleanResult field
        again = clean(result.cleaned)
        assert again.cleaned == result.cleaned
        assert again.removed_indices == ()


class TestCleanCorpus:
    def test_summary_identities(self):
        corpus = synthetic_corpus(seed=9, duplicate_rate=0.15, inconsistent_rate=0.1)
        cleaned, summary = clean_corpus(corpus)
        assert [ds.name for ds in cleaned] == [ds.name for ds in corpus]
        assert len(summary) == len(corpus)
        for original, out, row in zip(corpus, cleaned, summary):
            assert row.dataset == original.name
            assert row.case_count == out.case_count
            assert row.defective_count == out.defective_count
            assert row.removed_cases == original.case_count - out.case_count
            assert row.removed_defective == (
                original.defective_count - out.defective_count)

    def test_results_are_each_datasets_clean(self):
        corpus = synthetic_corpus(seed=9, duplicate_rate=0.15, inconsistent_rate=0.1)
        _, results = clean_corpus(corpus)
        assert results == [clean(ds) for ds in corpus]

    def test_cleaned_corpus_is_problem_free(self):
        corpus = synthetic_corpus(seed=4, duplicate_rate=0.2, inconsistent_rate=0.2)
        cleaned, _ = clean_corpus(corpus)
        for ds in cleaned:
            assert within_quality(ds).problem_free
