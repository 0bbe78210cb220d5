"""Detection of identical and inconsistent cases.

Two cases are *identical* when all 20 metric values and the label agree;
a case is *inconsistent* when some other case has the same 20 metric values
but the opposite label.  Counts are case counts, not pair counts: a case is
counted once as identical if it has at least one full-row-equal partner, and
once as inconsistent if its feature group carries both labels.

Both analyses read :attr:`Dataset.label_counts`: each exact feature group's
clean and defective case counts, the groups numbered by first occurrence
from the rows of value ids (:attr:`Dataset.feature_ids`).  Within a
release, every count of two or more is a set of identical cases, and every
group with both counts nonzero a set of inconsistent ones.  Reports carry
only the counts.

Across two releases of one project, the newer release's value table is
mapped into the older one's through a dict over the distinct values (far
fewer than the cases), which turns the newer release's group rows into rows of
the older release's value ids.  A binary search among the older release's
group rows then gives each newer group its older group, if any.  The
search's key order (:attr:`Dataset.feature_order`) is the one the grouping
sort already found (:func:`~defectclean.data.row_groups`), so no release's
groups are sorted a second time.  For the matched groups'
label counts ``a`` (older) and ``b`` (newer), the pair counts are
``(a * b).sum()`` identical pairs and ``(a * b[:, ::-1]).sum()``
inconsistent ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Corpus, Dataset, row_keys, value_positions


@dataclass(frozen=True)
class WithinQualityReport:
    """Identical/inconsistent counts for one dataset."""

    dataset: str
    case_count: int
    identical_case_count: int
    inconsistent_case_count: int

    @property
    def problem_free(self) -> bool:
        return self.identical_case_count == 0 and self.inconsistent_case_count == 0


@dataclass(frozen=True)
class CrossReleaseReport:
    """Identical/inconsistent pair counts between two releases of a project."""

    project: str
    release_a: str
    release_b: str
    identical_pair_count: int
    inconsistent_pair_count: int


def within_quality(dataset: Dataset) -> WithinQualityReport:
    """Count identical and inconsistent cases inside one dataset.

    Both counts are invariant under row permutation.
    """
    counts = dataset.label_counts
    return WithinQualityReport(
        dataset=dataset.name,
        case_count=dataset.case_count,
        identical_case_count=int(counts[counts >= 2].sum()),
        inconsistent_case_count=int(counts[counts.all(1)].sum()),
    )


def cross_release_quality(older: Dataset, newer: Dataset) -> CrossReleaseReport:
    """Count identical and inconsistent pairs across two releases.

    A (case of older, case of newer) pair is identical when metrics and
    label agree, inconsistent when the metrics agree and the labels differ.
    Both datasets must belong to the same project and be distinct releases.
    """
    if older.project != newer.project:
        raise ValueError(
            f"cross-release comparison needs one project, got "
            f"{older.project!r} and {newer.project!r}"
        )
    if older.name == newer.name:
        raise ValueError(f"cannot compare release {older.name!r} with itself")

    first_a = older.feature_ids[1]
    groups = len(first_a)
    # newer's group rows in older's value ids (-1 for a value older lacks),
    # searched among older's sorted rows: the first row not below each is
    # its only candidate, and ``groups`` stands for none of older's groups
    keys_a = row_keys(older.value_ids[first_a])
    rows_b = newer.value_ids[newer.feature_ids[1]]
    keys_b = row_keys(value_positions(newer.values, older.values)[rows_b])
    order = older.feature_order
    found = np.append(order, groups)[np.searchsorted(keys_a, keys_b, sorter=order)]
    equal = found < groups
    equal[equal] = keys_a[found[equal]] == keys_b[equal]
    a = older.label_counts[found[equal]]
    b = newer.label_counts[equal]

    return CrossReleaseReport(
        project=older.project,
        release_a=older.name,
        release_b=newer.name,
        identical_pair_count=int((a * b).sum()),
        inconsistent_pair_count=int((a * b[:, ::-1]).sum()),
    )


def release_pairs(corpus: Corpus) -> list[tuple[Dataset, Dataset]]:
    """All within-project release pairs, projects and releases in name order.

    Every unordered pair of releases of a multi-release project appears
    once, oriented with the lexicographically smaller dataset name first.
    """
    pairs = []
    for project in sorted(corpus.projects):
        names = corpus.projects[project]
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                pairs.append((corpus.get(names[i]), corpus.get(names[j])))
    return pairs


def corpus_quality(
    corpus: Corpus, include_pairs: bool = True
) -> tuple[list[WithinQualityReport], list[CrossReleaseReport]]:
    """Within-release reports for every dataset, plus cross-release reports
    for every release pair when ``include_pairs`` is set."""
    within = [within_quality(ds) for ds in corpus]
    cross = []
    if include_pairs:
        cross = [cross_release_quality(a, b) for a, b in release_pairs(corpus)]
    return within, cross
