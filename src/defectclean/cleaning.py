"""Two-step removal of identical and inconsistent cases.

Step 1 removes duplicate rows: of every set of cases with equal metrics and
equal label, only the first occurrence survives.  Step 2 then removes
inconsistent cases: every feature group that still carries both labels is
dropped entirely.  The order matters; running the steps the other way round
deletes more (see the order-sensitivity tests).

:func:`clean` works on the exact group ids of :attr:`Dataset.feature_ids`:
step 1 keeps the first row of each ``2 * id + label`` key, and a feature
group is still mixed after it exactly when it held both labels before, so
step 2 is one lookup per kept row.  The cleaned dataset is the input's
columns at the kept rows (:meth:`Dataset.take`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Corpus, Dataset


@dataclass(frozen=True)
class CleanResult:
    """Outcome of cleaning one dataset."""

    cleaned: Dataset
    removed_duplicates: int
    removed_inconsistent: int
    removed_defective: int
    removed_indices: tuple[int, ...]

    @property
    def removed_total(self) -> int:
        return self.removed_duplicates + self.removed_inconsistent


@dataclass(frozen=True)
class CleanSummaryRow:
    """One dataset's line of a corpus cleaning summary."""

    dataset: str
    case_count: int
    removed_cases: int
    defective_count: int
    removed_defective: int


def clean(dataset: Dataset) -> CleanResult:
    """Remove duplicate rows, then label-inconsistent feature groups.

    Surviving cases keep their original relative order, and the cleaned
    dataset keeps the project, release and name of the input.  Idempotent:
    cleaning a cleaned dataset removes nothing.
    """
    ids, rows = dataset.feature_ids
    labels = dataset.labels
    row_keys = 2 * ids + labels
    first = np.zeros(dataset.case_count, dtype=bool)
    first[np.unique(row_keys, return_index=True)[1]] = True
    labels_per_group = np.bincount(ids[first], minlength=len(rows))
    mixed = first & (labels_per_group[ids] > 1)
    kept = np.flatnonzero(first & ~mixed)
    removed = np.flatnonzero(~first | mixed)

    return CleanResult(
        cleaned=dataset.take(kept),
        removed_duplicates=int(dataset.case_count - np.count_nonzero(first)),
        removed_inconsistent=int(np.count_nonzero(mixed)),
        removed_defective=int(np.count_nonzero(labels[removed])),
        removed_indices=tuple(removed.tolist()),
    )


def clean_corpus(corpus: Corpus) -> tuple[Corpus, list[CleanSummaryRow]]:
    """Clean every dataset of a corpus.

    Returns the cleaned corpus (same dataset names, same order) and one
    summary row per dataset with post-cleaning case/defective counts and
    the number of removed cases.
    """
    cleaned = []
    summary = []
    for ds in corpus:
        result = clean(ds)
        cleaned.append(result.cleaned)
        summary.append(
            CleanSummaryRow(
                dataset=ds.name,
                case_count=result.cleaned.case_count,
                removed_cases=result.removed_total,
                defective_count=result.cleaned.defective_count,
                removed_defective=result.removed_defective,
            )
        )
    return Corpus(tuple(cleaned)), summary
