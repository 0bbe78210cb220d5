"""Two-step removal of identical and inconsistent cases.

Step 1 removes duplicate rows: of every set of cases with equal metrics and
equal label, only the first occurrence survives.  Step 2 then removes
inconsistent cases: every feature group that still carries both labels is
dropped entirely.  The order matters; running the steps the other way round
deletes more (see the order-sensitivity tests).

:func:`clean` is arithmetic on :attr:`Dataset.label_counts`.  Step 1
leaves one case per feature group and label, so step 2 removes exactly two
cases per group with both labels, and the cleaned dataset is the first row
of every single-label group, in row order (:meth:`Dataset.take`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Corpus, Dataset


@dataclass(frozen=True)
class CleanResult:
    """Outcome of cleaning one dataset; also its line of a corpus cleaning
    summary, whose case and defective counts are the cleaned dataset's."""

    cleaned: Dataset
    removed_duplicates: int
    removed_inconsistent: int
    removed_defective: int
    removed_indices: tuple[int, ...]

    @property
    def dataset(self) -> str:
        return self.cleaned.name

    @property
    def case_count(self) -> int:
        return self.cleaned.case_count

    @property
    def defective_count(self) -> int:
        return self.cleaned.defective_count

    @property
    def removed_cases(self) -> int:
        return self.removed_duplicates + self.removed_inconsistent


def clean(dataset: Dataset) -> CleanResult:
    """Remove duplicate rows, then label-inconsistent feature groups.

    Surviving cases keep their original relative order, and the cleaned
    dataset keeps the project, release and name of the input.  Idempotent:
    cleaning a cleaned dataset removes nothing.
    """
    first = dataset.feature_ids[1]
    counts = dataset.label_counts
    mixed = counts.all(1)
    kept = first[~mixed]
    return CleanResult(
        cleaned=dataset.take(kept),
        removed_duplicates=dataset.case_count - int(np.count_nonzero(counts)),
        removed_inconsistent=2 * int(np.count_nonzero(mixed)),
        removed_defective=dataset.defective_count - int(np.count_nonzero(counts[~mixed, 1])),
        removed_indices=tuple(np.delete(np.arange(dataset.case_count), kept).tolist()),
    )


def clean_corpus(corpus: Corpus) -> tuple[Corpus, list[CleanResult]]:
    """Clean every dataset of a corpus.

    Returns the cleaned corpus (same dataset names, same order) and each
    dataset's :class:`CleanResult`, its line of the cleaning summary.
    """
    results = [clean(ds) for ds in corpus]
    return Corpus(tuple(r.cleaned for r in results)), results
