"""Reference cleaner: a literal quadratic transcription of the two-step
pairwise deletion procedure.

It walks the case list with explicit index loops and compares metric
vectors pair by pair, sharing nothing with the package's grouped
implementation but the data model.  ``clean`` must agree with it on every
``CleanResult`` field.
"""

from __future__ import annotations

from defectclean.cleaning import CleanResult
from defectclean.data import Dataset, MetricVector


def clean_oracle(dataset: Dataset, size_bound: int = 2000) -> CleanResult:
    """Quadratic pairwise reference implementation of ``clean``.

    Walks the case list with explicit index loops: first deleting every
    later case that equals an earlier one in metrics and label, then
    deleting both members of every remaining equal-metrics pair whose labels
    differ.  Only intended for differential testing; refuses datasets larger
    than ``size_bound``.
    """
    if dataset.case_count > size_bound:
        raise ValueError(
            f"oracle is quadratic; dataset has {dataset.case_count} cases, "
            f"bound is {size_bound}"
        )
    rows: list[tuple[int, MetricVector, bool]] = [
        (i, c.metrics, c.defective) for i, c in enumerate(dataset.cases)
    ]

    removed_dup = 0
    i = 0
    while i < len(rows):
        j = i + 1
        while j < len(rows):
            if rows[j][1] == rows[i][1] and rows[j][2] == rows[i][2]:
                del rows[j]
                removed_dup += 1
            else:
                j += 1
        i += 1

    removed_inc = 0
    i = 0
    while i < len(rows):
        j = i + 1
        hit = False
        while j < len(rows):
            if rows[j][1] == rows[i][1] and rows[j][2] != rows[i][2]:
                del rows[j]
                removed_inc += 1
                hit = True
            else:
                j += 1
        if hit:
            del rows[i]
            removed_inc += 1
        else:
            i += 1

    surviving = [idx for idx, _, _ in rows]
    removed = sorted(set(range(dataset.case_count)) - set(surviving))
    return CleanResult(
        cleaned=dataset.replace_cases([dataset.cases[i] for i in surviving]),
        removed_duplicates=removed_dup,
        removed_inconsistent=removed_inc,
        removed_defective=sum(1 for i in removed if dataset.cases[i].defective),
        removed_indices=tuple(removed),
    )
