"""Reference cleaner: a literal quadratic transcription of the two-step
pairwise deletion procedure.

It walks the case list with explicit index loops and compares metric
vectors pair by pair, sharing nothing with the package's grouped
implementation but the data model: it reads the cases as rows of
``Decimal`` values, not as value ids.  ``clean`` must agree with it on every
``CleanResult`` field.
"""

from __future__ import annotations

from decimal import Decimal

from defectclean.cleaning import CleanResult
from defectclean.data import Dataset

from .conftest import decimal_rows


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
    cases = decimal_rows(dataset)
    rows: list[tuple[int, tuple[Decimal, ...], bool]] = [
        (i, metrics, bugs >= 1) for i, (_, metrics, bugs) in enumerate(cases)
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
        cleaned=dataset.replace_cases([cases[i] for i in surviving]),
        removed_duplicates=removed_dup,
        removed_inconsistent=removed_inc,
        removed_defective=sum(1 for i in removed if cases[i][2] >= 1),
        removed_indices=tuple(removed),
    )
