"""Synthetic corpora in the standard 20-metric schema.

Used by the demos and the test suite: generated datasets look like real
class-level defect data (counts, ratios, a defect-rate signal learners can
pick up) and can be salted with exact duplicates and label-inconsistent
copies at chosen rates.  Everything is driven by explicit seeds.
"""

from __future__ import annotations

from decimal import Decimal
from typing import Sequence

import numpy as np

from .data import Corpus, Dataset, N_METRICS, Row

#: metric positions generated as 2-decimal ratios instead of counts
_RATIO_COLUMNS = frozenset({9, 11, 13, 14, 19})  # lcom3, dam, mfa, cam, avg_cc


def _random_metrics(rng: np.random.Generator, defective: bool) -> tuple[Decimal, ...]:
    """Counts and ratios with a mild shift for defective cases, so the
    label is learnable but noisy."""
    shift = 4 if defective else 0
    values = []
    for col in range(N_METRICS):
        if col in _RATIO_COLUMNS:
            values.append(Decimal(int(rng.integers(0, 101))) / Decimal(100))
        else:
            values.append(Decimal(int(rng.integers(0, 12 + shift))))
    return tuple(values)


def synthetic_dataset(
    name: str,
    seed: int,
    cases: int = 60,
    defect_rate: float = 0.3,
    duplicate_rate: float = 0.0,
    inconsistent_rate: float = 0.0,
) -> Dataset:
    """One dataset with optional injected problems.

    ``duplicate_rate`` appends that fraction of exact row copies;
    ``inconsistent_rate`` appends copies with the opposite label (the copy
    of a defective case gets bug count 0 and vice versa).  Appended rows are
    shuffled into the dataset, so problems are not clustered at the end.
    Each base row draws its defect flag, then its 20 metric cells, then its
    bug count; the copies and the shuffle draw after all base rows.
    """
    rng = np.random.default_rng(seed)
    rows: list[Row] = []
    for i in range(cases):
        defective = bool(rng.random() < defect_rate)
        metrics = _random_metrics(rng, defective)
        bugs = int(rng.integers(1, 4)) if defective else 0
        rows.append((f"org.synthetic.C{i:04d}", metrics, bugs))
    for _ in range(int(round(duplicate_rate * cases))):
        class_name, metrics, bugs = rows[int(rng.integers(cases))]
        rows.append((class_name + "Copy", metrics, bugs))
    for _ in range(int(round(inconsistent_rate * cases))):
        class_name, metrics, bugs = rows[int(rng.integers(cases))]
        rows.append((class_name + "Flip", metrics, 0 if bugs else 1))
    order = rng.permutation(len(rows))
    return Dataset.from_cases(name, (rows[i] for i in order))


def synthetic_corpus(
    seed: int,
    releases: Sequence[str] = (
        "alpha1.0", "alpha1.1", "beta2.0", "beta2.1", "gamma1.0",
    ),
    cases: int = 60,
    defect_rate: float = 0.3,
    duplicate_rate: float = 0.0,
    inconsistent_rate: float = 0.0,
) -> Corpus:
    """A small multi-project corpus; per-dataset seeds derive from ``seed``."""
    datasets = []
    for i, name in enumerate(releases):
        datasets.append(
            synthetic_dataset(
                name,
                seed=seed * 1000003 + i,
                cases=cases,
                defect_rate=defect_rate,
                duplicate_rate=duplicate_rate,
                inconsistent_rate=inconsistent_rate,
            )
        )
    return Corpus(tuple(datasets))
