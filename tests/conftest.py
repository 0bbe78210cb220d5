"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import math
import os
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from defectclean.data import Dataset, N_METRICS, Row, canonicalize_metric, metric_float

#: directory holding the real public corpus CSVs, when available
REAL_CORPUS_ENV = "JURECZKO_DATA_DIR"
REAL_CORPUS_DEFAULT = Path(__file__).resolve().parent.parent / "data" / "jureczko"


def real_corpus_dir() -> Path | None:
    override = os.environ.get(REAL_CORPUS_ENV)
    candidate = Path(override) if override else REAL_CORPUS_DEFAULT
    if candidate.is_dir() and any(candidate.glob("*.csv")):
        return candidate
    return None


requires_real_corpus = pytest.mark.skipif(
    real_corpus_dir() is None,
    reason=(
        "real corpus CSVs not present; place the public class-level defect "
        f"CSVs under {REAL_CORPUS_DEFAULT} or set ${REAL_CORPUS_ENV}"
    ),
)


def vector(*values: object) -> tuple[Decimal, ...]:
    """Build 20 metric values from a short prefix, padding with zeros."""
    padded = list(values) + [0] * (N_METRICS - len(values))
    return tuple(Decimal(str(v)) for v in padded)


def case(name: str, defective: bool, *values: object) -> Row:
    return (name, vector(*values), 1 if defective else 0)


def dataset(name: str, cases: list[Row]) -> Dataset:
    return Dataset.from_cases(name, cases)


def decimal_rows(ds: Dataset) -> list[Row]:
    """The cases of a dataset as ``(class_name, metric values, bug count)``
    rows, for oracles that compare Decimal values."""
    return [(name, tuple(ds.values[i] for i in ids), bug) for name, ids, bug
            in zip(ds.class_names, ds.value_ids.tolist(), ds.bug_counts.tolist())]


def with_cell(ds: Dataset, row: int, col: int, value: Decimal) -> Dataset:
    """``ds`` with metric ``col`` of case ``row`` set to ``value``, a value
    its table does not hold yet."""
    ids = ds.value_ids.copy()
    ids[row, col] = len(ds.values)
    return Dataset(ds.name, ds.class_names, (*ds.values, value), ids, ds.bug_counts)


def scaled_by(ds: Dataset, power: int) -> Dataset:
    """``ds`` with every metric's float multiplied by ``2**power`` exactly
    (a ``Decimal`` holds any float's exact value)."""
    values = tuple(Decimal(math.ldexp(metric_float(v), power)) for v in ds.values)
    return Dataset(ds.name, ds.class_names, values, ds.value_ids, ds.bug_counts)


def random_vector(
    rng: np.random.Generator, grid: int = 4, active: int = 4
) -> tuple[Decimal, ...]:
    """Low-cardinality metric values; collisions across draws are likely."""
    values = [Decimal(int(rng.integers(0, grid))) for _ in range(active)]
    values += [Decimal(0)] * (N_METRICS - active)
    return tuple(values)


def random_problem_dataset(
    rng: np.random.Generator,
    max_cases: int = 200,
    name: str = "rand1.0",
) -> Dataset:
    """Random dataset over a tiny feature grid: duplicates and label
    conflicts arise naturally and frequently."""
    n = int(rng.integers(1, max_cases + 1))
    cases = []
    for i in range(n):
        cases.append((
            f"C{i}",
            random_vector(rng),
            int(rng.integers(0, 3)),  # bug counts 0..2, so both labels occur
        ))
    return dataset(name, cases)



def collision_dataset(
    seed: int,
    cases: int = 80,
    name: str = "grid1.0",
    active_features: int = 3,
    grid: int = 3,
    defect_rate: float = 0.4,
) -> Dataset:
    """Dataset drawn from a tiny discrete feature grid.

    With few active features over a small value grid, exact feature
    collisions (hence duplicates and inconsistencies) occur naturally, which
    is what the cleaning and quality property tests need.  Formatting of the
    constant features varies ("1" vs "1.0" vs "1.00") to exercise canonical
    numeric equality end to end.
    """
    rng = np.random.default_rng(seed)
    spellings = ("1", "1.0", "1.00")
    rows = []
    for i in range(cases):
        values = []
        for col in range(N_METRICS):
            if col < active_features:
                values.append(Decimal(int(rng.integers(0, grid))))
            else:
                values.append(Decimal(spellings[int(rng.integers(len(spellings)))]))
        defective = bool(rng.random() < defect_rate)
        rows.append((
            f"G{i:03d}", tuple(values), int(rng.integers(1, 3)) if defective else 0,
        ))
    return dataset(name, rows)

#: spellings of the values drawn by :func:`problem_datasets`, one tuple per
#: value.  "-0.0" equals 0.  The last two are distinct decimals that round
#: to the same float as 0.1 and 1.
SPELLINGS: tuple[tuple[str, ...], ...] = (
    ("0", "0.0", "0.00", "-0.0"),
    ("1", "1.0", "1.00"),
    ("0.1", "0.10"),
    ("2.5", "2.50", "2.500"),
    ("0.10000000000000001",),
    ("1.0000000000000001",),
)


@st.composite
def problem_datasets(draw, name: str = "hyp1.0") -> Dataset:
    """Datasets whose metric cells are parsed from respelled text.

    Kinds: a small value grid over one to three active features (both
    problem kinds are frequent), a single case, and all cases identical.
    Every cell's spelling is drawn afresh, so equal rows rarely share text.
    """
    kind = draw(st.sampled_from(["grid", "one_case", "all_identical"]))
    n = 1 if kind == "one_case" else draw(st.integers(2, 40))
    active = draw(st.integers(1, 3))
    values = draw(st.integers(1, len(SPELLINGS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def spell(value: int) -> str:
        options = SPELLINGS[value]
        return options[int(rng.integers(len(options)))]

    fixed = rng.integers(0, values, size=active)
    fixed_bugs = int(rng.integers(0, 3))
    cases = []
    for i in range(n):
        ids = fixed if kind == "all_identical" else rng.integers(0, values, size=active)
        cells = [spell(int(v)) for v in ids] + [spell(1) for _ in range(N_METRICS - active)]
        bugs = fixed_bugs if kind == "all_identical" else int(rng.integers(0, 3))
        cases.append((f"H{i}", tuple(map(canonicalize_metric, cells)), bugs))
    return dataset(name, cases)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260815)
