"""In-memory model and CSV I/O for class-level defect datasets.

A dataset is one release of one software project: a list of cases (classes),
each carrying 20 static code metrics and a bug count.  A case is *defective*
exactly when its bug count is at least 1.

Metric values are stored as :class:`decimal.Decimal` so that textually
different spellings of the same number ("1", "1.0", "1.00") compare and hash
equal without any float rounding.  Equality of cases and feature vectors is
therefore exact numeric equality, which is what the duplicate/inconsistency
definitions in :mod:`defectclean.quality` rely on.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation, localcontext
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

#: the 20 static code metrics, in file-column order
METRIC_NAMES: tuple[str, ...] = (
    "wmc", "dit", "noc", "cbo", "rfc", "lcom", "ca", "ce", "npm", "lcom3",
    "loc", "dam", "moa", "mfa", "cam", "ic", "cbm", "amc", "max_cc", "avg_cc",
)

N_METRICS = len(METRIC_NAMES)

#: expected CSV header.  The first and third column are both called "name"
#: (project name and class name); columns are matched by position.
PROMISE_HEADER: tuple[str, ...] = ("name", "version", "name") + METRIC_NAMES + ("bug",)

#: dataset names whose project cannot be derived from the leading
#: alphabetic prefix alone
DEFAULT_PROJECT_ALIASES: Mapping[str, str] = {
    "xercesinit": "xerces",
    "log4j1.0": "log4j",
    "log4j1.1": "log4j",
    "log4j1.2": "log4j",
}


class SchemaError(ValueError):
    """CSV header does not match the expected column list."""


class ParseError(ValueError):
    """A data row could not be parsed."""


class EmptyDatasetError(ParseError):
    """CSV contained a header but no data rows."""


class CorpusError(ValueError):
    """A directory of datasets could not be assembled into a corpus."""


def canonicalize_metric(raw: str) -> Decimal:
    """Parse one metric cell into its canonical numeric value.

    Returns a ``Decimal`` constructed exactly from the text, so values that
    differ only in formatting ("2.5" vs "2.50") are equal and hash equal.
    Rejects non-numeric text, NaN/infinity and negative values.
    """
    text = raw.strip()
    if not text:
        raise ParseError("empty metric value")
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise ParseError(f"non-numeric metric value {raw!r}") from None
    if not value.is_finite():
        raise ParseError(f"non-finite metric value {raw!r}")
    if value < 0:
        raise ParseError(f"negative metric value {raw!r}")
    return value


def canonical_str(value: Decimal) -> str:
    """Serialize a metric value without insignificant trailing zeros.

    All numerically equal inputs map to the same output string, so
    serialization of equal datasets is byte-identical.
    """
    if not value:
        return "0"  # normalize() keeps the sign of a negative zero ("-0.0")
    with localcontext() as ctx:
        ctx.prec = len(value.as_tuple().digits)  # so normalize() cannot round
        norm = value.normalize()
    return format(norm, "f")


def metric_float(value: Decimal) -> float:
    """The float nearest a metric value; a zero of either sign is +0.0.

    Equal values must give equal bits (as :func:`canonical_str` gives them
    equal text), and ``Decimal("-0") == 0``.  Adding 0.0 turns -0.0 into
    +0.0 and leaves every other float unchanged.
    """
    return float(value) + 0.0


def split_project(name: str, aliases: Mapping[str, str] | None = None) -> tuple[str, str]:
    """Split a dataset name into (project, release).

    The project is the maximal leading alphabetic prefix of the name
    ("jedit4.3" -> "jedit", "prop1" -> "prop"); a small alias table covers
    names where that rule fails ("xercesinit" -> "xerces").  The release is
    whatever follows the project prefix, possibly empty for single-release
    datasets named after the project alone ("berek").
    """
    table = DEFAULT_PROJECT_ALIASES if aliases is None else aliases
    if name in table:
        project = table[name]
        release = name[len(project):] if name.startswith(project) else name
        return project, release
    match = re.match(r"[A-Za-z]+", name)
    project = match.group(0) if match else name
    return project, name[len(project):]


@dataclass(frozen=True)
class MetricVector:
    """The 20 metric values of one case, in :data:`METRIC_NAMES` order."""

    values: tuple[Decimal, ...]

    def __post_init__(self) -> None:
        if len(self.values) != N_METRICS:
            raise ValueError(f"expected {N_METRICS} metric values, got {len(self.values)}")
        for v in self.values:
            if not isinstance(v, Decimal) or not v.is_finite() or v < 0:
                raise ValueError(f"invalid metric value {v!r}")

    @classmethod
    def from_strings(cls, cells: Iterable[str]) -> "MetricVector":
        return cls(tuple(canonicalize_metric(c) for c in cells))

    @classmethod
    def _unchecked(cls, values: tuple[Decimal, ...]) -> "MetricVector":
        """A vector of values that :func:`canonicalize_metric` has checked."""
        vector = object.__new__(cls)
        object.__setattr__(vector, "values", values)
        return vector

    def as_floats(self) -> tuple[float, ...]:
        return tuple(map(metric_float, self.values))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> Decimal:
        return self.values[i]


@dataclass(frozen=True)
class Case:
    """One class of one release: name, metric vector, observed bug count."""

    class_name: str
    metrics: MetricVector
    bug_count: int

    def __post_init__(self) -> None:
        if self.bug_count < 0:
            raise ValueError(f"negative bug count {self.bug_count}")

    @property
    def defective(self) -> bool:
        """A case is defective exactly when it has at least one bug."""
        return self.bug_count >= 1


@dataclass(frozen=True)
class Dataset:
    """One release of one project."""

    project: str
    release: str
    name: str
    cases: tuple[Case, ...]

    @property
    def case_count(self) -> int:
        return len(self.cases)

    @cached_property
    def defective_count(self) -> int:
        return sum(1 for c in self.cases if c.defective)

    @property
    def defective_ratio(self) -> float:
        if not self.cases:
            return 0.0
        return self.defective_count / self.case_count

    @cached_property
    def feature_matrix(self) -> np.ndarray:
        """Float64 view of the metric values, shape (case_count, 20).

        Each distinct value is converted once, by :func:`metric_float`, so
        equal values (equal ``feature_ids``) get bit-identical rows.
        """
        cells = [v for case in self.cases for v in case.metrics.values]
        table = {v: metric_float(v) for v in set(cells)}
        out = np.fromiter(map(table.__getitem__, cells), dtype=np.float64, count=len(cells))
        out = out.reshape(len(self.cases), N_METRICS)
        out.flags.writeable = False
        return out

    @cached_property
    def labels(self) -> np.ndarray:
        """Boolean label vector, True = defective."""
        out = np.fromiter((c.defective for c in self.cases), dtype=bool, count=len(self.cases))
        out.flags.writeable = False
        return out

    @cached_property
    def feature_ids(self) -> tuple[np.ndarray, tuple[MetricVector, ...]]:
        """Exact feature groups: per-case group ids and the distinct vectors.

        ``ids[i]`` indexes ``vectors``, the distinct metric vectors of the
        dataset numbered by first occurrence.  Grouping uses the exact
        ``MetricVector`` equality, never floats, so "1" and "1.00" share a
        group and values that differ only beyond float precision do not.
        """
        index: dict[MetricVector, int] = {}
        ids = np.fromiter(
            (index.setdefault(c.metrics, len(index)) for c in self.cases),
            dtype=np.int64, count=len(self.cases),
        )
        ids.flags.writeable = False
        return ids, tuple(index)

    def replace_cases(self, cases: Sequence[Case]) -> "Dataset":
        return Dataset(self.project, self.release, self.name, tuple(cases))


@dataclass(frozen=True)
class Corpus:
    """A collection of datasets with unique names."""

    datasets: tuple[Dataset, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for ds in self.datasets:
            if ds.name in seen:
                raise CorpusError(f"duplicate dataset name {ds.name!r}")
            seen.add(ds.name)

    @cached_property
    def index(self) -> Mapping[str, Dataset]:
        return {ds.name: ds for ds in self.datasets}

    @cached_property
    def projects(self) -> Mapping[str, tuple[str, ...]]:
        """Project name -> dataset names of its releases, sorted."""
        groups: dict[str, list[str]] = {}
        for ds in self.datasets:
            groups.setdefault(ds.project, []).append(ds.name)
        return {p: tuple(sorted(names)) for p, names in sorted(groups.items())}

    def __iter__(self):
        return iter(self.datasets)

    def __len__(self) -> int:
        return len(self.datasets)

    def get(self, name: str) -> Dataset:
        try:
            return self.index[name]
        except KeyError:
            raise CorpusError(f"no dataset named {name!r} in corpus") from None


def _check_header(header: Sequence[str], expected: Sequence[str]) -> None:
    got = [cell.strip().lower() for cell in header]
    want = [cell.strip().lower() for cell in expected]
    for pos, name in enumerate(want):
        if pos >= len(got):
            raise SchemaError(f"missing column {name!r} (expected at position {pos + 1})")
        if got[pos] != name:
            raise SchemaError(
                f"column {pos + 1} is {got[pos]!r}, expected {name!r}"
            )
    if len(got) > len(want):
        raise SchemaError(f"unexpected extra column {got[len(want)]!r}")


def _parse_bug_count(raw: str) -> int:
    bug = canonicalize_metric(raw)
    if bug != bug.to_integral_value():
        raise ParseError(f"bug count {raw!r} is not an integer")
    return int(bug)


def parse_dataset(
    source: IO[str] | Iterable[str],
    name: str | None = None,
    expected_schema: Sequence[str] = PROMISE_HEADER,
    aliases: Mapping[str, str] | None = None,
) -> Dataset:
    """Parse one CSV stream into a Dataset.

    The dataset name defaults to the project and version columns of the
    first data row; project and release are then derived with
    :func:`split_project`.  Raises :class:`SchemaError` on a bad header,
    :class:`ParseError` (with the data row number) on a bad cell and
    :class:`EmptyDatasetError` when there are no data rows.
    """
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyDatasetError("no header row") from None
    _check_header(header, expected_schema)

    # Exact duplicate strings are common in these files: each distinct cell
    # text is parsed and checked once, and equal texts share one Decimal,
    # which keeps memory flat on large corpora.  The vectors are built from
    # checked values only, so they skip MetricVector's own check.
    cells: dict[str, Decimal] = {}
    bugs: dict[str, int] = {}
    cases: list[Case] = []
    first_row: list[str] | None = None
    for row_no, row in enumerate(reader, start=1):
        if not row:
            continue
        if len(row) != len(expected_schema):
            raise ParseError(f"row {row_no}: expected {len(expected_schema)} cells, got {len(row)}")
        metric_cells = row[3:3 + N_METRICS]
        try:
            # the list gives the tuple its exact size; tuple(map(...)) would
            # leave each row's tuple in a larger allocation (+2.7 MB on the
            # 86k-case twin)
            try:
                values = tuple([cells[cell] for cell in metric_cells])
            except KeyError:  # a cell text not seen before
                for cell in metric_cells:
                    if cell not in cells:
                        cells[cell] = canonicalize_metric(cell)
                values = tuple([cells[cell] for cell in metric_cells])
            bug = bugs.get(row[-1])
            if bug is None:
                bug = bugs[row[-1]] = _parse_bug_count(row[-1])
        except ParseError as exc:
            raise ParseError(f"row {row_no}: {exc}") from None
        if first_row is None:
            first_row = row
        cases.append(Case(row[2], MetricVector._unchecked(values), bug))

    if first_row is None:
        raise EmptyDatasetError("no data rows")
    if name is None:
        name = first_row[0].strip() + first_row[1].strip()
    project, release = split_project(name, aliases)
    return Dataset(project, release, name, tuple(cases))


def serialize_dataset(dataset: Dataset, stream: IO[str]) -> None:
    """Write a dataset back to CSV in the expected schema.

    Metric cells use :func:`canonical_str`, so two equal datasets always
    serialize to identical bytes.  Each distinct value is formatted once per
    call: equal values share a memo entry and, by the same rule, a text.
    """
    memo: dict[Decimal, str] = {}

    def cell(value: Decimal) -> str:
        text = memo.get(value)
        if text is None:
            text = memo[value] = canonical_str(value)
        return text

    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(PROMISE_HEADER)
    for case in dataset.cases:
        row = [dataset.project, dataset.release, case.class_name]
        row.extend(map(cell, case.metrics.values))
        row.append(str(case.bug_count))
        writer.writerow(row)


def load_corpus(
    directory: str | Path,
    manifest: Iterable[str] | None = None,
    aliases: Mapping[str, str] | None = None,
) -> Corpus:
    """Load every ``*.csv`` in a directory as one corpus.

    Dataset names are the file stems.  ``manifest`` optionally restricts
    loading to the named datasets.  Files are read in sorted name order so
    corpus order is stable across platforms.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise CorpusError(f"corpus directory {str(directory)!r} does not exist")
    wanted = set(manifest) if manifest is not None else None
    datasets: list[Dataset] = []
    for path in sorted(directory.glob("*.csv")):
        if wanted is not None and path.stem not in wanted:
            continue
        with open(path, newline="", encoding="utf-8") as handle:
            try:
                datasets.append(parse_dataset(handle, name=path.stem, aliases=aliases))
            except ValueError as exc:
                raise type(exc)(f"{path.name}: {exc}") from None
    if wanted is not None:
        missing = wanted - {ds.name for ds in datasets}
        if missing:
            raise CorpusError(f"datasets missing from {directory}: {sorted(missing)}")
    if not datasets:
        raise CorpusError(f"no CSV datasets found in {directory}")
    return Corpus(tuple(datasets))


def write_corpus(corpus: Corpus, directory: str | Path) -> list[Path]:
    """Write every dataset of a corpus as ``<name>.csv`` under a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for ds in corpus.datasets:
        path = directory / f"{ds.name}.csv"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            serialize_dataset(ds, handle)
        paths.append(path)
    return paths
