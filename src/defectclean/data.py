"""In-memory model and CSV I/O for class-level defect datasets.

A dataset is one release of one software project: a name and a table of
cases (classes), each carrying 20 static code metrics and a bug count.  A
case is *defective* exactly when its bug count is at least 1.  The project
and the release are not stored: they are read off the name by
:func:`split_project` ("ant1.7" is release "1.7" of project "ant").

A :class:`Dataset` exists only as columns.  Its metric values are
:class:`decimal.Decimal` numbers kept once each in a table of distinct
values, and the cases hold indices into that table: a read-only int32
``(n, 20)`` matrix of value ids.  Decimals make textually different
spellings of one number ("1", "1.0", "1.00") equal without any float
rounding, and the table gives equal values one id, so two cases have equal
metrics exactly when their rows of value ids are equal.  That is the exact
equality the duplicate/inconsistency definitions in
:mod:`defectclean.quality` rely on.  Float features, labels and feature
groups are derived from the columns and cached.  A CSV file enters through
:func:`load_dataset` (a directory of them through :func:`load_corpus`), its
text read by :func:`read_text`, the one reader of every input file; hand-made
or generated data through :meth:`Dataset.from_cases`, a name and one plain
``(class_name, metric_values, bug_count)`` tuple per case.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from functools import cached_property
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence

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

#: a dataset name: its project, then its release (a version number or ``init``)
_NAME = re.compile(r"(.*?)(\d+(?:\.\d+)*|init)", re.DOTALL)


class SchemaError(ValueError):
    """CSV header does not match the expected column list."""


class ParseError(ValueError):
    """A line or a data row could not be parsed."""


class EmptyDatasetError(ParseError):
    """CSV had no header row."""


class CorpusError(ValueError):
    """A directory of datasets could not be assembled into a corpus."""


def canonicalize_metric(raw: str) -> Decimal:
    """Parse one metric cell into its canonical numeric value.

    Returns a ``Decimal`` constructed exactly from the text, so values that
    differ only in formatting ("2.5" vs "2.50") are equal and hash equal.
    Rejects non-numeric text, NaN/infinity, negative values and values
    beyond the float range (their feature would be infinite).
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
    if math.isinf(float(value)):
        raise ParseError(f"metric value {raw!r} overflows a float")
    return value


def canonical_str(value: Decimal) -> str:
    """Serialize a metric value without insignificant trailing zeros.

    The value is written in fixed point (``format(value, "f")``, which is
    exact and needs no context); when that text has a dot, its trailing
    zeros and then a bare dot are stripped ("2.50" -> "2.5", "3.0" -> "3",
    "1E+2" -> "100").  Any zero, of either sign, is "0".  All numerically
    equal inputs map to the same output string, so serialization of equal
    datasets is byte-identical.
    """
    if not value:
        return "0"
    text = format(value, "f")
    return text.rstrip("0").rstrip(".") if "." in text else text


def metric_float(value: Decimal) -> float:
    """The float nearest a metric value; a zero of either sign is +0.0.

    Equal values must give equal bits (as :func:`canonical_str` gives them
    equal text), and ``Decimal("-0") == 0``.  Adding 0.0 turns -0.0 into
    +0.0 and leaves every other float unchanged.
    """
    return float(value) + 0.0


def split_project(name: str) -> tuple[str, str]:
    """Split a dataset name into (project, release): the release is the
    longest tail that is a version number ("4.3", "1") or ``init``, and the
    project is the rest ("log4j1.0" -> ("log4j", "1.0")).  A name with no
    such tail, or that is all release, is its own project with an empty
    release ("berek", "e-learning", "1.0").
    """
    match = _NAME.fullmatch(name)
    if match is None or not match.group(1):
        return name, ""
    return match.group(1), match.group(2)


def release_order(release: str) -> tuple[int, tuple[int, ...], str]:
    """Sort key of a release within its project: ``init`` first, then
    numeric versions by their number tuples ("1.10" after "1.9"), then any
    other release by its text."""
    if re.fullmatch(r"\d+(\.\d+)*", release):
        return 1, tuple(map(int, release.split("."))), release
    return 0 if release == "init" else 2, (), release


#: one hand-made case: class name, its 20 metric values in
#: :data:`METRIC_NAMES` order, and its bug count
Row = tuple[str, Sequence[Decimal], int]


def value_positions(values: Sequence[Decimal], table: Sequence[Decimal]) -> np.ndarray:
    """Each value's index in ``table`` as int32, -1 where it is absent.

    The lookup is exact ``Decimal`` equality, so "1.0" finds "1".
    """
    index = {v: i for i, v in enumerate(table)}
    return np.fromiter((index.get(v, -1) for v in values), dtype=np.int32, count=len(values))


def row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque bytes key per row of an integer matrix.  Keys are equal
    exactly when their rows are, and they sort and search like any array."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize)))[:, 0]


def row_groups(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Number the equal rows of an integer matrix by first occurrence.

    Returns ``(ids, first, order)``: ``ids[i]`` is row ``i``'s group,
    ``first[g]`` the row where group ``g`` occurs first, and ``order`` the
    group ids sorted by their rows' :func:`row_keys`.
    """
    _, first, ids = np.unique(row_keys(rows), return_index=True, return_inverse=True)
    # np.unique numbers the groups in key order; renumber them by first row,
    # so rank maps each key-order position to its group's id
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(by_first.size)
    return rank[ids], first[by_first], rank


class ValueTable(tuple):
    """A dataset's table of distinct metric values, checked once when built.

    Every value must be a finite, non-negative ``Decimal``, no two equal;
    anything else raises ``ValueError``.  The floats of the values are
    computed once, on first use, and every dataset holding the table (all
    the :meth:`Dataset.take` of one parse) shares both the check and them.
    """

    def __new__(cls, values: Iterable[Decimal]) -> "ValueTable":
        table = super().__new__(cls, values)
        for v in table:
            if not isinstance(v, Decimal) or not v.is_finite() or v < 0:
                raise ValueError(f"invalid metric value {v!r}")
        if len(set(table)) != len(table):
            raise ValueError("the value table holds two equal values")
        return table

    @cached_property
    def floats(self) -> np.ndarray:
        """Each value's :func:`metric_float`, float64, read-only."""
        out = np.fromiter(map(metric_float, self), dtype=np.float64, count=len(self))
        out.flags.writeable = False
        return out

    def __reduce__(self) -> tuple:
        # re-checked on unpickling; the floats are not sent
        return ValueTable, (tuple(self),)


@dataclass(frozen=True, eq=False)
class Dataset:
    """One release of one project, stored by column.

    ``project`` and ``release`` are read off ``name`` by
    :func:`split_project`, never stored.  ``values`` are the distinct
    metric values of the table, no two equal, held as a
    :class:`ValueTable` (a plain tuple is checked and wrapped in one; a
    table that is one already is not checked again).  Row ``i`` of the int32
    matrix ``value_ids`` holds case ``i``'s 20 indices into ``values``,
    and ``bug_counts[i]`` (int64) its bug count.
    Both arrays are made read-only.  Every value must be a finite,
    non-negative ``Decimal`` and every bug count non-negative.  Datasets
    are equal when their names and all their cases are equal, value for
    value, whatever order their tables list the values in.
    """

    name: str
    class_names: tuple[str, ...]
    values: tuple[Decimal, ...]
    value_ids: np.ndarray
    bug_counts: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.class_names)
        ids, bugs = self.value_ids, self.bug_counts
        if ids.dtype != np.int32 or ids.shape != (n, N_METRICS):
            raise ValueError(
                f"value_ids must be int32 of shape ({n}, {N_METRICS}), "
                f"got {ids.dtype} {ids.shape}"
            )
        if bugs.dtype != np.int64 or bugs.shape != (n,):
            raise ValueError(f"bug_counts must be int64 of shape ({n},), got {bugs.dtype} {bugs.shape}")
        if n and (ids.min() < 0 or ids.max() >= len(self.values)):
            raise ValueError(f"value ids outside the table of {len(self.values)} values")
        if n and bugs.min() < 0:
            raise ValueError(f"negative bug count {bugs.min()}")
        if not isinstance(self.values, ValueTable):
            object.__setattr__(self, "values", ValueTable(self.values))
        ids.flags.writeable = False
        bugs.flags.writeable = False

    @classmethod
    def from_cases(cls, name: str, cases: Iterable[Row]) -> "Dataset":
        """The columns of ``(class_name, metric_values, bug_count)`` rows
        (generated or hand-built data); each row holds 20 values."""
        cases = tuple(cases)
        for _, values, _ in cases:
            if len(values) != N_METRICS:
                raise ValueError(f"expected {N_METRICS} metric values, got {len(values)}")
        # keyed by type too, so a non-Decimal equal to a Decimal (1.0 and
        # Decimal(1)) gets a table entry of its own and is rejected
        index: dict[tuple[type, Decimal], int] = {}
        try:
            ids = np.fromiter(
                (index.setdefault((type(v), v), len(index))
                 for _, values, _ in cases for v in values),
                dtype=np.int32, count=N_METRICS * len(cases),
            )
        except TypeError as exc:  # an unhashable value, such as Decimal("sNaN")
            raise ValueError(f"invalid metric value: {exc}") from None
        bugs = np.fromiter((bug for _, _, bug in cases), dtype=np.int64, count=len(cases))
        return cls(
            name, tuple(class_name for class_name, _, _ in cases),
            tuple(v for _, v in index), ids.reshape(len(cases), N_METRICS), bugs,
        )

    @property
    def project(self) -> str:
        return split_project(self.name)[0]

    @property
    def release(self) -> str:
        return split_project(self.name)[1]

    @property
    def case_count(self) -> int:
        return len(self.class_names)

    @cached_property
    def defective_count(self) -> int:
        return int(np.count_nonzero(self.labels))

    @cached_property
    def feature_matrix(self) -> np.ndarray:
        """Float64 view of the metric values, shape (case_count, 20).

        Each table value is converted once, by :func:`metric_float`, for
        every dataset sharing the table (:attr:`ValueTable.floats`), so equal
        values (equal ``feature_ids``) get bit-identical rows.
        """
        out = self.values.floats[self.value_ids]
        out.flags.writeable = False
        return out

    @cached_property
    def labels(self) -> np.ndarray:
        """Boolean label vector, True = defective."""
        out = self.bug_counts >= 1
        out.flags.writeable = False
        return out

    @cached_property
    def _row_groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`row_groups` of the value ids, computed once, read-only."""
        groups = row_groups(self.value_ids)
        for array in groups:
            array.flags.writeable = False
        return groups

    @cached_property
    def feature_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact feature groups: per-case group ids and each group's first row.

        ``ids[i]`` numbers case ``i``'s metric vector by first occurrence,
        and ``first[g]`` is the row where group ``g`` occurs first, so
        ``first`` is increasing and ``value_ids[first]`` holds the groups'
        rows.  Equal values share one table entry, so equal id rows are
        exactly equal metrics: "1" and "1.00" share a group, and values
        that differ only beyond float precision do not.
        """
        return self._row_groups[:2]

    @cached_property
    def label_counts(self) -> np.ndarray:
        """Each feature group's case counts per label, ``(groups, 2)``:
        column 0 counts the clean cases, column 1 the defective ones."""
        ids, first = self.feature_ids
        out = np.bincount(2 * ids + self.labels, minlength=2 * len(first)).reshape(-1, 2)
        out.flags.writeable = False
        return out

    @cached_property
    def feature_order(self) -> np.ndarray:
        """Group ids sorted by their rows' :func:`row_keys`: the ``sorter``
        that finds a row among this dataset's groups by ``np.searchsorted``.
        It is the key order of the sort that numbered the groups."""
        return self._row_groups[2]

    def take(self, rows: Sequence[int] | np.ndarray) -> "Dataset":
        """The cases at ``rows``, in that order, under the same names.

        The result shares this dataset's value table, its check and its
        floats.
        """
        rows = np.asarray(rows, dtype=np.intp)
        names = self.class_names
        return Dataset(
            self.name, tuple([names[i] for i in rows.tolist()]), self.values,
            self.value_ids[rows], self.bug_counts[rows],
        )

    def replace_cases(self, cases: Iterable[Row]) -> "Dataset":
        """A dataset of the given rows under this dataset's names."""
        return Dataset.from_cases(self.name, cases)

    def __reduce__(self) -> tuple:
        # through the constructor: columns re-checked and read-only, caches rebuilt
        return Dataset, (self.name, self.class_names, self.values, self.value_ids, self.bug_counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        if (self.name, self.class_names) != (other.name, other.class_names):
            return False
        # other's ids in this table's numbering; a value this table lacks
        # maps to -1 and so matches no id
        return np.array_equal(self.bug_counts, other.bug_counts) and np.array_equal(
            value_positions(other.values, self.values)[other.value_ids], self.value_ids
        )


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


def _check_header(header: Sequence[str]) -> None:
    got = [cell.strip().lower() for cell in header]
    for pos, name in enumerate(PROMISE_HEADER):
        if pos >= len(got):
            raise SchemaError(f"missing column {name!r} (expected at position {pos + 1})")
        if got[pos] != name:
            raise SchemaError(
                f"column {pos + 1} is {got[pos]!r}, expected {name!r}"
            )
    if len(got) > len(PROMISE_HEADER):
        raise SchemaError(f"unexpected extra column {got[len(PROMISE_HEADER)]!r}")


#: largest bug count the int64 column holds
_MAX_BUG_COUNT = int(np.iinfo(np.int64).max)


def _parse_bug_count(raw: str) -> int:
    bug = canonicalize_metric(raw)
    if bug != bug.to_integral_value():
        raise ParseError(f"bug count {raw!r} is not an integer")
    if bug > _MAX_BUG_COUNT:
        raise ParseError(f"bug count {raw!r} is too large")
    return int(bug)


class _Cells(dict):
    """Cell text -> ``convert(text)``, computed once per distinct text; a
    text that ``convert`` rejects raises on every lookup and is not kept."""

    def __init__(self, convert: Callable[[str], int]) -> None:
        super().__init__()
        self.convert = convert

    def __missing__(self, text: str) -> int:
        self[text] = result = self.convert(text)
        return result


#: cells per data row
_WIDTH = len(PROMISE_HEADER)


def _split_plain(text: str) -> tuple[list[str], list[str]] | None:
    r"""The header and the row-major data cells of ``text``, cut at line
    breaks and commas, when that is exactly what :func:`csv.reader` reads
    and every data row is one line of ``_WIDTH`` cells; else None.

    Cutting is exact when the text has no double quote and no NUL (which
    Python 3.10's csv rejects), no carriage return once each ``"\r\n"`` is
    folded to ``"\n"``, no blank first line and no line longer than
    :func:`csv.field_size_limit`.  Lines end at ``"\n"`` alone, as csv ends
    them (``str.splitlines`` would also end them at ``"\x1c"``, ``"\x85"``,
    ``"\u2028"`` and others).  A blank line after the header is a row of
    one cell, so text with one is not cut either.
    """
    if '"' in text or "\x00" in text:
        return None
    text = text.replace("\r\n", "\n")
    if (not text or text[0] == "\n" or "\r" in text
            or max(map(len, text.split("\n"))) > csv.field_size_limit()):
        return None
    end = text.find("\n")
    header = (text if end < 0 else text[:end]).split(",")
    # one row per line after the header; a line break starts a cell and no
    # cell holds two, so when the rows' first cells hold all the breaks,
    # each row is one line
    final_break = text.endswith("\n")
    rows = text.count("\n") - final_break
    cells = text.replace("\n", ",\n").split(",")
    del cells[:len(header)]
    if final_break:
        cells.pop()  # the final line break, alone
    if len(cells) != rows * _WIDTH or "".join(cells[::_WIDTH]).count("\n") != rows:
        return None
    return header, cells


#: one line and its line end, cut as a file opened with ``newline=""``
#: cuts it: at ``"\n"``, ``"\r\n"`` and ``"\r"`` only
_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")


def _lines(text: str) -> Iterator[str]:
    """The lines of ``text`` with their line ends, as a file opened with
    ``newline=""`` yields them to :func:`csv.reader`.  They are cut one at
    a time: ``io.StringIO`` would hold a copy of the whole text at four
    bytes a character."""
    return (line.group() for line in _LINE.finditer(text))


def _first_bad_row(text: str, cells: _Cells, bugs: _Cells) -> ParseError:
    """The error of the first bad data row of ``text`` (which csv reads
    without error) in file order, blank lines counted: its width, else its
    first bad metric cell, else its bug count."""
    rows = csv.reader(_lines(text))
    next(rows)  # the header, already checked
    for row_no, row in enumerate(rows, start=1):
        if not row:
            continue
        try:
            if len(row) != _WIDTH:
                raise ParseError(f"expected {_WIDTH} cells, got {len(row)}")
            for cell in row[3:-1]:
                cells[cell]
            bugs[row[-1]]
        except ParseError as exc:
            return ParseError(f"row {row_no}: {exc}")
    raise RuntimeError("a row failed to convert, yet every row parses")


def _csv_cells(text: str) -> list[str] | None:
    """The row-major data cells of ``text`` as :func:`csv.reader` reads them
    from a file opened with ``newline=""``, once the header is checked; None
    when a data row has the wrong width.  Rows are read to the end either
    way, so a line csv cannot read is reported before any bad row."""
    reader = csv.reader(_lines(text))
    cells: list[str] = []
    widths_ok = True
    try:
        header = next(reader, None)
        if header is None:
            raise EmptyDatasetError("no header row")
        _check_header(header)
        for row in reader:
            if len(row) == _WIDTH:
                cells += row
            elif row:  # a blank line is an empty row, and adds no cell
                widths_ok = False
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None
    return cells if widths_ok else None


def parse_dataset(source: IO[str], name: str) -> Dataset:
    """Parse one CSV text stream, read whole, by :func:`_parse_text`."""
    return _parse_text(source.read(), name)


def _parse_text(text: str, name: str) -> Dataset:
    """Parse the text of one CSV file into the dataset called ``name``.

    Text that needs none of csv's quoting or line-break rules (see
    :func:`_split_plain`) is cut with ``str.split``; any other text is read
    by :func:`csv.reader`, its lines cut as a file opened with
    ``newline=""`` cuts them.  Both give one flat, row-major list of cells,
    the columns are sliced off it, and every metric cell is mapped to its
    value id in one pass, so the value table lists the values in the order
    they first occur, row by row.

    A header-only file is the dataset with no cases (how
    :func:`write_corpus` writes a dataset cleaned to nothing).  Raises
    :class:`EmptyDatasetError` when there is no header row,
    :class:`SchemaError` on a bad header, and :class:`ParseError` on a line
    that :mod:`csv` cannot read (with its physical line number, the header
    being line 1) or on a bad cell (with its data row number).  Blank lines
    are skipped but counted in row numbers.  A line that csv cannot read
    is reported before any bad row.  When several rows are bad, the first
    one is reported: its width, else its first bad metric cell, else its
    bug count.
    """
    # Each distinct cell text is parsed and checked once, and equal values
    # share one table entry, whatever their spelling.  Only a bad row makes
    # csv's rows be walked one by one, to report the first bad one.
    index: dict[Decimal, int] = {}
    cells = _Cells(lambda text: index.setdefault(canonicalize_metric(text), len(index)))
    bugs = _Cells(_parse_bug_count)
    plain = _split_plain(text)
    if plain is None:
        texts = _csv_cells(text)
        if texts is None:
            raise _first_bad_row(text, cells, bugs)
    else:
        header, texts = plain
        _check_header(header)
    rows = len(texts) // _WIDTH
    class_names = tuple(texts[2::_WIDTH])
    # drop the project, release and class name columns, then the bug counts
    del texts[0::_WIDTH], texts[0::_WIDTH - 1], texts[0::_WIDTH - 2]
    bug_texts = texts[N_METRICS::N_METRICS + 1]
    del texts[N_METRICS::N_METRICS + 1]
    try:
        value_ids = np.fromiter(
            map(cells.__getitem__, texts), dtype=np.int32, count=rows * N_METRICS,
        ).reshape(rows, N_METRICS)
        bug_counts = np.fromiter(map(bugs.__getitem__, bug_texts), dtype=np.int64, count=rows)
    except ParseError:
        raise _first_bad_row(text, cells, bugs) from None
    return Dataset(name, class_names, tuple(index), value_ids, bug_counts)


def _csv_field(text: str) -> str:
    """One CSV field as :func:`csv.writer` writes it in a row of several.

    A printable text without a comma or a double quote is never quoted and
    is written as is.  Any other text is quoted (or not) by ``csv.writer``
    itself, so the bytes follow csv's rules on every Python version.  The
    writer's line terminator is ``"\r\n"``, so that a text holding a bare
    ``"\r"`` is quoted too: unquoted, :func:`csv.reader` would read it as a
    line break.
    """
    if text.isprintable() and "," not in text and '"' not in text:
        return text
    out = io.StringIO()
    csv.writer(out, lineterminator="\r\n").writerow((text,))
    return out.getvalue()[:-2]


def serialize_dataset(dataset: Dataset, stream: IO[str]) -> None:
    """Write a dataset back to CSV in the expected schema.

    Metric cells use :func:`canonical_str`, so two equal datasets always
    serialize to identical bytes.  Each table value is formatted once per
    call and its text is shared by every cell that holds its id.  Each row
    is built as one string: the project and release fields (the same on
    every row), the class name, the metric cells joined by commas, and the
    bug count, ended by ``"\n"``.  Metric cells and bug counts never need
    quoting, and the text fields are quoted as csv quotes them (see
    :func:`_csv_field`).  Rows are streamed one by one, never joined into
    one string.
    """
    texts = np.array([canonical_str(v) for v in dataset.values], dtype=object)
    lead = f"{_csv_field(dataset.project)},{_csv_field(dataset.release)},"
    stream.write(",".join(PROMISE_HEADER) + "\n")
    stream.writelines(
        f"{lead}{_csv_field(class_name)},{','.join(cells)},{bug}\n"
        for class_name, cells, bug in zip(
            dataset.class_names, texts[dataset.value_ids].tolist(), dataset.bug_counts.tolist()
        )
    )


def read_text(path: Path) -> str:
    r"""The text of a UTF-8 file, its bytes read once, a leading byte-order
    mark dropped.  A byte that does not decode raises :class:`ParseError`
    with the file's name and the byte's line, lines ending as csv ends them
    (``"\n"``, ``"\r\n"`` or ``"\r"``)."""
    try:
        return path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # raw lacks the byte-order mark; "." keeps a just-begun last line counted
        raw = exc.object
        line = len((raw[:exc.start] + b".").splitlines())
        raise ParseError(
            f"{path.name}: line {line}: byte 0x{raw[exc.start]:02x} is not UTF-8 ({exc.reason})"
        ) from None


def load_dataset(path: Path) -> Dataset:
    """The dataset in one CSV file (read by :func:`read_text`), named by its
    file stem.  A parse error is prefixed by the file's name."""
    text = read_text(path)
    try:
        return _parse_text(text, path.stem)
    except ValueError as exc:
        raise type(exc)(f"{path.name}: {exc}") from None


def load_corpus(directory: str | Path) -> Corpus:
    """Every ``*.csv`` in a directory, each by :func:`load_dataset`, as one
    corpus in sorted name order, so the order is the same on every platform."""
    directory = Path(directory)
    if not directory.is_dir():
        raise CorpusError(f"corpus directory {str(directory)!r} does not exist")
    datasets = [load_dataset(path) for path in sorted(directory.glob("*.csv"))]
    if not datasets:
        raise CorpusError(f"no CSV datasets found in {directory}")
    return Corpus(tuple(datasets))


@contextmanager
def atomic_writer(path: Path) -> Iterator[IO[str]]:
    """Yield a UTF-8 text stream whose contents replace ``path`` whole.

    The text goes to a temp file next to ``path``, which is renamed over it
    once the block ends without an exception.  An exception or a killed
    process leaves either the previous file or the new one, never a
    truncated file; an exception also leaves no temp file.
    """
    temp = path.with_name(f".{path.name}.tmp")
    try:
        with open(temp, "w", newline="", encoding="utf-8") as stream:
            yield stream
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)  # gone already after a successful rename


def write_corpus(corpus: Corpus, directory: str | Path) -> list[Path]:
    """Write every dataset of a corpus as ``<name>.csv`` under a directory,
    each through :func:`atomic_writer`."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for ds in corpus.datasets:
        path = directory / f"{ds.name}.csv"
        with atomic_writer(path) as stream:
            serialize_dataset(ds, stream)
        paths.append(path)
    return paths
