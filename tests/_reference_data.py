"""Reference implementations of the CSV reader and writer in ``data``.

``reference_parse`` is the row-wise reference for ``parse_dataset``.

The parser as it was before datasets became columns: take the CSV one row
at a time, check the row's width, parse each of its cells (each distinct
text once) and build one ``(class_name, metric_values, bug_count)`` row
per line.  The per-cell rules
(``canonicalize_metric``, ``_parse_bug_count``) are shared with the
package; what this oracle pins is everything around them: which rows are
read, which error is raised first and with which row or line number, and
the cases themselves.

``reference_serialize`` and ``reference_canonical_str`` are the writer as
it was before rows were built as strings: every row goes through
``csv.writer``, and each value is normalized in a ``Decimal`` context sized
to its digits.  The package's writer must give the same bytes.
"""

from __future__ import annotations

import csv
import io
from decimal import Decimal, localcontext
from typing import IO, Iterable

import numpy as np

from defectclean.data import (
    Dataset,
    EmptyDatasetError,
    N_METRICS,
    PROMISE_HEADER,
    ParseError,
    _check_header,
    _parse_bug_count,
    canonicalize_metric,
)


def reference_parse(source: IO[str] | Iterable[str], name: str) -> Dataset:
    """Same contract and result as ``parse_dataset``."""
    reader = csv.reader(source)
    try:
        header = next(reader, None)
        if header is None:
            raise EmptyDatasetError("no header row")
        _check_header(header)
        lines = list(reader)
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None

    cells: dict[str, Decimal] = {}
    bugs: dict[str, int] = {}
    cases: list[tuple[str, tuple[Decimal, ...], int]] = []
    for row_no, row in enumerate(lines, start=1):
        if not row:
            continue
        if len(row) != len(PROMISE_HEADER):
            raise ParseError(f"row {row_no}: expected {len(PROMISE_HEADER)} cells, got {len(row)}")
        try:
            for cell in row[3:3 + N_METRICS]:
                if cell not in cells:
                    cells[cell] = canonicalize_metric(cell)
            values = tuple(cells[cell] for cell in row[3:3 + N_METRICS])
            if row[-1] not in bugs:
                bugs[row[-1]] = _parse_bug_count(row[-1])
        except ParseError as exc:
            raise ParseError(f"row {row_no}: {exc}") from None
        cases.append((row[2], values, bugs[row[-1]]))
    return Dataset.from_cases(name, cases)


def reference_canonical_str(value: Decimal) -> str:
    """Same contract and result as ``canonical_str``."""
    if not value:
        return "0"  # normalize() keeps the sign of a negative zero ("-0.0")
    with localcontext() as ctx:
        ctx.prec = len(value.as_tuple().digits)  # so normalize() cannot round
        norm = value.normalize()
    return format(norm, "f")


def reference_serialize(dataset: Dataset, stream: IO[str]) -> None:
    """Same contract and bytes as ``serialize_dataset``.

    Each row goes through a ``csv.writer`` whose line terminator is
    ``"\r\n"``, so a field holding a bare ``"\r"`` is quoted, and its
    ``"\r\n"`` is then written as ``"\n"``.
    """
    texts = np.array([reference_canonical_str(v) for v in dataset.values], dtype=object)
    head = (dataset.project, dataset.release)
    rows = [PROMISE_HEADER] + [
        (*head, class_name, *cells, bug)
        for class_name, cells, bug in zip(
            dataset.class_names, texts[dataset.value_ids].tolist(), dataset.bug_counts.tolist()
        )
    ]
    for row in rows:
        out = io.StringIO()
        csv.writer(out, lineterminator="\r\n").writerow(row)
        stream.write(out.getvalue()[:-2] + "\n")
