"""The columnar parser and the string-built writer against their
references, and ``Dataset.take``.

``parse_dataset`` reads a whole file into value-id columns and locates a bad
row afterwards; ``tests/_reference_data.py`` reads one row at a time and
builds one ``(class_name, metric_values, bug_count)`` row per line.  On any
text the two must agree: equal datasets (cases, float features, labels,
feature groups) or the same exception class with the same message.
``serialize_dataset`` builds each row as one string and ``canonical_str``
formats without a ``Decimal`` context; on any dataset they must write the
bytes of the ``csv.writer`` reference, or raise what it raises.
"""

from __future__ import annotations

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decimal import Decimal

from defectclean.data import (
    Dataset, N_METRICS, PROMISE_HEADER, ParseError, canonical_str, metric_float, parse_dataset,
    row_keys, serialize_dataset,
)
from defectclean.datagen import synthetic_dataset

from ._reference_data import reference_canonical_str, reference_parse, reference_serialize
from .conftest import case, dataset, decimal_rows, problem_datasets

#: spellings of a few values: respelled integers, zeros with a sign,
#: trailing zeros, exponents, and long exponent-free decimals
VALUES: tuple[tuple[str, ...], ...] = (
    ("3", "3.0", "3.00", "03", "3e0", "0.3E1"),
    ("0", "-0", "0.000", "-0.0", "0e5"),
    ("0.25", "0.250", "2.5e-1", "25E-2"),
    ("12345678901234567890.123456789012345678901234567890",
     "12345678901234567890.1234567890123456789012345678900"),
    ("0.1", "0.10"),
    ("0.10000000000000001",),
    ("1.7976931348623157e308",),
)

#: bad metric cells: empty, non-numeric, negative, non-finite, overflowing
BAD_CELLS = ("", "abc", "1.2.3", "-1", "-0.5", "nan", "inf", "1e400", "2E+309")

#: bug cells: good spellings, then non-integer, negative, overflowing and
#: out-of-range ones
GOOD_BUGS = ("0", "1", "2", "1.0", "02", "0.00", "-0", "3e0")
BAD_BUGS = ("1.5", "-1", "x", "1e400", "1e30", "")

#: class names csv never quotes, then ones it quotes
PLAIN_NAMES = ("a.B", "org.x.Y", "  padded ", "caf\u00e9\u2028\x85\x1c")
CLASS_NAMES = PLAIN_NAMES + ("with,comma", 'with "quote"', "a,b,c")


def csv_line(cells: list[str], eol: str = "\n") -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator=eol).writerow(cells)
    return out.getvalue()


@st.composite
def csv_documents(draw) -> str:
    """CSV text with respelled values, blank lines and, in about half the
    documents, quoted names and projects; ``"\n"`` or ``"\r\n"`` line ends;
    now and then a bad row or cell (several, to pin which comes first)."""
    if draw(st.integers(0, 30)) == 0:
        return draw(st.sampled_from(["", "\n", csv_line(list(PROMISE_HEADER)), "x,y\n"]))
    plain = draw(st.booleans())
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    values = draw(st.lists(st.integers(0, len(VALUES) - 1), min_size=1, max_size=4))
    bad_rate = draw(st.sampled_from([0.0, 0.0, 0.05, 0.3]))
    lines = [csv_line(list(PROMISE_HEADER), eol)]
    for i in range(draw(st.integers(0, 12))):
        while draw(st.integers(0, 5)) == 0:
            lines.append(eol)
        metrics = [draw(st.sampled_from(VALUES[draw(st.sampled_from(values))]))
                   for _ in range(N_METRICS)]
        bug = draw(st.sampled_from(GOOD_BUGS))
        name = draw(st.sampled_from(PLAIN_NAMES if plain else CLASS_NAMES)) + str(i)
        project = "demo" if plain else draw(st.sampled_from(["demo", "x,y"]))
        row = [project, "1.0", name, *metrics, bug]
        if bad_rate and draw(st.floats(0, 1)) < bad_rate:
            kind = draw(st.sampled_from(["short", "long", "cell", "cells", "bug", "cell+bug"]))
            if kind == "short":
                row = row[:draw(st.integers(1, len(row) - 1))]
            elif kind == "long":
                row = row + ["1"]
            if kind in ("cell", "cells", "cell+bug"):
                for _ in range(2 if kind == "cells" else 1):
                    row[3 + draw(st.integers(0, N_METRICS - 1))] = draw(st.sampled_from(BAD_CELLS))
            if kind in ("bug", "cell+bug"):
                row[-1] = draw(st.sampled_from(BAD_BUGS))
        lines.append(csv_line(row, eol))
    if draw(st.booleans()):
        lines.append(eol)
    return "".join(lines)


def outcome(parse, text: str, name: str = "named1.0"):
    """A parser's dataset or its error on ``text``, read from a stream that
    ends lines as a file that :func:`load_corpus` opens does."""
    try:
        return parse(io.StringIO(text, newline=""), name), None
    except ValueError as exc:
        return None, (type(exc), str(exc))


def reference_ids(ds: Dataset) -> tuple[list[int], list[tuple[Decimal, ...]]]:
    """Feature groups numbered by first occurrence, over the Decimal rows."""
    index: dict[tuple[Decimal, ...], int] = {}
    ids = [index.setdefault(metrics, len(index)) for _, metrics, _ in decimal_rows(ds)]
    return ids, list(index)


def assert_same_dataset(got: Dataset, want: Dataset) -> None:
    assert got == want and want == got
    cases = decimal_rows(want)
    assert decimal_rows(got) == cases
    assert got.class_names == tuple(class_name for class_name, _, _ in cases)
    assert got.bug_counts.tolist() == [bugs for _, _, bugs in cases]
    assert got.feature_matrix.tobytes() == np.array(
        [[metric_float(v) for v in metrics] for _, metrics, _ in cases],
        dtype=np.float64).reshape(-1, N_METRICS).tobytes()
    assert got.labels.tolist() == [bugs >= 1 for _, _, bugs in cases]
    ids, first = got.feature_ids
    want_ids, want_vectors = reference_ids(want)
    assert ids.tolist() == want_ids
    rows = got.value_ids[first]
    assert [tuple(got.values[i] for i in row) for row in rows.tolist()] == want_vectors


def assert_same_parse(text: str, name: str = "named1.0") -> None:
    """``parse_dataset`` and the reference give the same dataset, its value
    table in the same order and spellings, or the same error."""
    got, got_error = outcome(parse_dataset, text, name)
    want, want_error = outcome(reference_parse, text, name)
    assert got_error == want_error
    if want is not None:
        assert_same_dataset(got, want)
        assert (got.project, got.release, got.name) == (want.project, want.release, want.name)
        assert list(map(str, got.values)) == list(map(str, want.values))
        assert got.value_ids.tobytes() == want.value_ids.tobytes()


def plain_row(name: str = "a.B", cells: int = len(PROMISE_HEADER)) -> str:
    """One data line of ``cells`` cells that csv never quotes, unended:
    a good row cut short, or padded with ones."""
    row = ["demo", "1.0", name, *["1"] * N_METRICS, "0"]
    return ",".join(row[:cells] + ["1"] * (cells - len(row)))


H = ",".join(PROMISE_HEADER)
ROW = plain_row()

#: csv's field size limit
LIMIT = csv.field_size_limit()


class TestParseAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(csv_documents(), st.sampled_from(["named1.0", "xercesinit"]))
    def test_same_dataset_or_same_error(self, text, name):
        assert_same_parse(text, name)

    @pytest.mark.parametrize("text", [
        pytest.param(H + "\r\n" + ROW + "\r\n" + ROW + "\r\n", id="crlf"),
        pytest.param(H + "\r\n" + ROW + "\n" + ROW, id="mixed-eol"),
        pytest.param(H + "\r" + ROW + "\r" + ROW + "\r", id="cr-eol"),
        pytest.param(H + "\n" + plain_row("a\rb") + "\n", id="bare-cr"),
        pytest.param(H + "\n" + ROW + "\r\r\n", id="cr-crlf"),
        pytest.param(H + "\n" + plain_row("a\x00b") + "\n", id="nul"),
        pytest.param(H + "\n" + plain_row('"a.B"') + "\n", id="quoted-name"),
        pytest.param(H + "\n" + plain_row('a"b') + "\n", id="quote-inside"),
        pytest.param(H + "\n" + plain_row('"q"') + "\n" + plain_row("a\x85b\u2028c") + "\n",
                     id="quote-and-unicode-breaks"),
        pytest.param(H + "\n" + ROW, id="no-final-eol"),
        pytest.param("\n\n" + H + "\n" + ROW + "\n", id="leading-blank"),
        pytest.param(H + "\n\n" + ROW + "\n", id="blank-after-header"),
        pytest.param(H + "\n" + ROW + "\n\n\n", id="trailing-blank"),
        pytest.param(H + "\n" + ROW + "\n \n", id="space-line"),
        pytest.param(H + "\n", id="header-only"),
        pytest.param(H, id="header-only-no-eol"),
        pytest.param("", id="empty"),
        pytest.param("\n", id="one-blank-line"),
        pytest.param(H + ",extra\n" + plain_row(cells=25) + "\n", id="wide-header"),
        # rows of other widths whose cells add up to whole rows
        pytest.param(H + "\n" + plain_row(cells=23) + "\n" + plain_row(cells=25) + "\n",
                     id="23+25"),
        pytest.param(H + "\n" + ROW + "\n" + plain_row(cells=12) + "\n" + plain_row(cells=12),
                     id="24+12+12"),
        pytest.param(H + "\n" + plain_row(cells=12) + "\n" + plain_row(cells=12) + "\n" + ROW,
                     id="12+12+24"),
        pytest.param(H + "\n" + plain_row(cells=48) + "\n", id="48"),
        # ... and whose cells all convert once shifted into other columns
        pytest.param(H + "\n" + ",".join(["1"] * 23) + "\n" + ",".join(["1"] * 25) + "\n",
                     id="numeric-23+25"),
    ])
    def test_plain_and_csv_edge_cases(self, text):
        assert_same_parse(text)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize("where", ["line", "field"])
    def test_at_the_field_size_limit(self, extra, where):
        # a line of LIMIT characters, or a field of LIMIT, give or take one
        fill = LIMIT + extra - (len(plain_row("")) if where == "line" else 0)
        assert_same_parse(H + "\n" + plain_row("x" * fill) + "\n" + ROW + "\n")

    @pytest.mark.parametrize("separator", ["\u2028", "\x85", "\x1c", "\x0b", "\x0c"])
    def test_a_field_over_the_limit_split_by_a_unicode_line_break(self, separator):
        # str.splitlines breaks there; csv does not, and finds the field too large
        name = "x" * (LIMIT // 2) + separator + "x" * (LIMIT // 2)
        text = H + "\n" + plain_row(name) + "\n"
        assert outcome(parse_dataset, text)[1] == (
            ParseError, f"line 2: field larger than field limit ({LIMIT})")
        assert_same_parse(text)

    def test_plain_text_is_not_read_by_csv(self, monkeypatch):
        ds = synthetic_dataset("plain1.0", seed=2, cases=60, duplicate_rate=0.2)
        out = io.StringIO()
        serialize_dataset(ds, out)
        texts = [out.getvalue(), out.getvalue().replace("\n", "\r\n")]

        def reader(*args, **kwargs):
            raise AssertionError("csv.reader called on text that needs no csv rules")

        monkeypatch.setattr(csv, "reader", reader)
        for text in texts:
            assert_same_dataset(parse_dataset(io.StringIO(text, newline=""), ds.name), ds)

    @pytest.mark.parametrize("rows,message", [
        # the first bad row wins, whatever kind its fault is
        ([["1"] * 20 + ["0"], ["x"] * 20 + ["0"], ["1"] * 3], "row 2: non-numeric metric value 'x'"),
        ([["1"] * 20 + ["0"], ["1"] * 3, ["x"] * 20 + ["0"]], "row 2: expected 24 cells, got 6"),
        # in a row: the first bad metric cell, then the bug count
        ([["1"] * 18 + ["-1", "y", "1.5"]], "row 1: negative metric value '-1'"),
        ([["1"] * 20 + ["1.5"]], "row 1: bug count '1.5' is not an integer"),
        ([["1"] * 20 + ["0"], ["1e400"] + ["1"] * 19 + ["0"]],
         "row 2: metric value '1e400' overflows a float"),
        ([["1"] * 20 + ["1e30"]], "row 1: bug count '1e30' is too large"),
    ])
    def test_first_fault_is_reported(self, rows, message):
        lines = [csv_line(list(PROMISE_HEADER))]
        lines += [csv_line(["p", "1", "C", *cells]) for cells in rows]
        text = "".join(lines)
        _, got = outcome(parse_dataset, text)
        _, want = outcome(reference_parse, text)
        assert got == want
        assert got[1] == message

    def test_a_line_csv_cannot_read_is_reported_before_bad_rows(self):
        text = csv_line(list(PROMISE_HEADER)) + csv_line(["p", "1", "C"] + ["z"] * 21) + "\n"
        text += csv_line(["p", "1", "x" * 200_000] + ["1"] * 21)
        _, got = outcome(parse_dataset, text)
        assert got == (ParseError, "line 4: field larger than field limit (131072)")
        assert outcome(reference_parse, text)[1] == got

    def test_blank_lines_count_in_row_numbers(self):
        text = csv_line(list(PROMISE_HEADER)) + "\n\n" + csv_line(["p", "1", "C"] + ["z"] * 21)
        text += csv_line(["p", "1", "D"])
        _, got = outcome(parse_dataset, text)
        assert got[1] == "row 3: non-numeric metric value 'z'"
        assert outcome(reference_parse, text)[1] == got


#: characters a text field may hold: ones csv quotes (comma, double
#: quote, line breaks), NUL, spaces, non-ASCII ones (a line separator and
#: NEL among them) and plain ones
FIELD_CHARS = ',"\n\r\x00 \t.aZ9\u00e9\u4e2d\u2028\x85'


@st.composite
def decimals(draw, signed: bool = True) -> Decimal:
    """Finite Decimals with trailing zeros, exponents up to +-30 and
    negative zeros; negative values too when ``signed``."""
    digits = draw(st.lists(st.integers(0, 9), min_size=1, max_size=8))
    digits += [0] * draw(st.integers(0, 4))
    sign = draw(st.integers(0, 1)) if signed or not any(digits) else 0
    return Decimal((sign, tuple(digits), draw(st.integers(-30, 30))))


@st.composite
def text_datasets(draw, chars: str = FIELD_CHARS) -> Dataset:
    """Datasets whose class names and release need quoting now and then:
    the release follows a fixed project, so it may start with any
    character, and values come from :func:`decimals` (non-negative)."""
    release = draw(st.text(chars, max_size=4))
    values = draw(st.lists(decimals(signed=False), min_size=1, max_size=5))
    cases = []
    for _ in range(draw(st.integers(0, 6))):
        name = draw(st.text(chars, max_size=6))
        row = [draw(st.sampled_from(values)) for _ in range(N_METRICS)]
        cases.append((name, row, draw(st.integers(0, 3))))
    return Dataset.from_cases("proj" + release, cases)


def written(serialize, ds: Dataset):
    """The text a writer writes for ``ds``, or the error it raises."""
    out = io.StringIO()
    try:
        serialize(ds, out)
    except csv.Error as exc:
        return None, str(exc)
    return out.getvalue(), None


class TestSerializeAgainstReference:
    @settings(max_examples=500, deadline=None)
    @given(decimals())
    def test_canonical_str_matches_the_normalize_reference(self, value):
        assert canonical_str(value) == reference_canonical_str(value)

    @settings(max_examples=250, deadline=None)
    @given(text_datasets())
    def test_same_bytes_as_the_csv_writer(self, ds):
        assert written(serialize_dataset, ds) == written(reference_serialize, ds)

    @pytest.mark.parametrize("class_name", [
        "a,b", 'say "x"', " lead", "", "line\nbreak", "\x00", "caf\u00e9", "\u2028", "a\rb",
    ])
    def test_same_bytes_for_names_that_may_need_quoting(self, class_name):
        ds = Dataset.from_cases("q1,0", [(class_name, [Decimal("1.50")] * N_METRICS, 1)])
        assert written(serialize_dataset, ds) == written(reference_serialize, ds)

    @settings(max_examples=150, deadline=None)
    @given(text_datasets())
    def test_parse_reads_back_what_serialize_writes(self, ds):
        text, error = written(serialize_dataset, ds)
        if error is None:
            assert_same_dataset(parse_dataset(io.StringIO(text), name=ds.name), ds)

    def test_bare_carriage_return_in_a_class_name_reads_back(self):
        # unquoted, csv.reader would read the bare "\r" as a line break
        ds = Dataset.from_cases("r1.0", [("a\rb", [Decimal(1)] * N_METRICS, 0)])
        text, _ = written(serialize_dataset, ds)
        assert '"a\rb"' in text
        assert parse_dataset(io.StringIO(text), name=ds.name) == ds


class TestTake:
    @settings(max_examples=200, deadline=None)
    @given(problem_datasets(), st.data())
    def test_equals_a_dataset_of_the_picked_cases(self, ds, data):
        rows = data.draw(st.lists(st.integers(0, ds.case_count - 1), max_size=2 * ds.case_count))
        taken = ds.take(rows)
        cases = decimal_rows(ds)
        want = Dataset.from_cases(ds.name, [cases[i] for i in rows])
        assert_same_dataset(taken, want)
        assert taken.values is ds.values
        ids, first = taken.feature_ids
        assert ids.tolist() == reference_ids(want)[0]
        # the groups in key order, as a second sort of their rows finds them
        keys = row_keys(taken.value_ids[first])
        assert taken.feature_order.tolist() == np.argsort(keys).tolist()

    def test_take_nothing(self):
        ds = dataset("t1.0", [case("a", True, 1), case("b", False, 2)])
        empty = ds.take([])
        assert empty.case_count == 0 and empty.feature_matrix.shape == (0, N_METRICS)
        assert empty == ds.replace_cases(())


class TestColumns:
    def test_equality_ignores_table_order(self):
        a = dataset("e1.0", [case("a", True, 1, 2), case("b", False, 2, 1)])
        b = Dataset(a.name, a.class_names, a.values[::-1],
                    (len(a.values) - 1 - a.value_ids).astype(np.int32), a.bug_counts.copy())
        assert a == b
        c = Dataset(a.name, a.class_names, a.values,
                    a.value_ids[::-1].copy(), a.bug_counts.copy())
        assert a != c

    def test_columns_are_read_only(self):
        ds = dataset("r1.0", [case("a", True, 1)])
        for array in (ds.value_ids, ds.bug_counts, ds.feature_matrix, ds.labels, *ds.feature_ids,
                      ds.label_counts, ds.feature_order):
            with pytest.raises(ValueError):
                array[0] = 0

    @pytest.mark.parametrize("change,match", [
        (lambda ds: {"values": ds.values + ds.values[:1]}, "equal values"),
        (lambda ds: {"value_ids": ds.value_ids.astype(np.int64)}, "int32"),
        (lambda ds: {"value_ids": np.full((1, N_METRICS), 9, dtype=np.int32)}, "outside"),
        (lambda ds: {"bug_counts": np.array([-1], dtype=np.int64)}, "negative"),
        (lambda ds: {"class_names": ("a", "b")}, "shape"),
    ])
    def test_bad_columns_rejected(self, change, match):
        ds = dataset("b1.0", [case("a", True, 1, 2)])
        fields = dict(name=ds.name, class_names=ds.class_names, values=ds.values,
                      value_ids=ds.value_ids.copy(), bug_counts=ds.bug_counts.copy())
        fields.update(change(ds))
        with pytest.raises(ValueError, match=match):
            Dataset(**fields)
