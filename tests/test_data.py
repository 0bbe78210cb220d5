"""Dataset model and CSV round-trip tests.

The canonical-value oracle here is ``fractions.Fraction``: two metric cell
strings denote the same number exactly when their Fractions are equal, so
canonicalize_metric must agree with that verdict on every pair.
"""

from __future__ import annotations

import dataclasses
import io
import pickle
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from defectclean.data import (
    Corpus,
    CorpusError,
    Dataset,
    EmptyDatasetError,
    METRIC_NAMES,
    N_METRICS,
    ParseError,
    PROMISE_HEADER,
    SchemaError,
    canonical_str,
    canonicalize_metric,
    load_corpus,
    metric_float,
    parse_dataset,
    serialize_dataset,
    split_project,
    write_corpus,
)
from defectclean.datagen import synthetic_corpus, synthetic_dataset
from defectclean.selection import build_pool

from .conftest import case, dataset, decimal_rows, vector


def make_csv(rows: list[list[str]], header=PROMISE_HEADER) -> io.StringIO:
    lines = [",".join(header)]
    lines += [",".join(row) for row in rows]
    return io.StringIO("\n".join(lines) + "\n")


def data_row(project="demo", version="1.0", name="a.B", metrics=None, bug="0"):
    metrics = metrics if metrics is not None else ["1"] * N_METRICS
    return [project, version, name, *metrics, bug]


class TestCanonicalize:
    def test_formatting_variants_compare_equal(self):
        spellings = ["1", "1.0", "1.00", "01", "1.000000", "1e0", "0.1e1"]
        values = [canonicalize_metric(s) for s in spellings]
        assert len(set(values)) == 1
        assert len({hash(v) for v in values}) == 1

    def test_agrees_with_fraction_oracle_on_random_pairs(self, rng):
        digits = "0123456789"
        def random_literal():
            whole = "".join(rng.choice(list(digits), size=int(rng.integers(1, 3))))
            if rng.random() < 0.5:
                frac = "".join(rng.choice(list(digits), size=int(rng.integers(1, 4))))
                return f"{whole}.{frac}"
            return whole

        for _ in range(2000):
            a, b = random_literal(), random_literal()
            expected = Fraction(a) == Fraction(b)
            assert (canonicalize_metric(a) == canonicalize_metric(b)) == expected, (a, b)

    def test_close_but_distinct_values_stay_distinct(self):
        assert canonicalize_metric("0.1") != canonicalize_metric("0.10000000001")
        assert canonicalize_metric("1000000000000001") != canonicalize_metric(
            "1000000000000002"
        )

    @pytest.mark.parametrize("bad", ["", "  ", "abc", "1.2.3", "nan", "inf", "-inf", "-1", "-0.5"])
    def test_rejects_invalid_text(self, bad):
        with pytest.raises(ParseError):
            canonicalize_metric(bad)

    def test_canonical_str_strips_insignificant_zeros(self):
        assert canonical_str(Decimal("1.00")) == "1"
        assert canonical_str(Decimal("2.50")) == "2.5"
        assert canonical_str(Decimal("0.0")) == "0"
        assert canonical_str(Decimal("100")) == "100"
        assert canonical_str(Decimal("0.125")) == "0.125"
        # exponents are written out in fixed point, trailing zeros and all
        assert canonical_str(Decimal("1E+2")) == "100"
        assert canonical_str(Decimal("5.0E+30")) == "5" + "0" * 30
        assert canonical_str(Decimal("1.20E-30")) == "0." + "0" * 29 + "12"
        assert canonical_str(Decimal("0E+30")) == "0"

    def test_negative_zero_serializes_as_zero(self):
        # "-0" parses (it is not below zero) and equals 0, so it must print
        # as 0 too; serialize_dataset formats each distinct value once and
        # would otherwise print whichever spelling of zero came first
        assert canonicalize_metric("-0.00") == 0
        assert canonical_str(canonicalize_metric("-0.00")) == "0"
        assert canonical_str(Decimal("-0")) == "0"

    def test_canonical_str_identical_for_equal_values(self, rng):
        for _ in range(500):
            value = int(rng.integers(0, 10_000))
            scale = int(rng.integers(0, 4))
            a = Decimal(value).scaleb(-scale)  # value * 10^-scale
            text = format(a, "f")
            pad = int(rng.integers(0, 3))
            if pad:
                text += ("" if "." in text else ".") + "0" * pad
            b = Decimal(text)
            assert a == b
            assert canonical_str(a) == canonical_str(b)


def direct_dataset(values, bugs=(0,)) -> Dataset:
    """A dataset built straight from its columns: one case per bug count,
    every case holding value 0 of ``values`` in all 20 metrics."""
    return Dataset(
        "d1.0", tuple(f"C{i}" for i in range(len(bugs))), tuple(values),
        np.zeros((len(bugs), N_METRICS), dtype=np.int32), np.array(bugs, dtype=np.int64),
    )


class TestRowChecks:
    """Every constructor holds rows of 20 finite, non-negative Decimals
    and non-negative bug counts."""

    def test_project_and_release_come_from_the_name(self):
        assert [f.name for f in dataclasses.fields(Dataset)] == [
            "name", "class_names", "values", "value_ids", "bug_counts",
        ]
        for name in ("ant1.7", "xercesinit", "log4j1.1", "berek"):
            ds = dataset(name, [case("a", True, 1)])
            assert (ds.project, ds.release) == split_project(name)
            assert (ds.take([0]).project, ds.replace_cases(()).release) == split_project(name)

    def test_equality_ignores_formatting(self):
        a = dataset("f1.0", [("a", tuple(Decimal("1.0") for _ in range(N_METRICS)), 0)])
        b = dataset("f1.0", [("a", tuple(Decimal("1.00") for _ in range(N_METRICS)), 0)])
        assert a == b
        assert decimal_rows(a) == decimal_rows(b)
        assert hash(decimal_rows(a)[0][1]) == hash(decimal_rows(b)[0][1])

    @pytest.mark.parametrize("width", [0, N_METRICS - 1, N_METRICS + 1])
    def test_wrong_arity_rejected(self, width):
        row = ("x", tuple(Decimal(1) for _ in range(width)), 0)
        with pytest.raises(ValueError, match="metric values"):
            dataset("w1.0", [case("a", False, 1), row])
        with pytest.raises(ValueError, match="metric values"):
            dataset("w1.0", [case("a", False, 1)]).replace_cases([row])

    @pytest.mark.parametrize("bad", [
        Decimal("-1"), Decimal("-0.5"), Decimal("NaN"), Decimal("sNaN"), Decimal("Infinity"),
        1.0, 2, "3", [4],
    ])
    def test_negative_nonfinite_and_non_decimal_values_rejected(self, bad):
        values = list(vector(1))
        values[3] = bad
        with pytest.raises(ValueError, match="invalid metric value"):
            dataset("v1.0", [("x", tuple(values), 0)])
        with pytest.raises(ValueError, match="invalid metric value"):
            direct_dataset([Decimal(1), bad])

    def test_negative_zero_accepted(self):
        assert direct_dataset([Decimal("-0")]).feature_matrix.tolist() == [[0.0] * N_METRICS]

    def test_label_follows_bug_count(self):
        ds = dataset("l1.0", [case("a", False), case("b", True), ("x", vector(1), 3)])
        assert ds.labels.tolist() == [False, True, True]
        with pytest.raises(ValueError, match="negative bug count"):
            dataset("l1.0", [("x", vector(1), -1)])
        with pytest.raises(ValueError, match="negative bug count"):
            direct_dataset([Decimal(1)], bugs=(0, -1))


class TestSplitProject:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("ant1.7", ("ant", "1.7")),
            ("jedit4.3", ("jedit", "4.3")),
            ("camel1.0", ("camel", "1.0")),
            ("prop1", ("prop", "1")),
            ("prop6", ("prop", "6")),
            ("berek", ("berek", "")),
            ("forrest0.8", ("forrest", "0.8")),
            ("xercesinit", ("xerces", "init")),
            ("xerces1.2", ("xerces", "1.2")),
            ("log4j1.0", ("log4j", "1.0")),
            ("pbeans2", ("pbeans", "2")),
            ("elearning", ("elearning", "")),
            ("tomcat", ("tomcat", "")),
            ("log4j", ("log4j", "")),
            ("e-learning", ("e-learning", "")),
            ("1.0", ("1.0", "")),
        ],
    )
    def test_known_names(self, name, expected):
        assert split_project(name) == expected

    def test_all_public_dataset_names_group_into_expected_projects(self):
        # the 65 class-level dataset names of the public corpus
        names = [
            "ant1.7", "arc", "berek",
            "camel1.0", "camel1.2", "camel1.4", "camel1.6",
            "ckjm", "elearning", "forrest0.6", "forrest0.7", "forrest0.8",
            "intercafe", "ivy1.1", "ivy1.4", "ivy2.0",
            "jedit3.2", "jedit4.0", "jedit4.1", "jedit4.2", "jedit4.3",
            "kalkulator", "log4j1.0", "log4j1.1", "log4j1.2",
            "lucene2.0", "lucene2.2", "lucene2.4",
            "nieruchomosci", "pdftranslator",
            "poi1.5", "poi2.0", "poi2.5", "poi3.0",
            "prop1", "prop2", "prop3", "prop4", "prop5", "prop6",
            "redaktor", "serapion", "skarbonka", "sklebagd",
            "synapse1.0", "synapse1.1", "synapse1.2",
            "systemdata", "szybkafucha", "termoproject", "tomcat",
            "velocity1.4", "velocity1.5", "velocity1.6",
            "workflow", "wspomaganiepi",
            "xalan2.4", "xalan2.5", "xalan2.6", "xalan2.7",
            "xerces1.2", "xerces1.3", "xerces1.4", "xercesinit", "zuzel",
        ]
        assert len(names) == len(set(names)) == 65
        projects = {}
        for name in names:
            project, release = split_project(name)
            assert project + release == name
            projects.setdefault(project, []).append(name)
        assert len(projects) == 32
        # multi-release families group together
        assert len(projects["camel"]) == 4
        assert len(projects["forrest"]) == 3
        assert len(projects["ivy"]) == 3
        assert len(projects["jedit"]) == 5
        assert len(projects["log4j"]) == 3
        assert len(projects["lucene"]) == 3
        assert len(projects["poi"]) == 4
        assert len(projects["prop"]) == 6
        assert len(projects["synapse"]) == 3
        assert len(projects["velocity"]) == 3
        assert len(projects["xalan"]) == 4
        assert len(projects["xerces"]) == 4  # includes the "init" release
        singles = [p for p, members in projects.items() if len(members) == 1]
        assert len(singles) == 20


class TestParseDataset:
    def test_parses_counts_labels_and_name(self):
        rows = [
            data_row(name="A", metrics=["1"] * N_METRICS, bug="0"),
            data_row(name="B", metrics=["2"] * N_METRICS, bug="1"),
            data_row(name="C", metrics=["3"] * N_METRICS, bug="5"),
        ]
        ds = parse_dataset(make_csv(rows), name="demo1.0")
        assert ds.project == "demo" and ds.release == "1.0"
        assert ds.case_count == 3
        assert ds.defective_count == 2
        assert ds.bug_counts[2] == 5
        assert ds.class_names[0] == "A"

    def test_name_override_controls_identity(self):
        ds = parse_dataset(make_csv([data_row()]), name="xercesinit")
        assert (ds.project, ds.release) == ("xerces", "init")

    def test_header_case_and_spacing_tolerated(self):
        header = [h.upper() + " " for h in PROMISE_HEADER]
        ds = parse_dataset(make_csv([data_row()], header=header), name="demo1.0")
        assert ds.case_count == 1

    def test_missing_column_named(self):
        header = list(PROMISE_HEADER[:-1])  # drop "bug"
        rows = [data_row()[:-1]]
        with pytest.raises(SchemaError, match="bug"):
            parse_dataset(make_csv(rows, header=header), name="demo1.0")

    def test_swapped_column_named(self):
        header = list(PROMISE_HEADER)
        header[4], header[5] = header[5], header[4]  # dit <-> noc
        with pytest.raises(SchemaError, match="noc"):
            parse_dataset(make_csv([data_row()], header=header), name="demo1.0")

    def test_extra_column_rejected(self):
        header = list(PROMISE_HEADER) + ["extra"]
        rows = [data_row() + ["1"]]
        with pytest.raises(SchemaError, match="extra"):
            parse_dataset(make_csv(rows, header=header), name="demo1.0")

    def test_bad_metric_cell_reports_row(self):
        rows = [data_row(), data_row(metrics=["1"] * 19 + ["oops"])]
        with pytest.raises(ParseError, match="row 2"):
            parse_dataset(make_csv(rows), name="demo1.0")

    def test_non_integer_bug_count_rejected(self):
        with pytest.raises(ParseError, match="bug"):
            parse_dataset(make_csv([data_row(bug="1.5")]), name="demo1.0")

    def test_bug_count_spellings_parse_to_the_same_integer(self):
        rows = [data_row(name=n, bug=b) for n, b in (("A", "2"), ("B", "2.0"), ("C", "2.00"))]
        ds = parse_dataset(make_csv(rows), name="demo1.0")
        assert ds.bug_counts.tolist() == [2, 2, 2]
        assert all(type(bug) is int for _, _, bug in decimal_rows(ds))

    def test_repeated_bad_bug_count_names_its_first_row(self):
        rows = [data_row(bug="1"), data_row(bug="1.5"), data_row(bug="1.5")]
        with pytest.raises(ParseError, match=r"^row 2: bug count '1\.5' is not an integer$"):
            parse_dataset(make_csv(rows), name="demo1.0")

    def test_parsed_vectors_equal_checked_vectors(self):
        cells = ["0.0", "-0", "1.50", "2", "0.25"] + ["3"] * (N_METRICS - 5)
        ds = parse_dataset(make_csv([data_row(metrics=cells)]), name="demo1.0")
        checked = tuple(map(canonicalize_metric, cells))
        _, parsed, _ = decimal_rows(ds)[0]
        assert parsed == checked
        assert hash(parsed) == hash(checked)

    def test_empty_file_and_headerless_file(self):
        with pytest.raises(EmptyDatasetError, match="no header"):
            parse_dataset(io.StringIO(""), name="named1.0")

    def test_oversized_header_field_names_line_1(self):
        header = list(PROMISE_HEADER)
        header[2] = "x" * 200_000
        with pytest.raises(ParseError, match=r"^line 1: field larger than field limit \(131072\)$"):
            parse_dataset(make_csv([data_row()], header=header), name="demo1.0")

    @pytest.mark.parametrize(
        "bad", [["oops"] * N_METRICS, ["1"] * (N_METRICS - 1)], ids=["bad-cell", "wrong-width"]
    )
    def test_oversized_row_field_names_its_file_line(self, bad):
        # the header is line 1 and the blank line counts, so the big field
        # is on line 4; csv's error wins over data row 1's bad cell or
        # wrong width
        rows = [data_row(metrics=bad), [], data_row(name="x" * 200_000)]
        with pytest.raises(ParseError, match=r"^line 4: field larger than field limit \(131072\)$"):
            parse_dataset(make_csv(rows), name="demo1.0")

    def test_named_header_only_file_is_an_empty_dataset(self):
        ds = parse_dataset(io.StringIO(make_csv([]).getvalue() + "\n"), name="xercesinit")
        assert ds == dataset("xercesinit", [])
        assert (ds.project, ds.release, ds.case_count) == ("xerces", "init", 0)
        assert ds.feature_matrix.shape == (0, N_METRICS)
        written = io.StringIO()
        serialize_dataset(ds, written)
        assert written.getvalue() == make_csv([]).getvalue()

    def test_blank_lines_skipped(self):
        stream = make_csv([data_row()])
        text = stream.getvalue() + "\n\n"
        ds = parse_dataset(io.StringIO(text), name="demo1.0")
        assert ds.case_count == 1


@st.composite
def metric_values(draw) -> tuple[int, int]:
    """A value ``digits * 10**-scale``: zero, small, or up to 80 digits long."""
    width = draw(st.sampled_from([1, 3, 17, 80]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    digits = "".join(map(str, rng.integers(0, 10, size=width)))
    return int(digits) * draw(st.sampled_from([0, 1])), draw(st.integers(0, 85))


@st.composite
def spellings(draw, value: tuple[int, int]) -> str:
    """One of many texts of a value: exponent-free with extra leading or
    trailing zeros, or with an exponent, and ``-0`` for zero."""
    digits, scale = value
    if draw(st.booleans()):
        text = f"{digits}E-{scale}"
    else:
        plain = str(digits).rjust(scale + 1, "0")
        text = f"{plain[:-scale]}.{plain[-scale:]}" if scale else plain
        if draw(st.booleans()):
            text += ("" if scale else ".") + "0" * draw(st.integers(0, 3))
        text = "0" * draw(st.integers(0, 2)) + text
    if digits == 0 and draw(st.booleans()):
        text = "-" + text
    return text


@st.composite
def csv_texts(draw) -> str:
    """A CSV whose cells respell a few shared values, so equal rows rarely
    share text."""
    values = draw(st.lists(metric_values(), min_size=1, max_size=4))
    rows = []
    for i in range(draw(st.integers(1, 8))):
        metrics = [draw(spellings(draw(st.sampled_from(values))))
                   for _ in range(N_METRICS)]
        bug = draw(st.sampled_from(["0", "1", "2", "1.0", "02", "0.00"]))
        rows.append(data_row(name=f"C{i}", metrics=metrics, bug=bug))
    return make_csv(rows).getvalue()


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(csv_texts())
    def test_parse_serialize_parse_is_identity(self, text):
        first = parse_dataset(io.StringIO(text), name="demo1.0")
        written = io.StringIO()
        serialize_dataset(first, written)
        second = parse_dataset(io.StringIO(written.getvalue()), name="demo1.0")
        assert second == first
        assert np.array_equal(second.feature_matrix, first.feature_matrix)
        again = io.StringIO()
        serialize_dataset(second, again)
        assert again.getvalue() == written.getvalue()

    def test_serialize_parse_identity(self):
        for seed in range(5):
            original = synthetic_dataset("roundtrip1.0", seed=seed, cases=40,
                                         duplicate_rate=0.1, inconsistent_rate=0.1)
            buffer = io.StringIO()
            serialize_dataset(original, buffer)
            buffer.seek(0)
            parsed = parse_dataset(buffer, name="roundtrip1.0")
            assert parsed == original

    def test_equal_datasets_serialize_identically(self):
        # same numeric values spelled differently parse to equal datasets
        rows_a = [data_row(metrics=["1.0"] + ["2"] * 19, bug="0")]
        rows_b = [data_row(metrics=["1.00"] + ["2.0"] * 19, bug="0")]
        ds_a = parse_dataset(make_csv(rows_a), name="x1.0")
        ds_b = parse_dataset(make_csv(rows_b), name="x1.0")
        assert ds_a == ds_b
        out_a, out_b = io.StringIO(), io.StringIO()
        serialize_dataset(ds_a, out_a)
        serialize_dataset(ds_b, out_b)
        assert out_a.getvalue() == out_b.getvalue()

    def test_pickle_round_trip_is_equal_and_read_only(self):
        # worker processes receive their datasets pickled; a copy is rebuilt
        # through the constructor, so its columns are frozen again and its
        # cached arrays are derived afresh, not carried over writeable
        original = synthetic_dataset("pickled1.0", seed=4, cases=30, duplicate_rate=0.1)
        original.feature_matrix, original.labels  # fill the caches before pickling
        copy = pickle.loads(pickle.dumps(original))
        assert copy == original
        for array in (copy.value_ids, copy.bug_counts, copy.feature_matrix, copy.labels):
            assert not array.flags.writeable
        assert np.array_equal(copy.feature_matrix, original.feature_matrix)
        assert "feature_matrix" not in vars(pickle.loads(pickle.dumps(original)))

    def test_feature_matrix_matches_cases(self):
        ds = synthetic_dataset("m1.0", seed=3, cases=25)
        matrix = ds.feature_matrix
        cases = decimal_rows(ds)
        assert matrix.shape == (25, N_METRICS)
        assert matrix[4].tolist() == [metric_float(v) for v in cases[4][1]]
        assert ds.labels.tolist() == [bug >= 1 for _, _, bug in cases]


class TestFeatureMatrix:
    def test_equal_values_get_equal_bits_whatever_their_spelling(self):
        # "-0" equals 0 and shares its feature group, so it must share its
        # float bits too, in either row order and in the stacked pool matrix
        zero = data_row(name="Z", metrics=["0"] + ["1"] * (N_METRICS - 1), bug="1")
        negative = data_row(name="N", metrics=["-0.00"] + ["1.0"] * (N_METRICS - 1))
        other = synthetic_dataset("other1.0", seed=1, cases=5)
        for rows in ([zero, negative], [negative, zero]):
            ds = parse_dataset(make_csv(rows), name="zeros1.0")
            ids, _ = ds.feature_ids
            assert ids.tolist() == [0, 0]
            matrix = ds.feature_matrix
            assert matrix[0].tobytes() == matrix[1].tobytes()
            assert not np.signbit(matrix).any()
            assert matrix.tobytes() == np.array(
                [[metric_float(v) for v in values] for _, values, _ in decimal_rows(ds)]
            ).tobytes()
            pool = build_pool(Corpus((other, ds)), other)
            assert pool.feature_matrix[0].tobytes() == pool.feature_matrix[1].tobytes()
            assert pool.feature_matrix.tobytes() == matrix.tobytes()


class TestCorpus:
    def test_load_corpus_from_directory(self, tmp_path):
        corpus = synthetic_corpus(seed=1)
        write_corpus(corpus, tmp_path)
        loaded = load_corpus(tmp_path)
        assert [ds.name for ds in loaded] == sorted(ds.name for ds in corpus)
        assert {ds.name: ds.case_count for ds in loaded} == {
            ds.name: ds.case_count for ds in corpus
        }
        assert loaded.projects["alpha"] == ("alpha1.0", "alpha1.1")

    def test_failed_rename_keeps_previous_file_and_leaves_no_temp(
        self, tmp_path, monkeypatch
    ):
        write_corpus(synthetic_corpus(seed=1), tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("os.replace", replace)
        with pytest.raises(OSError, match="disk full"):
            write_corpus(synthetic_corpus(seed=2), tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_missing_directory(self, tmp_path):
        with pytest.raises(CorpusError, match="does not exist"):
            load_corpus(tmp_path / "nope")

    def test_only_csv_files_are_datasets(self, tmp_path):
        (tmp_path / "notes.txt").write_text("not a dataset\n")
        with pytest.raises(CorpusError, match="no CSV datasets found"):
            load_corpus(tmp_path)
        write_corpus(synthetic_corpus(seed=1), tmp_path)
        names = [ds.name for ds in load_corpus(tmp_path)]
        assert "notes" not in names and len(names) == len(synthetic_corpus(seed=1))

    def test_parse_error_names_offending_file(self, tmp_path):
        write_corpus(synthetic_corpus(seed=1), tmp_path)
        bad = tmp_path / "beta2.0.csv"
        bad.write_text(bad.read_text() + "x,y\n")
        with pytest.raises(ParseError, match="beta2.0.csv"):
            load_corpus(tmp_path)

    def test_overflowing_metric_names_file_and_row(self, tmp_path):
        # 1e400 is a finite decimal but an infinite float feature
        write_corpus(synthetic_corpus(seed=1), tmp_path)
        bad = tmp_path / "beta2.0.csv"
        lines = bad.read_text().splitlines(keepends=True)
        cells = lines[3].split(",")
        cells[5] = "1e400"
        lines[3] = ",".join(cells)
        bad.write_text("".join(lines))
        with pytest.raises(
            ParseError, match=r"^beta2\.0\.csv: row 3: metric value '1e400' overflows a float$"
        ):
            load_corpus(tmp_path)

    def test_a_byte_order_mark_is_dropped(self, tmp_path):
        write_corpus(synthetic_corpus(seed=1), tmp_path / "plain")
        (tmp_path / "bom").mkdir()
        for path in (tmp_path / "plain").iterdir():
            (tmp_path / "bom" / path.name).write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        plain, bom = load_corpus(tmp_path / "plain"), load_corpus(tmp_path / "bom")
        assert [ds.name for ds in bom] == [ds.name for ds in plain]
        for a, b in zip(plain, bom):
            assert b == a and b.values == a.values
            assert b.value_ids.tobytes() == a.value_ids.tobytes()

    def test_duplicate_names_rejected(self):
        ds = dataset("dup1.0", [case("a", False, 1)])
        with pytest.raises(CorpusError, match="duplicate"):
            Corpus((ds, ds))

    def test_get_unknown_dataset(self):
        corpus = synthetic_corpus(seed=1)
        with pytest.raises(CorpusError, match="nosuch"):
            corpus.get("nosuch")


def test_metric_names_are_the_standard_twenty():
    assert len(METRIC_NAMES) == 20
    assert METRIC_NAMES[0] == "wmc" and METRIC_NAMES[-1] == "avg_cc"
    assert PROMISE_HEADER[0] == PROMISE_HEADER[2] == "name"
