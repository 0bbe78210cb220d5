"""Golden digests of the experiment, quality and cleaning outputs.

Every other reproducibility test compares two runs of the same code, so a
refactor that silently moves a score passes them.  These pin SHA-256
digests of fixed runs: the three machine-readable reports of one small
grid (all three filters and all three learners on a synthetic corpus salted
with duplicates and label conflicts), and the quality reports, cleaning
summaries and cleaned CSVs of a small corpus whose CSV text also carries
respelled and nearly equal metric values.  When a change moves a digest on
purpose, re-pin it here and record the reason in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io

import numpy as np
import pytest

from defectclean.cleaning import clean_corpus
from defectclean.data import N_METRICS, load_corpus, serialize_dataset, write_corpus
from defectclean.datagen import synthetic_corpus, synthetic_dataset
from defectclean.harness import ExperimentConfig, WORKERS_ENV, run_experiment
from defectclean.quality import corpus_quality
from defectclean.reports import (
    write_clean_summary, write_experiment_reports, write_quality_reports,
)

from .conftest import decimal_rows

GOLDEN = {
    "results.json":
        "df014ac742cab90a05587b70420066c7826193a2d127772c54e4dd3779c44685",
    "fmeasure_change.csv":
        "74d46a0456078f6543123b2902952db71f6990cc6e34c8021f106ec49f1765d2",
    "auc_change.csv":
        "2c7a3ae3a199706562e593e04910cd9c2bbedfb88955f560ac3f889f88e2f414",
}


def golden_digests(out_dir) -> dict[str, str]:
    corpus = synthetic_corpus(
        seed=2024, cases=80, duplicate_rate=0.15, inconsistent_rate=0.1)
    config = ExperimentConfig(
        corpus_dir=None,
        targets=("alpha1.1", "gamma1.0"),
        seed=7,
        burak_k=5,
        forest_trees=3,
    )
    write_experiment_reports(run_experiment(config, corpus=corpus), out_dir)
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in GOLDEN
    }


@pytest.mark.parametrize("workers", ["1", "2"])
def test_report_digests_are_pinned(tmp_path, monkeypatch, workers):
    monkeypatch.setenv(WORKERS_ENV, workers)
    assert golden_digests(tmp_path) == GOLDEN


# ------------------------------------------------------------------ corpus

GOLDEN_CORPUS = {
    "quality.json":
        "96b6dce7246622cbaf0f2df00d5c0b5916b0a7ab1fc514a94465c10f4b1f13f4",
    "quality.md":
        "d8cd6e1cf37016450c201d7a188a16e4d3a23366a5f1c609bda716ff52a90630",
    "clean_summary.json":
        "773909fc0685c292f1eabe0116e7f7d3e308bb94a908a75a75e83d2109374404",
    "clean_summary.md":
        "dc869ab7d42d0098615364e147eec08613d10d623880bf8f6aa8981d6c8d4f98",
    "cleaned/*.csv":
        "b366032fb011ea7f6772c1b998432f898694e2b4cee597845c19f1b101199414",
}


def salted_corpus_dir(directory):
    """Write a small corpus whose CSV text exercises exact equality.

    Later releases of a project carry copies of earlier cases, some with
    the label flipped, so the cross-release counts are not zero.  Metric
    cells are respelled at random ("3" as "3.0" or "3.00", "0.25" as
    "0.250"), and some copies get a ratio cell that differs from the
    original only past the 18th decimal place: equal as floats, distinct as
    decimals.
    """
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(404)
    corpus = synthetic_corpus(
        seed=77,
        releases=("alpha1.0", "alpha1.1", "alpha1.2", "beta2.0", "beta2.1", "gamma1.0"),
        cases=50,
        duplicate_rate=0.15,
        inconsistent_rate=0.1,
    )
    previous = None
    for ds in corpus:
        cases = decimal_rows(ds)
        if previous is not None and previous.project == ds.project:
            old = decimal_rows(previous)
            for i in rng.choice(previous.case_count, size=12, replace=False):
                class_name, metrics, bugs = old[int(i)]
                bugs = bugs if rng.random() < 0.6 else int(not bugs)
                cases.insert(int(rng.integers(len(cases) + 1)),
                             (class_name + "Old", metrics, bugs))
        buffer = io.StringIO()
        serialize_dataset(ds.replace_cases(cases), buffer)
        lines = buffer.getvalue().splitlines()
        rows = [lines[0]]
        for line in lines[1:]:
            cells = line.split(",")
            for col in range(3, 3 + N_METRICS):
                if rng.random() < 0.3:
                    cells[col] += ("0" if "." in cells[col]
                                   else (".0", ".00")[int(rng.integers(2))])
            if "Old" in cells[2] and rng.random() < 0.2:
                cells[3 + 9] += "00000000000000001"  # lcom3, a ratio column
            rows.append(",".join(cells))
        (directory / f"{ds.name}.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        previous = ds
    return directory


def corpus_digests(tmp_path) -> dict[str, str]:
    corpus = load_corpus(salted_corpus_dir(tmp_path / "corpus"))
    out = tmp_path / "out"
    within, cross = corpus_quality(corpus, include_pairs=True)
    write_quality_reports(within, cross, out / "quality")
    cleaned, summary = clean_corpus(corpus)
    write_corpus(cleaned, out / "cleaned")
    write_clean_summary(summary, out / "cleaned")

    def sha(path) -> str:
        return hashlib.sha256(path.read_bytes()).hexdigest()

    tree = hashlib.sha256()
    for path in sorted((out / "cleaned").glob("*.csv")):
        tree.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return {
        "quality.json": sha(out / "quality" / "quality.json"),
        "quality.md": sha(out / "quality" / "quality.md"),
        "clean_summary.json": sha(out / "cleaned" / "clean_summary.json"),
        "clean_summary.md": sha(out / "cleaned" / "clean_summary.md"),
        "cleaned/*.csv": tree.hexdigest(),
    }


def test_salted_corpus_has_every_problem_kind(tmp_path):
    corpus = load_corpus(salted_corpus_dir(tmp_path))
    within, cross = corpus_quality(corpus, include_pairs=True)
    assert len(cross) == 4  # alpha: C(3, 2), beta: C(2, 2)
    assert all(r.identical_pair_count and r.inconsistent_pair_count
               for r in cross if r.release_b.endswith(".1"))
    assert all(r.identical_case_count and r.inconsistent_case_count for r in within)


def test_corpus_digests_are_pinned(tmp_path):
    assert corpus_digests(tmp_path) == GOLDEN_CORPUS


# ----------------------------------------------------------------- datagen

#: the benchmark's synthetic twin is built by ``synthetic_dataset``, so any
#: change to its random draws or their order moves these digests
GOLDEN_DATAGEN = {
    "synthetic_corpus":
        "f97c7bb9bbba686550f7dd0a06b741448578437f37517d4f5de3ebd4eff24e02",
    "synthetic_dataset":
        "b9f0cf8bbd1cd82c7e37a04a6bdab5d949b1c8c83b84d30d53573a6f388643b9",
}


def csv_digest(datasets) -> str:
    tree = hashlib.sha256()
    for ds in datasets:
        buffer = io.StringIO()
        serialize_dataset(ds, buffer)
        tree.update(ds.name.encode() + b"\0" + buffer.getvalue().encode() + b"\0")
    return tree.hexdigest()


def test_datagen_digests_are_pinned():
    assert {
        "synthetic_corpus": csv_digest(
            synthetic_corpus(seed=31, duplicate_rate=0.2, inconsistent_rate=0.1)),
        "synthetic_dataset": csv_digest([synthetic_dataset(
            "large2.0", seed=8, cases=4000, defect_rate=0.2,
            duplicate_rate=0.3, inconsistent_rate=0.05)]),
    } == GOLDEN_DATAGEN
