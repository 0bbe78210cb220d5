"""Golden digests of the experiment reports.

Every other reproducibility test compares two runs of the same code, so a
refactor that silently moves a score passes them.  This one pins the
SHA-256 of the three machine-readable reports of one small fixed grid:
all three filters and all three learners on a synthetic corpus salted with
duplicates and label conflicts.  When a change moves a digest on purpose,
re-pin it here and record the reason in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from defectclean.datagen import synthetic_corpus
from defectclean.harness import ExperimentConfig, WORKERS_ENV, run_experiment
from defectclean.reports import write_experiment_reports

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
    write_experiment_reports(
        run_experiment(config, corpus=corpus), out_dir, formats=("csv", "json"))
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in GOLDEN
    }


@pytest.mark.parametrize("workers", ["1", "2"])
def test_report_digests_are_pinned(tmp_path, monkeypatch, workers):
    monkeypatch.setenv(WORKERS_ENV, workers)
    assert golden_digests(tmp_path) == GOLDEN
