"""Report emitter tests.

The AVG row of a change grid must be recomputable from the CSV text alone:
cells carry full-precision floats, so parsing them back and averaging the
defined ones has to reproduce the AVG cell exactly (same mean, same
exclusions).
"""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from defectclean.cleaning import clean_corpus
from defectclean.datagen import synthetic_corpus
from defectclean.harness import ExperimentConfig, run_experiment
from defectclean.quality import corpus_quality
from defectclean.reports import (
    clean_summary_json,
    clean_summary_markdown,
    experiment_grid_csv,
    experiment_grid_markdown,
    experiment_json,
    quality_json,
    quality_markdown,
    write_clean_summary,
    write_experiment_reports,
    write_quality_reports,
)

from .conftest import case, dataset


@pytest.fixture(scope="module")
def run():
    corpus = synthetic_corpus(seed=21, duplicate_rate=0.15, inconsistent_rate=0.1)
    config = ExperimentConfig(
        corpus_dir=None,
        filters=("global", "burak"),
        learners=("naive_bayes", "decision_tree"),
        forest_trees=3,
        seed=5,
    )
    return run_experiment(config, corpus=corpus)


class TestQualityReports:
    def test_json_payload(self):
        corpus = synthetic_corpus(seed=22, duplicate_rate=0.2)
        within, cross = corpus_quality(corpus)
        payload = quality_json(within, cross)
        assert payload["format"] == 1
        assert [w["dataset"] for w in payload["within"]] == [ds.name for ds in corpus]
        for w, report in zip(payload["within"], within):
            assert w["cases"] == report.case_count
            assert w["identical_cases"] == report.identical_case_count
            assert w["inconsistent_cases"] == report.inconsistent_case_count
        assert len(payload["cross_release"]) == len(cross)

    def test_markdown_sections(self):
        corpus = synthetic_corpus(seed=22)
        within, cross = corpus_quality(corpus)
        text = quality_markdown(within, cross)
        assert "## Within-release problem cases" in text
        assert "## Cross-release problem pairs" in text
        assert text.count("\n| ") >= len(within) + len(cross)
        no_cross = quality_markdown(within, [])
        assert "Cross-release" not in no_cross

    def test_writer_is_deterministic(self, tmp_path):
        corpus = synthetic_corpus(seed=23, inconsistent_rate=0.1)
        within, cross = corpus_quality(corpus)
        paths = write_quality_reports(within, cross, tmp_path / "a")
        assert sorted(p.name for p in paths.values()) == ["quality.json", "quality.md"]
        first = {k: p.read_bytes() for k, p in paths.items()}
        again = write_quality_reports(within, cross, tmp_path / "b")
        assert {k: p.read_bytes() for k, p in again.items()} == first
        json.loads(paths["json"].read_text())  # valid JSON


class TestCleanSummaryReports:
    def test_payload_and_files(self, tmp_path):
        corpus = synthetic_corpus(seed=24, duplicate_rate=0.2, inconsistent_rate=0.1)
        _, summary = clean_corpus(corpus)
        payload = clean_summary_json(summary)
        assert [d["dataset"] for d in payload["datasets"]] == [ds.name for ds in corpus]
        text = clean_summary_markdown(summary)
        assert "post-cleaning counts" in text
        paths = write_clean_summary(summary, tmp_path)
        assert paths["json"].name == "clean_summary.json"
        assert paths["markdown"].name == "clean_summary.md"
        loaded = json.loads(paths["json"].read_text())
        assert loaded == json.loads(json.dumps(payload))


class TestExperimentGrids:
    def test_csv_header_is_learner_by_filter(self, run):
        text = experiment_grid_csv(run, "fmeasure")
        header = text.splitlines()[0].split(",")
        assert header == [
            "target",
            "naive_bayes/global", "naive_bayes/burak",
            "decision_tree/global", "decision_tree/burak",
        ]

    def test_csv_rows_cover_targets_plus_avg(self, run):
        rows = list(csv.reader(experiment_grid_csv(run, "auc").splitlines()))
        targets = {r.target for r in run.results}
        assert len(rows) == 1 + len(targets) + 1
        assert rows[-1][0] == "AVG"

    def test_avg_recomputable_from_csv_text(self, run):
        for metric in ("fmeasure", "auc"):
            rows = list(csv.reader(experiment_grid_csv(run, metric).splitlines()))
            body, avg_row = rows[1:-1], rows[-1]
            for col in range(1, len(rows[0])):
                defined = [
                    float(r[col]) for r in body if r[col] != "n/a"
                ]
                if not defined:
                    assert avg_row[col] == "n/a"
                else:
                    assert float(avg_row[col]) == float(np.mean(defined))

    def test_csv_cells_match_results(self, run):
        rows = list(csv.reader(experiment_grid_csv(run, "fmeasure").splitlines()))
        header = rows[0]
        cells = {
            (r[0], header[i]): r[i] for r in rows[1:-1] for i in range(1, len(header))
        }
        for result in run.results:
            if result.metric != "fmeasure":
                continue
            cell = cells[(result.target, f"{result.learner}/{result.filter_name}")]
            if result.change_percent is None:
                assert cell == "n/a"
            else:
                assert float(cell) == result.change_percent

    def test_markdown_grid(self, run):
        text = experiment_grid_markdown(run, "fmeasure")
        assert text.startswith("# Rate of F-measure change after cleaning (%)")
        assert "| target |" in text
        assert "| AVG |" in text
        auc_text = experiment_grid_markdown(run, "auc")
        assert "AUC change" in auc_text

    def test_json_payload_complete(self, run):
        payload = experiment_json(run)
        assert payload["format"] == 1
        assert payload["config"]["filters"] == ["global", "burak"]
        assert len(payload["results"]) == len(run.results)
        sample = payload["results"][0]
        assert set(sample) == {
            "target", "filter", "learner", "metric", "original", "cleaned",
            "change_percent", "note", "provenance",
        }
        json.dumps(payload)  # fully serializable
        for entry, result in zip(payload["results"], run.results):
            assert entry["change_percent"] == result.change_percent
            selection = entry["provenance"]["selection"]
            assert set(selection) == {"original", "cleaned"}
            if selection["original"] is not None:
                assert selection["original"]["selection_size"] >= 1

    def test_write_experiment_reports(self, run, tmp_path):
        paths = write_experiment_reports(run, tmp_path)
        assert sorted(p.name for p in paths.values()) == [
            "auc_change.csv", "auc_change.md", "fmeasure_change.csv",
            "fmeasure_change.md", "results.json",
        ]
        first = {p.name: p.read_bytes() for p in paths.values()}
        again = write_experiment_reports(run, tmp_path / "again")
        assert {p.name: p.read_bytes() for p in again.values()} == first

    def test_results_json_round_trips_the_payload(self, run, tmp_path):
        # the payload holds only JSON types (no tuples), so the written file
        # reads back as exactly what experiment_json returned
        path = write_experiment_reports(run, tmp_path)["json"]
        assert json.loads(path.read_text(encoding="utf-8")) == experiment_json(run)

    def test_undefined_cells_render_na_everywhere(self, tmp_path):
        # a corpus whose only valid target has a single-class test set:
        # auc is undefined in both variants, so its grid is all n/a
        corpus_cases = [case(f"p{i}", i % 2 == 0, i) for i in range(10)]
        mono_cases = [case(f"m{i}", True, 50 + i) for i in range(4)]
        from defectclean.data import Corpus

        corpus = Corpus((
            dataset("pool1.0", corpus_cases),
            dataset("mono1.0", mono_cases),
        ))
        config = ExperimentConfig(
            corpus_dir=None, targets=("mono1.0",), filters=("global",),
            learners=("naive_bayes",), forest_trees=3,
        )
        run = run_experiment(config, corpus=corpus)
        text = experiment_grid_csv(run, "auc")
        rows = list(csv.reader(text.splitlines()))
        assert rows[1][1] == "n/a"
        assert rows[-1][1] == "n/a"  # AVG over nothing defined


class TestAtomicWrites:
    def test_failed_rename_keeps_previous_file_and_leaves_no_temp(
        self, run, tmp_path, monkeypatch
    ):
        paths = write_experiment_reports(run, tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("os.replace", replace)
        with pytest.raises(OSError, match="disk full"):
            write_experiment_reports(run, tmp_path)
        with pytest.raises(OSError, match="disk full"):
            write_clean_summary([], tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert set(before) == {p.name for p in paths.values()}

    def test_rewrite_replaces_the_file(self, tmp_path):
        corpus = synthetic_corpus(seed=23, inconsistent_rate=0.1)
        within, cross = corpus_quality(corpus)
        path = write_quality_reports(within, [], tmp_path)["markdown"]
        assert "Cross-release" not in path.read_text(encoding="utf-8")
        write_quality_reports(within, cross, tmp_path)
        assert "Cross-release" in path.read_text(encoding="utf-8")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["quality.json", "quality.md"]
