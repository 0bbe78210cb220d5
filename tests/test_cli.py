"""End-to-end command-line tests on a temporary synthetic corpus."""

from __future__ import annotations

import json

import numpy as np
import pytest

from defectclean.cleaning import clean_corpus
from defectclean import cli
from defectclean.cli import main
from defectclean.data import Corpus, load_corpus, write_corpus
from defectclean.datagen import synthetic_corpus
from defectclean.quality import within_quality
from defectclean.selection import build_pool, burak_filter

from .conftest import case, dataset, decimal_rows


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    write_corpus(
        synthetic_corpus(seed=31, duplicate_rate=0.15, inconsistent_rate=0.1), path
    )
    return path


class TestQualityCommand:
    def test_writes_reports(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "q"
        rc = main(["quality", "--corpus", str(corpus_dir), "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "analysed 5 datasets" in stdout
        payload = json.loads((out / "quality.json").read_text())
        assert len(payload["within"]) == 5
        assert payload["cross_release"] == []  # pairs not requested
        assert (out / "quality.md").exists()

    def test_pairs_flag(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "q"
        rc = main(["quality", "--corpus", str(corpus_dir), "--pairs",
                   "--out", str(out)])
        assert rc == 0
        assert "compared 2 release pairs" in capsys.readouterr().out
        payload = json.loads((out / "quality.json").read_text())
        assert len(payload["cross_release"]) == 2

    def test_counts_match_library(self, corpus_dir, tmp_path):
        out = tmp_path / "q"
        main(["quality", "--corpus", str(corpus_dir), "--out", str(out)])
        payload = json.loads((out / "quality.json").read_text())
        corpus = load_corpus(corpus_dir)
        for entry in payload["within"]:
            report = within_quality(corpus.get(entry["dataset"]))
            assert entry["identical_cases"] == report.identical_case_count
            assert entry["inconsistent_cases"] == report.inconsistent_case_count


class TestCleanCommand:
    def test_cleans_and_round_trips(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "cleaned"
        rc = main(["clean", "--corpus", str(corpus_dir), "--out", str(out)])
        assert rc == 0
        assert "cleaned 5 datasets" in capsys.readouterr().out
        reloaded = load_corpus(out)
        expected, summary = clean_corpus(load_corpus(corpus_dir))
        assert tuple(reloaded) == tuple(expected)
        payload = json.loads((out / "clean_summary.json").read_text())
        assert [d["dataset"] for d in payload["datasets"]] == [
            r.dataset for r in summary
        ]
        for ds in reloaded:
            assert within_quality(ds).problem_free

    def test_broken_cleaner_fails_self_check(self, corpus_dir, tmp_path, monkeypatch, capsys):
        # a cleaner that removes nothing but reports consistent sizes: the
        # rescan of its output must catch it before anything is written
        def keep_everything(corpus):
            _, summary = clean_corpus(corpus)
            return corpus, summary

        monkeypatch.setattr(cli, "clean_corpus", keep_everything)
        out = tmp_path / "cleaned"
        rc = main(["clean", "--corpus", str(corpus_dir), "--out", str(out)])
        assert rc == 2
        assert "still contains identical or inconsistent cases" in capsys.readouterr().err
        assert not out.exists()

    def test_dataset_cleaned_to_nothing_reads_back(self, tmp_path):
        # {X,+} {X,-}: the whole release goes, and its file is a header alone
        conflicted = dataset("mixed1.0", [case("a", True, 1), case("b", False, 1)])
        write_corpus(Corpus((conflicted,)), tmp_path / "in")
        out = tmp_path / "cleaned"
        assert main(["clean", "--corpus", str(tmp_path / "in"), "--out", str(out)]) == 0
        assert (out / "mixed1.0.csv").read_text().count("\n") == 1

    def test_written_file_must_read_back(self, corpus_dir, tmp_path, monkeypatch, capsys):
        # a writer that loses the first row of the first dataset
        def drop_a_row(corpus, directory):
            first, *rest = corpus.datasets
            damaged = Corpus((first.take(np.arange(1, first.case_count)), *rest))
            return write_corpus(damaged, directory)

        monkeypatch.setattr(cli, "write_corpus", drop_a_row)
        out = tmp_path / "cleaned"
        rc = main(["clean", "--corpus", str(corpus_dir), "--out", str(out)])
        assert rc == 2
        assert "alpha1.0.csv does not read back" in capsys.readouterr().err
        assert not (out / "clean_summary.json").exists()

    def test_written_file_must_read_back_value_for_value(
        self, corpus_dir, tmp_path, monkeypatch, capsys
    ):
        # a writer that keeps every row but adds a bug to the first case
        def add_a_bug(corpus, directory):
            first, *rest = corpus.datasets
            (class_name, metrics, bugs), *tail = decimal_rows(first)
            damaged = first.replace_cases([(class_name, metrics, bugs + 1), *tail])
            return write_corpus(Corpus((damaged, *rest)), directory)

        monkeypatch.setattr(cli, "write_corpus", add_a_bug)
        out = tmp_path / "cleaned"
        rc = main(["clean", "--corpus", str(corpus_dir), "--out", str(out)])
        assert rc == 2
        assert "alpha1.0.csv does not read back" in capsys.readouterr().err
        assert not (out / "clean_summary.json").exists()


class TestSelectCommand:
    def test_stdout_payload_matches_library(self, corpus_dir, capsys):
        rc = main(["select", "--corpus", str(corpus_dir), "--filter", "burak",
                   "--target", "beta2.0", "--k", "3"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        corpus = load_corpus(corpus_dir)
        target = corpus.get("beta2.0")
        pool = build_pool(corpus, target)
        expected = burak_filter(pool, target, k=3)
        assert payload["filter"] == "burak"
        assert payload["selected_count"] == len(expected)
        assert [e["pool_index"] for e in payload["selected"]] == expected.selected.tolist()
        sample = payload["selected"][0]
        assert 0 <= sample["origin_row"] < corpus.get(sample["origin"]).case_count

    def test_out_file(self, corpus_dir, tmp_path):
        out = tmp_path / "sel" / "selection.json"
        rc = main(["select", "--corpus", str(corpus_dir), "--filter", "peters",
                   "--target", "gamma1.0", "--seed", "4", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["parameters"]["seed"] == 4
        assert payload["selected_count"] <= load_corpus(corpus_dir).get(
            "gamma1.0").case_count

    def test_raw_distance_and_mixed_flags(self, corpus_dir, capsys):
        rc = main(["select", "--corpus", str(corpus_dir), "--filter", "global",
                   "--target", "alpha1.1", "--mixed", "--raw-distance"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        origins = {e["origin"] for e in payload["selected"]}
        assert "alpha1.0" in origins  # mixed mode admits the older release
        assert "alpha1.1" not in origins

    def test_unknown_target_fails_cleanly(self, corpus_dir, capsys):
        rc = main(["select", "--corpus", str(corpus_dir), "--filter", "global",
                   "--target", "nosuch1.0"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestExperimentCommand:
    def test_full_run(self, corpus_dir, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text(
            f"corpus = {corpus_dir}\n"
            "targets = beta2.0\n"
            "filters = global, burak\n"
            "learners = naive_bayes, decision_tree\n"
            "seed = 2\n"
            "forest_trees = 3\n"
        )
        out = tmp_path / "report"
        rc = main(["experiment", "--config", str(config), "--out", str(out)])
        assert rc == 0
        assert "8 result rows" in capsys.readouterr().out
        results = json.loads((out / "results.json").read_text())
        assert results["config"]["seed"] == 2
        assert len(results["results"]) == 8
        for name in ("fmeasure_change.csv", "auc_change.csv",
                     "fmeasure_change.md", "auc_change.md"):
            assert (out / name).exists()

    def test_relative_corpus_resolved_against_config(self, corpus_dir, tmp_path):
        config = tmp_path / "exp.cfg"
        (tmp_path / "data").symlink_to(corpus_dir)
        config.write_text(
            "corpus = data\ntargets = gamma1.0\nfilters = global\n"
            "learners = naive_bayes\n"
        )
        out = tmp_path / "report"
        assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "results.json").exists()

    def test_bad_config_fails_cleanly(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("nonsense = 1\n")
        rc = main(["experiment", "--config", str(config)])
        assert rc == 1
        assert "unknown key" in capsys.readouterr().err


class TestTopLevel:
    def test_missing_corpus_dir(self, tmp_path, capsys):
        rc = main(["quality", "--corpus", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "q")])
        assert rc == 1
        assert "does not exist" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip()

    def test_subcommand_required(self, capsys):
        with pytest.raises(SystemExit):
            main([])
