"""End-to-end command-line tests on a temporary synthetic corpus."""

from __future__ import annotations

import json
import shutil
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from defectclean.cleaning import clean_corpus
from defectclean import cli
from defectclean.cli import main
from defectclean.data import Corpus, load_corpus, write_corpus
from defectclean.datagen import synthetic_corpus, synthetic_dataset
from defectclean.quality import within_quality
from defectclean.selection import build_pool, burak_filter, global_filter

from .conftest import case, dataset, decimal_rows, with_cell


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

    def test_oversized_field_fails_with_file_and_line(self, tmp_path, capsys):
        write_corpus(Corpus((dataset("big", [case("x" * 200_000, True, 1)]),)), tmp_path / "in")
        assert main(["quality", "--corpus", str(tmp_path / "in"), "--out", str(tmp_path / "q")]) == 1
        assert capsys.readouterr().err == (
            "error: big.csv: line 2: field larger than field limit (131072)\n"
        )

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    def test_a_byte_that_is_not_utf8_fails_with_file_and_line(self, tmp_path, capsys, eol):
        write_corpus(Corpus((dataset("ant1.7", [case("a.B", False, 1), case("a.C", True, 2)]),)),
                     tmp_path / "in")
        path = tmp_path / "in" / "ant1.7.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2].replace("a.C", "a.Café")
        path.write_bytes(eol.join(lines).encode("latin-1"))
        assert main(["quality", "--corpus", str(tmp_path / "in"), "--out", str(tmp_path / "q")]) == 1
        assert capsys.readouterr().err == (
            "error: ant1.7.csv: line 3: byte 0xe9 is not UTF-8 (invalid continuation byte)\n"
        )
        # a config file is read the same way
        config = tmp_path / "bad.cfg"
        config.write_bytes(eol.join(["corpus = in", "targets = café", ""]).encode("latin-1"))
        assert main(["experiment", "--config", str(config), "--out", str(tmp_path / "e")]) == 1
        assert capsys.readouterr().err == (
            "error: bad.cfg: line 2: byte 0xe9 is not UTF-8 (invalid continuation byte)\n"
        )


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
        assert load_corpus(out).get("mixed1.0") == conflicted.replace_cases(())

    def test_bare_carriage_return_in_a_class_name_survives(self, tmp_path):
        names = dataset("names1.0", [case("a\rb", True, 1), case("c\r", False, 2)])
        write_corpus(Corpus((names,)), tmp_path / "in")
        out = tmp_path / "cleaned"
        assert main(["clean", "--corpus", str(tmp_path / "in"), "--out", str(out)]) == 0
        assert load_corpus(out).get("names1.0").class_names == ("a\rb", "c\r")

    def test_cleaned_corpus_with_an_emptied_release_runs_downstream(self, tmp_path, capsys):
        emptied = dataset("alpha1.1", [case("a", True, 1), case("b", False, 1)])
        write_corpus(Corpus((
            synthetic_dataset("alpha1.0", seed=1, cases=30), emptied,
            synthetic_dataset("beta1.0", seed=2, cases=30),
        )), tmp_path / "in")
        cleaned = tmp_path / "cleaned"
        assert main(["clean", "--corpus", str(tmp_path / "in"), "--out", str(cleaned)]) == 0
        assert main(["quality", "--corpus", str(cleaned), "--pairs",
                     "--out", str(tmp_path / "q")]) == 0
        assert "compared 1 release pairs" in capsys.readouterr().out
        config = tmp_path / "exp.cfg"
        config.write_text(
            f"corpus = {cleaned}\ntargets = alpha1.1, beta1.0\n"
            "filters = global\nlearners = naive_bayes\n"
        )
        out = tmp_path / "report"
        assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
        rows = json.loads((out / "results.json").read_text())["results"]
        assert {r["target"] for r in rows} == {"alpha1.1", "beta1.0"}
        for r in rows:
            emptied_target = r["target"] == "alpha1.1"
            assert ("target has no cases left to evaluate" in r["note"]) == emptied_target

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


    def test_failed_rename_writes_nothing(self, corpus_dir, tmp_path, monkeypatch, capsys):
        # the first cleaned CSV cannot be renamed into place: the file from
        # an earlier run stays as it was, and no summary is written
        out = tmp_path / "cleaned"
        out.mkdir()
        (out / "alpha1.0.csv").write_text("previous\n")

        def replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("os.replace", replace)
        rc = main(["clean", "--corpus", str(corpus_dir), "--out", str(out)])
        assert rc == 1
        assert "disk full" in capsys.readouterr().err
        assert (out / "alpha1.0.csv").read_text() == "previous\n"
        assert sorted(p.name for p in out.iterdir()) == ["alpha1.0.csv"]


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
                   "--target", "alpha1.1", "--mixed"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        origins = {e["origin"] for e in payload["selected"]}
        assert "alpha1.0" in origins  # mixed mode admits the older release
        assert "alpha1.1" not in origins
        rc = main(["select", "--corpus", str(corpus_dir), "--filter", "burak",
                   "--target", "alpha1.1", "--raw-distance"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["parameters"]["normalize"] is False

    @pytest.mark.parametrize("flags,filter_name,message", [
        (["--seed", "5"], "burak", "--seed applies only to --filter peters, not 'burak'"),
        (["--seed", "0"], "global", "--seed applies only to --filter peters, not 'global'"),
        (["--raw-distance"], "global",
         "--raw-distance applies only to --filter burak or peters, not 'global'"),
    ], ids=["seed-burak", "seed-global", "raw-distance-global"])
    def test_flag_rejected_with_a_filter_it_does_not_apply_to(
        self, tmp_path, capsys, flags, filter_name, message
    ):
        # the corpus does not exist, so reaching the loader would fail differently
        rc = main(["select", "--corpus", str(tmp_path / "missing"), "--filter", filter_name,
                   "--target", "alpha1.1", *flags])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_seed_defaults_to_zero_for_peters(self, corpus_dir, monkeypatch):
        seen = {}

        def select(name, pool, target, **kwargs):
            seen.update(kwargs)
            return global_filter(pool)

        monkeypatch.setattr(cli, "select_training_data", select)
        rc = main(["select", "--corpus", str(corpus_dir), "--filter", "peters",
                   "--target", "alpha1.1"])
        assert rc == 0
        assert seen["seed"] == 0

    def test_out_file_holds_the_stdout_payload(self, corpus_dir, tmp_path, capsys):
        args = ["select", "--corpus", str(corpus_dir), "--filter", "burak",
                "--target", "beta2.0", "--k", "2"]
        assert main(args) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "selection.json"
        assert main(args + ["--out", str(out)]) == 0
        assert out.read_bytes() == printed.encode("utf-8")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["selection.json"]

    @pytest.mark.parametrize("filter_name", ["burak", "peters"])
    def test_raw_distance_runs_clean_on_extreme_values(self, tmp_path, capsys, filter_name):
        # 1e200 overflows a squared distance, and is scaled away exactly;
        # 1e300 beside 1e-300 spans more than any scale keeps normal
        corpus = synthetic_corpus(seed=3)
        huge = Corpus(tuple(
            with_cell(ds, 0, 0, Decimal("1e200")) if ds.name == "alpha1.0" else ds
            for ds in corpus))
        apart = Corpus((
            with_cell(corpus.get("alpha1.0"), 0, 0, Decimal("1e300")),
            corpus.get("beta2.0"),
            with_cell(corpus.get("gamma1.0"), 5, 3, Decimal("1e-300")),
        ))
        write_corpus(huge, tmp_path / "huge")
        write_corpus(apart, tmp_path / "apart")
        args = ["select", "--filter", filter_name, "--target", "beta2.0", "--raw-distance"]
        assert main([*args, "--corpus", str(tmp_path / "huge")]) == 0
        assert capsys.readouterr().err == ""
        assert main([*args, "--corpus", str(tmp_path / "apart")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: raw distances: gamma1.0 cbo = 1e-300 ")
        assert err.count("\n") == 1
        # min-max scaled distances measure the same values
        assert main([*args[:-1], "--corpus", str(tmp_path / "apart")]) == 0

    def test_out_file_written_atomically(self, corpus_dir, tmp_path, monkeypatch, capsys):
        out = tmp_path / "selection.json"
        out.write_text("previous\n")

        def replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("os.replace", replace)
        rc = main(["select", "--corpus", str(corpus_dir), "--filter", "global",
                   "--target", "beta2.0", "--out", str(out)])
        assert rc == 1
        assert "disk full" in capsys.readouterr().err
        assert out.read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["selection.json"]

    @pytest.mark.parametrize("clusters,problem", [
        ("50", "50 clusters exceed the 16 cases"),
        ("0", "0 clusters for the 16 cases"),
    ])
    def test_cluster_count_checked_before_selection(
        self, tmp_path, monkeypatch, capsys, clusters, problem
    ):
        def select(*args, **kwargs):
            raise AssertionError("a selection ran before --clusters was checked")

        monkeypatch.setattr(cli, "select_training_data", select)
        write_corpus(synthetic_corpus(seed=3, cases=4), tmp_path)
        rc = main(["select", "--corpus", str(tmp_path), "--filter", "peters",
                   "--target", "alpha1.1", "--clusters", clusters])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --clusters: {problem} of target 'alpha1.1' and its pool")

    @pytest.mark.parametrize("filter_name", ["burak", "peters"])
    def test_k_checked_before_selection(self, corpus_dir, monkeypatch, capsys, filter_name):
        def select(*args, **kwargs):
            raise AssertionError("a selection ran before --k was checked")

        monkeypatch.setattr(cli, "select_training_data", select)
        rc = main(["select", "--corpus", str(corpus_dir), "--filter", filter_name,
                   "--target", "alpha1.1", "--k", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --k: 0 neighbours for target 'alpha1.1'; at least 1")

    def test_negative_seed_rejected_before_loading(self, tmp_path, capsys):
        # the corpus does not exist, so reaching the loader would fail differently
        rc = main(["select", "--corpus", str(tmp_path / "missing"), "--filter", "peters",
                   "--target", "alpha1.1", "--seed", "-1"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: --seed: -1 for target 'alpha1.1'")

    @pytest.mark.parametrize("filter_name", ["global", "burak"])
    def test_clusters_only_with_peters(self, corpus_dir, monkeypatch, capsys, filter_name):
        def select(*args, **kwargs):
            raise AssertionError("a selection ran with --clusters it ignores")

        monkeypatch.setattr(cli, "select_training_data", select)
        rc = main(["select", "--corpus", str(corpus_dir), "--filter", filter_name,
                   "--target", "alpha1.1", "--clusters", "3"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"error: --clusters applies only to --filter peters, not {filter_name!r}"
        )

    def test_k_rejected_with_global_before_loading(self, tmp_path, capsys):
        # the corpus does not exist, so reaching the loader would fail differently
        rc = main(["select", "--corpus", str(tmp_path / "missing"), "--filter", "global",
                   "--target", "alpha1.1", "--k", "5"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: --k applies only to --filter burak or peters, not 'global'"
        )

    @pytest.mark.parametrize("filter_name", ["burak", "peters"])
    def test_k_defaults_to_ten(self, corpus_dir, monkeypatch, filter_name):
        seen = {}

        def select(name, pool, target, **kwargs):
            seen.update(kwargs)
            return global_filter(pool)

        monkeypatch.setattr(cli, "select_training_data", select)
        rc = main(["select", "--corpus", str(corpus_dir), "--filter", filter_name,
                   "--target", "alpha1.1"])
        assert rc == 0
        assert seen["k"] == 10

    @pytest.mark.parametrize("flags", [
        ["--filter", "global"],
        ["--filter", "burak"],
        ["--filter", "burak", "--raw-distance"],
        ["--filter", "peters"],
        ["--filter", "peters", "--raw-distance"],
    ], ids=["global", "burak", "burak-raw", "peters", "peters-raw"])
    def test_target_cleaned_to_nothing_fails_cleanly(self, tmp_path, capsys, flags):
        # flip1.0 is one case and its label-flipped copy, so cleaning empties it
        flip = synthetic_dataset("flip1.0", seed=3, cases=1, inconsistent_rate=1.0)
        write_corpus(Corpus((*synthetic_corpus(seed=3, cases=20), flip)), tmp_path / "in")
        cleaned = tmp_path / "cleaned"
        assert main(["clean", "--corpus", str(tmp_path / "in"), "--out", str(cleaned)]) == 0
        capsys.readouterr()
        rc = main(["select", "--corpus", str(cleaned), "--target", "flip1.0", *flags])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: target 'flip1.0' has no cases\n"

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
        # the same config with a byte-order mark and CRLF line ends
        bom = tmp_path / "bom.cfg"
        bom.write_bytes(b"\xef\xbb\xbf" + config.read_bytes().replace(b"\n", b"\r\n"))
        assert main(["experiment", "--config", str(bom), "--out", str(tmp_path / "bom")]) == 0
        assert (tmp_path / "bom" / "results.json").read_bytes() == (
            out / "results.json"
        ).read_bytes()
        # ... and with bare CR line ends and a line separator in a comment
        cr = tmp_path / "cr.cfg"
        text = config.read_text().replace("\n", " # see\u2028notes\n", 1).replace("\n", "\r")
        cr.write_bytes(text.encode("utf-8"))
        assert main(["experiment", "--config", str(cr), "--out", str(tmp_path / "cr")]) == 0
        assert (tmp_path / "cr" / "results.json").read_bytes() == (
            out / "results.json"
        ).read_bytes()
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

    def test_reports_do_not_depend_on_where_the_run_starts(
        self, corpus_dir, tmp_path, monkeypatch
    ):
        home = tmp_path / "a"
        shutil.copytree(corpus_dir, home / "corpus")
        (home / "exp.cfg").write_text(
            "corpus = corpus\ntargets = beta2.0\nfilters = global, burak\n"
            "learners = naive_bayes, decision_tree\n"
        )
        # the same files elsewhere, with every CSV line ending in CRLF
        copy = tmp_path / "b"
        shutil.copytree(home, copy)
        for csv in (copy / "corpus").glob("*.csv"):
            csv.write_bytes(csv.read_bytes().replace(b"\n", b"\r\n"))
        runs = (
            (home, "exp.cfg"),  # from the config's directory
            (tmp_path, "a/exp.cfg"),  # from its parent
            (copy, "exp.cfg"),
        )
        outputs = []
        for i, (cwd, config) in enumerate(runs):
            monkeypatch.chdir(cwd)
            out = tmp_path / f"out{i}"
            assert main(["experiment", "--config", config, "--out", str(out)]) == 0
            outputs.append({
                name: (out / name).read_bytes()
                for name in ("results.json", "fmeasure_change.csv", "auc_change.csv",
                             "fmeasure_change.md", "auc_change.md")
            })
        assert outputs[0] == outputs[1] == outputs[2]
        assert json.loads(outputs[0]["results.json"])["config"]["corpus"] == "corpus"

    def test_bad_config_fails_cleanly(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data" / "empty").mkdir(parents=True)
        for text, error in (
            ("nonsense = 1\n", "line 1: unknown key 'nonsense'"),
            ("seed = 1\n", "missing key 'corpus'"),
            ("corpus =\n", "line 1: corpus: expected a directory, got ''"),
            ("corpus = data/x\n", "corpus directory 'data/x' does not exist"),
            ("corpus = data/empty\n", "no CSV datasets found in 'data/empty'"),
        ):
            Path("bad.cfg").write_text(text)
            rc = main(["experiment", "--config", "bad.cfg"])
            assert rc == 1
            assert capsys.readouterr().err == f"error: bad.cfg: {error}\n"
        assert not Path("experiment_report").exists()


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
