"""Experiment harness tests.

The sensitivity fixtures are built so cleaning provably changes the
trained models: mixed-label duplicate groups sit exactly on the target's
feature locations, dominate training before cleaning and vanish after it.
All expectations about scores follow from that construction, not from any
recorded numbers.
"""

from __future__ import annotations

import concurrent.futures
import json
import multiprocessing
import os
import random
import subprocess
import sys
import weakref
from decimal import Decimal
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from defectclean import data, harness
from defectclean.data import Corpus, CorpusError, load_corpus, write_corpus
from defectclean.datagen import synthetic_corpus
from defectclean.evaluation import change_rate
from defectclean.harness import (
    CONFIG_KEYS,
    Cell,
    ExperimentConfig,
    METRICS,
    VARIANTS,
    WORKERS_ENV,
    _cap_dataset,
    _results,
    parse_config,
    run_experiment,
)
from defectclean.reports import experiment_json
from defectclean.rng import derive_seed

from .conftest import case, dataset, decimal_rows, vector, with_cell


def loc(j: int):
    """A distinct feature location per integer j."""
    return vector(j, j % 3, 2 * j)


def sensitivity_corpus() -> Corpus:
    """Pool with mixed-label junk on half the target's locations.

    src1.0 holds one defect-free case per location; on locations 1..10 it
    additionally holds four defective copies, which survive as a heavy
    defective majority in the original variant and are wiped out entirely
    (mixed feature group) by cleaning.  tgt1.0 is defective exactly on
    those locations, so the original models can fit it and the cleaned
    ones (trained on defect-free cases only) cannot.
    """
    src_cases = []
    for j in range(1, 21):
        src_cases.append(case(f"s{j}", False, *loc(j)))
        if j <= 10:
            for copy in range(4):
                src_cases.append(case(f"s{j}x{copy}", True, *loc(j)))
    tgt_cases = [case(f"t{j}", j <= 10, *loc(j)) for j in range(1, 21)]
    return Corpus((dataset("src1.0", src_cases), dataset("tgt1.0", tgt_cases)))


def shadow_corpus() -> Corpus:
    """A defect-free junk case shadows the only genuine neighbour.

    The target is one defective case at location 5.  The pool holds a
    mixed pair exactly there (dies in cleaning) and a defective case
    nearby.  With k=1 the original run trains on the defect-free junk and
    scores F=0; the cleaned run trains on the genuine case and scores F=1.
    """
    pool_cases = [
        case("junk_neg", False, *loc(5)),
        case("junk_pos", True, *loc(5)),
        case("near", True, *vector(5, Decimal("2.1"), 10)),
    ]
    return Corpus((
        dataset("pool1.0", pool_cases),
        dataset("one1.0", [case("t", True, *loc(5))]),
    ))


class TestParseConfig:
    def test_full_round_trip(self):
        text = """
        # experiment settings
        corpus = data/corpus       # kept as written
        targets = a1.0, b2.0
        filters = burak, peters
        learners = naive_bayes
        seed = 42
        burak_k = 7
        peters_clusters = 12
        normalize = false
        pool_mode = mixed
        sample_cap = 500
        clean_pool_only = true
        forest_trees = 25
        """
        config = parse_config(text)
        assert config.corpus_dir == Path("data/corpus")
        assert config.targets == ("a1.0", "b2.0")
        assert config.filters == ("burak", "peters")
        assert config.learners == ("naive_bayes",)
        assert config.seed == 42 and config.burak_k == 7
        assert config.peters_clusters == 12
        assert config.normalize is False
        assert config.pool_mode == "mixed"
        assert config.sample_cap == 500
        assert config.clean_pool_only is True
        assert config.forest_trees == 25

    def test_defaults(self):
        config = parse_config("")
        assert config.corpus_dir is None
        assert config.targets == "all"
        assert config.filters == ("global", "burak", "peters")
        assert config.learners == ("naive_bayes", "decision_tree", "random_forest")
        assert config.seed == 0 and config.burak_k == 10
        assert config.peters_clusters is None and config.sample_cap is None
        assert config.normalize is True and config.clean_pool_only is False
        assert config.pool_mode == "strict" and config.forest_trees == 100

    def test_auto_and_none_specials(self):
        config = parse_config("peters_clusters = auto\nsample_cap = none\n")
        assert config.peters_clusters is None
        assert config.sample_cap is None

    def test_absolute_corpus_path_kept(self, tmp_path):
        assert parse_config(f"corpus = {tmp_path}\n").corpus_dir == tmp_path
        # a relative path is kept too: the caller resolves it
        assert parse_config("corpus = ../corpus\n").corpus_dir == Path("../corpus")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("cheese = 1\n", "unknown key"),
            ("seed = 1\nseed = 2\n", "duplicate key"),
            ("just some words\n", "key = value"),
            ("normalize = perhaps\n", "true/false"),
            ("pool_mode = loose\n", "pool_mode"),
            ("sample_cap = 1\n", "sample_cap"),
            ("burak_k = 0\n", "burak_k"),
            ("forest_trees = 0\n", "forest_trees"),
            ("filters = global, bogus\n", "line 1: filters: unknown name 'bogus'"),
            ("seed = 1\nlearners = svm\n", "line 2: learners: unknown name 'svm'"),
            ("targets =\n", "line 1: targets must be"),
            ("filters = ,\n", "line 1: filters must name at least one"),
            ("learners =\n", "line 1: learners must name at least one"),
            ("\nseed = x1\n", "line 2: seed: expected an integer, got 'x1'"),
            ("burak_k = many\n", "line 1: burak_k: expected an integer"),
            ("peters_clusters = 0\n", "line 1: peters_clusters"),
            ("sample_cap = lots\n", "line 1: sample_cap: expected an integer"),
            ("filters = global, global\n", "^line 1: filters: duplicate name 'global'$"),
            ("seed = 1\nlearners = naive_bayes, random_forest, naive_bayes\n",
             "^line 2: learners: duplicate name 'naive_bayes'$"),
            ("targets = alpha1.0, beta2.0, alpha1.0\n",
             "^line 1: targets: duplicate name 'alpha1.0'$"),
            ("corpus =\n", "^line 1: corpus: expected a directory"),
            # only LF, CRLF and CR end a line: a LINE SEPARATOR stays in its comment
            ("seed = 1 # a\u2028b\nlearners = svm\n", "^line 2: learners: unknown name 'svm'"),
            ("\rseed = x1\r", "^line 2: seed: expected an integer, got 'x1'$"),
        ],
    )
    def test_rejects_bad_input(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_config(text)

    def test_list_targets_are_checked_and_stored_as_a_tuple(self):
        with pytest.raises(ValueError, match="^targets: duplicate name 'alpha1.1'$"):
            ExperimentConfig(
                corpus_dir=None, targets=["alpha1.1", "alpha1.1"],
                filters=("global",), learners=("naive_bayes",),
            )
        config = ExperimentConfig(corpus_dir=None, targets=["alpha1.1"])
        assert config.targets == ("alpha1.1",)
        assert config.as_dict()["targets"] == ["alpha1.1"]
        assert config == ExperimentConfig(corpus_dir=None, targets=("alpha1.1",))

    def test_list_filters_and_learners_are_stored_as_tuples(self):
        config = ExperimentConfig(corpus_dir=None, filters=["global"])
        same = ExperimentConfig(corpus_dir=None, filters=("global",))
        assert hash(config) == hash(same)
        assert config == same
        assert config.as_dict() == same.as_dict()
        assert config.as_dict()["filters"] == ["global"]
        listed = ExperimentConfig(corpus_dir=None, learners=["naive_bayes", "decision_tree"])
        assert listed.learners == ("naive_bayes", "decision_tree")
        assert listed == ExperimentConfig(
            corpus_dir=None, learners=("naive_bayes", "decision_tree")
        )
        assert listed.as_dict()["learners"] == ["naive_bayes", "decision_tree"]

    def test_error_names_line_number(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_config("seed = 1\n\nwat = 9\n")

    def test_a_next_line_character_stays_in_its_comment(self):
        assert parse_config("seed = 1\n# caf\x85seed = 3\n").seed == 1

    def test_config_keys_documented(self):
        assert set(CONFIG_KEYS) == {
            "corpus", "targets", "filters", "learners", "seed", "burak_k",
            "peters_clusters", "normalize", "pool_mode", "sample_cap",
            "clean_pool_only", "forest_trees",
        }
        assert set(ExperimentConfig(corpus_dir=None).as_dict()) == set(CONFIG_KEYS)

    def test_as_dict_round_trips_through_the_file_format(self, tmp_path):
        configs = [
            ExperimentConfig(corpus_dir=None),
            ExperimentConfig(
                corpus_dir=Path("data/corpus"), targets=("b2.0", "a1.0"),
                filters=("peters", "global"), learners=("random_forest",),
                seed=-3, burak_k=7, peters_clusters=12, normalize=False,
                pool_mode="mixed", sample_cap=500, clean_pool_only=True,
                forest_trees=25,
            ),
            ExperimentConfig(
                corpus_dir=tmp_path, peters_clusters=None, sample_cap=None,
                normalize=True, clean_pool_only=False,
            ),
        ]
        for config in configs:
            lines = []
            for key, value in config.as_dict().items():
                assert key in CONFIG_KEYS
                if value is None:
                    if key == "corpus":
                        continue
                    value = "auto" if key == "peters_clusters" else "none"
                elif isinstance(value, list):
                    value = ", ".join(value)
                lines.append(f"{key} = {value}")
            parsed = parse_config("\n".join(lines))
            assert parsed == config


class TestSampleCap:
    def test_small_datasets_untouched(self):
        ds = synthetic_corpus(seed=1).datasets[0]
        assert _cap_dataset(ds, ds.case_count, seed=1) is ds
        assert _cap_dataset(ds, ds.case_count + 10, seed=1) is ds

    def test_cap_size_and_strata(self):
        ds = synthetic_corpus(seed=2, cases=100, defect_rate=0.3).datasets[0]
        capped = _cap_dataset(ds, 20, seed=7)
        assert capped.case_count == 20
        assert 0 < capped.defective_count < 20
        # roughly proportional allocation
        expected = round(20 * ds.defective_count / ds.case_count)
        assert abs(capped.defective_count - expected) <= 1

    def test_row_order_preserved(self):
        ds = synthetic_corpus(seed=3, cases=80).datasets[0]
        capped = _cap_dataset(ds, 15, seed=5)
        cases = decimal_rows(ds)
        positions = [cases.index(row) for row in decimal_rows(capped)]
        assert positions == sorted(positions)

    def test_deterministic(self):
        ds = synthetic_corpus(seed=4, cases=60).datasets[0]
        assert _cap_dataset(ds, 10, seed=9) == _cap_dataset(ds, 10, seed=9)

    def test_every_small_allocation(self, monkeypatch):
        # every (n, defective, cap) with n <= 30 and 2 <= cap < n: the sample
        # has cap cases, a stratum that was non-empty stays non-empty, and
        # neither stratum is asked for more cases than it holds
        draws = []
        real_rng = np.random.default_rng

        class RecordingRng:
            def __init__(self, seed):
                self.rng = real_rng(seed)

            def choice(self, population, size, replace):
                draws.append((population.size, size))
                return self.rng.choice(population, size=size, replace=replace)

        monkeypatch.setattr(harness.np.random, "default_rng", RecordingRng)
        for n in range(3, 31):
            for defective in range(n + 1):
                ds = dataset("mix1.0", [case(f"c{i}", i < defective, i) for i in range(n)])
                for cap in range(2, n):
                    draws.clear()
                    capped = _cap_dataset(ds, cap, seed=cap)
                    assert capped.case_count == cap
                    assert (capped.defective_count > 0) == (defective > 0)
                    assert (capped.defective_count < cap) == (defective < n)
                    assert all(size <= held for held, size in draws)

    def test_single_class_dataset_survives(self):
        cases = [case(f"c{i}", False, i) for i in range(30)]
        capped = _cap_dataset(dataset("neg1.0", cases), 5, seed=1)
        assert capped.case_count == 5 and capped.defective_count == 0


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        a = derive_seed(1, "x", "original", "filter", "burak")
        assert a == derive_seed(1, "x", "original", "filter", "burak")
        others = [
            derive_seed(2, "x", "original", "filter", "burak"),
            derive_seed(1, "y", "original", "filter", "burak"),
            derive_seed(1, "x", "cleaned", "filter", "burak"),
            derive_seed(1, "x", "original", "filter", "peters"),
        ]
        assert len({a, *others}) == 5

    def test_valid_numpy_seed_range(self):
        value = derive_seed("anything", 123)
        assert 0 <= value < 2 ** 64
        np.random.default_rng(value)  # must not raise


def run_grid(corpus, **overrides) -> list:
    defaults = dict(
        corpus_dir=None,
        filters=("global", "burak"),
        learners=("naive_bayes",),
        forest_trees=3,
    )
    defaults.update(overrides)
    config = ExperimentConfig(**defaults)
    return run_experiment(config, corpus)


class TestRunExperiment:
    def test_each_loaded_value_is_converted_to_a_float_once(self, tmp_path, monkeypatch):
        # the capped and the cleaned datasets are takes of the loaded ones:
        # they share each loaded table's check and floats
        write_corpus(synthetic_corpus(seed=3, cases=40, duplicate_rate=0.2,
                                      inconsistent_rate=0.1), tmp_path)
        corpus = load_corpus(tmp_path)
        calls = []
        monkeypatch.setattr(data, "metric_float", lambda v: calls.append(v) or float(v) + 0.0)
        monkeypatch.delenv(harness.WORKERS_ENV, raising=False)
        run_grid(corpus, filters=("global",), sample_cap=25)
        assert len(calls) == sum(len(ds.values) for ds in corpus)

    def test_grid_shape_and_order(self):
        corpus = synthetic_corpus(seed=6)
        run = run_grid(
            corpus,
            filters=("global", "burak", "peters"),
            learners=("naive_bayes", "decision_tree", "random_forest"),
        )
        names = [ds.name for ds in corpus]
        assert len(run.results) == len(names) * 3 * 3 * 2
        expected = [
            (t, f, l, m)
            for t in names
            for f in ("global", "burak", "peters")
            for l in ("naive_bayes", "decision_tree", "random_forest")
            for m in METRICS
        ]
        got = [(r.target, r.filter_name, r.learner, r.metric) for r in run.results]
        assert got == expected

    def test_scores_and_changes_consistent(self):
        run = run_grid(synthetic_corpus(seed=8))
        for r in run.results:
            for value in (r.original, r.cleaned):
                assert value is None or 0.0 <= value <= 1.0
            assert r.change_percent == change_rate(r.original, r.cleaned)
            if r.original is None or r.cleaned is None:
                assert r.note  # undefined scores always carry a reason

    def test_dataset_sizes_accounting(self):
        corpus = synthetic_corpus(seed=10, duplicate_rate=0.2, inconsistent_rate=0.1)
        run = run_grid(corpus, sample_cap=40)
        for name, sizes in run.dataset_sizes.items():
            assert sizes["loaded"] == corpus.get(name).case_count
            assert sizes["original"] == min(40, sizes["loaded"])
            assert sizes["cleaned"] <= sizes["original"]

    def test_explicit_target_subset(self):
        corpus = synthetic_corpus(seed=6)
        run = run_grid(corpus, targets=("beta2.0", "alpha1.0"))
        assert [r.target for r in run.results[::4]] == ["beta2.0", "alpha1.0"]

    def test_unknown_target_rejected(self):
        with pytest.raises(CorpusError, match="nosuch"):
            run_grid(synthetic_corpus(seed=6), targets=("nosuch1.0",))

    def test_cleaning_sensitivity(self):
        run = run_grid(sensitivity_corpus(), targets=("tgt1.0",),
                       filters=("global",), learners=("naive_bayes",))
        by_metric = {r.metric: r for r in run.results}
        f_row = by_metric["fmeasure"]
        # original training sees the defective majority on locations 1..10
        # and fits the target; cleaned training is single-class defect-free
        assert f_row.original > 0.9
        assert f_row.cleaned == 0.0
        assert f_row.change_percent == pytest.approx(-100.0)
        auc_row = by_metric["auc"]
        assert auc_row.original > 0.9
        assert auc_row.cleaned == pytest.approx(0.5)  # constant scores

    def test_zero_to_positive_change_is_flagged(self):
        run = run_grid(shadow_corpus(), targets=("one1.0",),
                       filters=("burak",), learners=("naive_bayes",), burak_k=1)
        by_metric = {r.metric: r for r in run.results}
        f_row = by_metric["fmeasure"]
        assert f_row.original == 0.0 and f_row.cleaned == 1.0
        assert f_row.change_percent is None
        assert "change undefined: original score is 0" in f_row.note
        auc_row = by_metric["auc"]
        assert auc_row.original is None and auc_row.cleaned is None
        assert "single-class" in auc_row.note

    def test_problem_free_corpus_shows_no_change(self):
        corpus = synthetic_corpus(seed=12, duplicate_rate=0.0, inconsistent_rate=0.0)
        assert all(
            ds.case_count == cleaned
            for ds, cleaned in zip(
                corpus, (r["cleaned"] for r in run_grid(corpus).dataset_sizes.values())
            )
        )
        for r in run_grid(corpus).results:
            assert r.original == r.cleaned
            if r.original not in (None, 0.0):
                assert r.change_percent == 0.0

    def test_clean_pool_only_keeps_original_test_set(self):
        # every pool1.0 case on location 5 is mixed away and the one1.0
        # target is untouched by cleaning, so this flag must not change the
        # fact that scores exist; the stronger check uses a target that
        # cleaning would empty entirely
        wipe_cases = [case("a", True, 1), case("b", False, 1),
                      case("c", True, 2), case("d", False, 2)]
        corpus = Corpus((
            synthetic_corpus(seed=13).datasets[0],  # alpha1.0 as the pool
            dataset("wipe1.0", wipe_cases),
        ))
        without = run_grid(corpus, targets=("wipe1.0",), filters=("global",))
        assert all(r.cleaned is None for r in without.results)
        assert all("no cases left" in r.note for r in without.results)
        with_flag = run_grid(corpus, targets=("wipe1.0",), filters=("global",),
                             clean_pool_only=True)
        assert all(r.cleaned is not None for r in with_flag.results
                   if r.metric == "fmeasure")

    def test_empty_pool_marks_all_results(self):
        corpus = Corpus((
            dataset("p1.0", [case("a", True, 1), case("b", False, 2)]),
            dataset("p1.1", [case("c", True, 3), case("d", False, 4)]),
        ))
        run = run_grid(corpus, targets=("p1.1",))
        assert all(r.original is None and r.cleaned is None for r in run.results)
        assert all("empty source pool" in r.note for r in run.results)
        mixed = run_grid(corpus, targets=("p1.1",), pool_mode="mixed")
        assert any(r.original is not None for r in mixed.results)

    def test_repeat_runs_identical(self):
        corpus = synthetic_corpus(seed=14, duplicate_rate=0.1, inconsistent_rate=0.1)
        a = run_grid(corpus, seed=3)
        b = run_grid(corpus, seed=3)
        assert a == b
        assert json.dumps(experiment_json(a), sort_keys=True) == json.dumps(
            experiment_json(b), sort_keys=True)

    @pytest.mark.parametrize("overrides", [
        {},
        # mixed pools differ per target, so most jobs hold one target
        {"pool_mode": "mixed"},
        # the cleaned variant evaluates the original target
        {"clean_pool_only": True},
    ], ids=["default", "mixed", "clean-pool-only"])
    def test_worker_count_does_not_change_results(self, monkeypatch, overrides):
        corpus = synthetic_corpus(seed=15, duplicate_rate=0.1, inconsistent_rate=0.1)
        serial = run_grid(corpus, seed=1, **overrides)
        monkeypatch.setenv(WORKERS_ENV, "2")
        parallel = run_grid(corpus, seed=1, **overrides)
        assert experiment_json(serial) == experiment_json(parallel)

    def test_workers_are_capped_at_the_number_of_units(self, monkeypatch):
        # one target is two units, one per variant, so a third and fourth
        # worker would sit idle; the recorder runs the units in this process
        asked = []

        class RecordingExecutor:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setenv(WORKERS_ENV, "4")
        corpus = synthetic_corpus(seed=3, cases=40)
        run = run_grid(corpus, targets=("alpha1.1",))
        assert asked == [2]
        monkeypatch.delenv(WORKERS_ENV)
        assert run == run_grid(corpus, targets=("alpha1.1",))

    @pytest.mark.parametrize("workers,units", [("2", 2), ("4", 4)])
    def test_a_job_is_split_only_to_keep_the_workers_busy(self, monkeypatch, workers, units):
        # alpha1.0 and alpha1.1 share one pool per variant: 2 jobs of 2
        # targets each, cut into runs of at most ceil(4 pairs / workers)
        handed_out = []

        class RecordingExecutor:
            def __init__(self, max_workers):
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, items):
                items = list(items)
                handed_out.append((self.max_workers, len(items)))
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setenv(WORKERS_ENV, workers)
        corpus = synthetic_corpus(seed=3, cases=40)
        run = run_grid(corpus, targets=("alpha1.0", "alpha1.1"))
        assert handed_out == [(units, units)]
        monkeypatch.delenv(WORKERS_ENV)
        assert run == run_grid(corpus, targets=("alpha1.0", "alpha1.1"))

    def test_spawned_workers_write_the_serial_results(self, monkeypatch):
        # a spawned worker inherits nothing from this process, so each unit
        # must carry its config, its pool's datasets and its targets
        spawn = multiprocessing.get_context("spawn")
        real_executor = concurrent.futures.ProcessPoolExecutor

        def spawning_executor(max_workers, **_):
            return real_executor(max_workers=max_workers, mp_context=spawn)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spawning_executor)
        corpus = synthetic_corpus(seed=15, duplicate_rate=0.1, inconsistent_rate=0.1)
        grid = dict(seed=1, targets=("alpha1.0", "alpha1.1", "beta2.0"), sample_cap=30)
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        serial = run_grid(corpus, **grid)
        monkeypatch.setenv(WORKERS_ENV, "2")
        assert experiment_json(run_grid(corpus, **grid)) == experiment_json(serial)

    @pytest.mark.parametrize("filters,clusters,pools,trained", [
        # 5 targets x 2 variants, in 3 strict pools per variant
        (("global",), None, 10,
         {"naive_bayes": 6, "decision_tree": 6, "random_forest": 10}),
        # peters trains per target; its cluster count is checked on the
        # pools the plan builds, not on pools built a second time
        (("global", "peters"), 2, 10,
         {"naive_bayes": 16, "decision_tree": 16, "random_forest": 20}),
    ], ids=["global", "global-peters"])
    def test_seedless_global_models_are_trained_once_per_pool(
        self, monkeypatch, filters, clusters, pools, trained
    ):
        counts = {"build_pool": 0}
        real_train, real_build_pool = harness.train, harness.build_pool

        def train(learner, *args, **kwargs):
            counts[learner] = counts.get(learner, 0) + 1
            return real_train(learner, *args, **kwargs)

        def build_pool(*args, **kwargs):
            counts["build_pool"] += 1
            return real_build_pool(*args, **kwargs)

        monkeypatch.setattr(harness, "train", train)
        monkeypatch.setattr(harness, "build_pool", build_pool)
        monkeypatch.delenv(WORKERS_ENV, raising=False)  # the counts are of a serial run
        run_grid(
            synthetic_corpus(seed=3), filters=filters, peters_clusters=clusters,
            learners=("naive_bayes", "decision_tree", "random_forest"), forest_trees=2,
        )
        assert counts == {"build_pool": pools, **trained}

    def test_bad_worker_env_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        run = run_grid(synthetic_corpus(seed=6), targets=("alpha1.0",))
        assert len(run.results) > 0

    def test_seed_changes_randomized_combinations(self):
        corpus = synthetic_corpus(seed=16)
        a = run_grid(corpus, seed=1, filters=("peters",),
                     learners=("random_forest",), forest_trees=5)
        b = run_grid(corpus, seed=2, filters=("peters",),
                     learners=("random_forest",), forest_trees=5)
        assert a.results != b.results

    def test_too_many_peters_clusters_rejected_before_any_scoring(self, monkeypatch):
        # capped to 2 cases per release, alpha1.0's pool plus target hold
        # 8 cases, fewer than the 50 clusters asked for
        def train(*args, **kwargs):
            raise AssertionError("a cell was trained before the config was checked")

        monkeypatch.setattr(harness, "train", train)
        with pytest.raises(
            ValueError,
            match=r"^peters_clusters: 50 clusters exceed the 8 cases of target "
                  r"'alpha1.0' and its pool in the original variant$",
        ):
            run_grid(synthetic_corpus(seed=3, cases=40), sample_cap=2,
                     peters_clusters=50, filters=("global", "peters"))

    def test_peters_clusters_check_skips_undefined_variants(self):
        # one project only: every pool is empty, so no k-means would run
        corpus = Corpus((
            dataset("p1.0", [case("a", True, 1), case("b", False, 2)]),
            dataset("p1.1", [case("c", True, 3), case("d", False, 4)]),
        ))
        run = run_grid(corpus, filters=("peters",), peters_clusters=50)
        assert all("empty source pool" in r.note for r in run.results)

    @pytest.mark.parametrize("target,fault", [
        # beta2.0's pool holds alpha1.0's 1e200, so naive Bayes cannot train
        ("beta2.0", "metric wmc = 1e+200 in pool dataset 'alpha1.0': naive Bayes class means"),
        ("alpha1.0", "metric wmc: naive Bayes log-likelihoods of case 0 are not finite"),
    ])
    def test_a_feature_too_large_names_its_cell_and_metric(self, target, fault):
        corpus = Corpus(tuple(with_cell(ds, 0, 0, Decimal("1e200")) if ds.name == "alpha1.0"
                              else ds for ds in synthetic_corpus(seed=3)))
        with pytest.raises(ValueError) as excinfo:
            run_grid(corpus, targets=(target,), learners=("naive_bayes",))
        assert str(excinfo.value).startswith(
            f"target {target!r}, original variant, filter global, learner naive_bayes: {fault}")

    def test_raw_distances_out_of_range_name_the_cell_and_the_setting(self):
        # alpha1.0's 1e300 needs a scale that pushes gamma1.0's 1e-300 below
        # the normal float range; min-max scaled distances measure both
        corpus = Corpus(tuple(
            with_cell(ds, 0, 0, Decimal("1e300")) if ds.name == "alpha1.0"
            else with_cell(ds, 0, 3, Decimal("1e-300")) if ds.name == "gamma1.0"
            else ds for ds in synthetic_corpus(seed=3)))
        grid = dict(targets=("beta2.0",), filters=("burak",), learners=("decision_tree",))
        with pytest.raises(ValueError) as excinfo:
            run_grid(corpus, normalize=False, **grid)
        assert str(excinfo.value).startswith(
            "target 'beta2.0', original variant, filter burak, normalize = false:"
            " raw distances: gamma1.0 cbo = 1e-300 would leave the normal float range")
        assert len(run_grid(corpus, **grid).results) == 2

    def test_no_capped_dataset_outlives_its_run(self, monkeypatch):
        # nothing keeps a run's capped corpora alive once its result is
        # dropped: after a finished run, a run the cluster check rejects, and
        # a run on worker processes
        capped = []
        real_cap = harness._cap_dataset

        def cap(*args):
            out = real_cap(*args)
            capped.append(weakref.ref(out))
            return out

        def all_dead():
            dead = bool(capped) and all(ref() is None for ref in capped)
            capped.clear()
            return dead

        monkeypatch.setattr(harness, "_cap_dataset", cap)
        corpus = synthetic_corpus(seed=3, cases=40)
        run = run_grid(corpus, targets=("alpha1.0",), sample_cap=20)
        assert run.results
        del run
        assert all_dead()
        with pytest.raises(ValueError, match="^peters_clusters: "):
            run_grid(corpus, sample_cap=2, peters_clusters=50, filters=("peters",))
        assert all_dead()
        monkeypatch.setenv(WORKERS_ENV, "2")
        run = run_grid(corpus, targets=("alpha1.0", "beta2.0"), sample_cap=20)
        assert {r.target for r in run.results} == {"alpha1.0", "beta2.0"}
        del run
        assert all_dead()

    def test_variants_and_metrics_constants(self):
        assert VARIANTS == ("original", "cleaned")
        assert METRICS == ("fmeasure", "auc")


EMPTY_POOL = (
    "original: empty source pool for target 'p1.1' (mode=strict); the corpus has no other project"
)
EMPTIED = "cleaned: target has no cases left to evaluate"
SINGLE_CLASS = "cleaned: auc undefined, target labels are single-class"


def one_cell(variant, scores=(None, None), reason=""):
    selection = None if reason else {"selection_size": 3}
    return Cell("p1.1", variant, "global", "naive_bayes", scores, selection, reason)


def shuffled_grid():
    # each cell's scores encode its key, and the targets are not in name
    # order, so the rows show both the pairing and the grid order
    grid = ("peters", "global"), ("decision_tree", "naive_bayes"), ("b1.0", "a1.0")
    filters, learners, targets = grid
    triples = list(product(targets, filters, learners))
    cells = [
        Cell(t, v, f, learner, (10.0 * j + k + 1, 10.0 * j + k + 5), {"selection_size": j})
        for j, (t, f, learner) in enumerate(triples) for k, v in enumerate(VARIANTS)
    ]
    random.Random(0).shuffle(cells)
    rows = [
        (t, f, learner, metric, 10.0 * j + 1 + 4 * i, 10.0 * j + 2 + 4 * i, "")
        for j, (t, f, learner) in enumerate(triples) for i, metric in enumerate(METRICS)
    ]
    return (*grid, cells, rows)


ONE = (("global",), ("naive_bayes",), ("p1.1",))


@pytest.mark.parametrize("filters,learners,targets,cells,rows", [
    (*ONE, [one_cell("original", reason=EMPTY_POOL), one_cell("cleaned", (0.5, None))], [
        ("p1.1", "global", "naive_bayes", "fmeasure", None, 0.5, EMPTY_POOL),
        ("p1.1", "global", "naive_bayes", "auc", None, None, f"{EMPTY_POOL}; {SINGLE_CLASS}"),
    ]),
    (*ONE, [one_cell("original", (0.0, 0.6)), one_cell("cleaned", (0.4, 0.75))], [
        ("p1.1", "global", "naive_bayes", "fmeasure", 0.0, 0.4,
         "change undefined: original score is 0"),
        ("p1.1", "global", "naive_bayes", "auc", 0.6, 0.75, ""),
    ]),
    (*ONE, [one_cell("cleaned", reason=EMPTIED), one_cell("original", reason=EMPTY_POOL)], [
        ("p1.1", "global", "naive_bayes", metric, None, None, f"{EMPTY_POOL}; {EMPTIED}")
        for metric in METRICS
    ]),
    shuffled_grid(),
], ids=["reason-and-single-class", "original-zero", "both-undefined", "shuffled-grid"])
def test_results_pair_cells_by_key(filters, learners, targets, cells, rows):
    config = ExperimentConfig(corpus_dir=None, filters=filters, learners=learners)
    results = _results(config, list(targets), cells)
    assert [
        (r.target, r.filter_name, r.learner, r.metric, r.original, r.cleaned, r.note)
        for r in results
    ] == rows


LAZY_IMPORTS_SCRIPT = """
import sys
import defectclean
from defectclean.datagen import synthetic_corpus
from defectclean.harness import ExperimentConfig, run_experiment

config = ExperimentConfig(
    corpus_dir=None, targets=("alpha1.1",), filters=("peters",), learners=("naive_bayes",),
)
run = run_experiment(config, synthetic_corpus(seed=3, cases=40))
assert run.results
print(sorted({"numpy.ma", "concurrent.futures.process"} & set(sys.modules)))
"""


def test_serial_experiment_imports_neither_numpy_ma_nor_process_pools():
    # both imports cost start-up or body time on every command; a serial
    # run needs neither, so a fresh interpreter must not load them
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", LAZY_IMPORTS_SCRIPT],
        env={**os.environ, "PYTHONPATH": path, WORKERS_ENV: "1"},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
