"""Experiment harness tests.

The sensitivity fixtures are built so cleaning provably changes the
trained models: mixed-label duplicate groups sit exactly on the target's
feature locations, dominate training before cleaning and vanish after it.
All expectations about scores follow from that construction, not from any
recorded numbers.
"""

from __future__ import annotations

import json
from decimal import Decimal

import numpy as np
import pytest

from defectclean import harness
from defectclean.data import Corpus, CorpusError
from defectclean.datagen import synthetic_corpus
from defectclean.evaluation import change_rate
from defectclean.harness import (
    CONFIG_KEYS,
    ExperimentConfig,
    METRICS,
    VARIANTS,
    WORKERS_ENV,
    _cap_dataset,
    parse_config,
    run_experiment,
)
from defectclean.reports import experiment_json
from defectclean.rng import derive_seed

from .conftest import case, dataset, decimal_rows, vector


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
    def test_full_round_trip(self, tmp_path):
        text = """
        # experiment settings
        corpus = data/corpus       # relative to the config file
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
        config = parse_config(text, base_dir=tmp_path)
        assert config.corpus_dir == tmp_path / "data/corpus"
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
        config = parse_config(f"corpus = {tmp_path}\n", base_dir=tmp_path / "sub")
        assert config.corpus_dir == tmp_path

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
        ],
    )
    def test_rejects_bad_input(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_config(text)

    def test_error_names_line_number(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_config("seed = 1\n\nwat = 9\n")

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
                corpus_dir=tmp_path / "corpus", targets=("b2.0", "a1.0"),
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
            # relative paths would resolve against base_dir; these are absolute
            parsed = parse_config("\n".join(lines), base_dir=tmp_path / "elsewhere")
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
    return run_experiment(config, corpus=corpus)


class TestRunExperiment:
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

    def test_no_corpus_anywhere(self):
        with pytest.raises(ValueError, match="corpus"):
            run_experiment(ExperimentConfig(corpus_dir=None))

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

    def test_worker_count_does_not_change_results(self, monkeypatch):
        corpus = synthetic_corpus(seed=15, duplicate_rate=0.1, inconsistent_rate=0.1)
        serial = run_grid(corpus, seed=1)
        monkeypatch.setenv(WORKERS_ENV, "2")
        parallel = run_grid(corpus, seed=1)
        assert experiment_json(serial) == experiment_json(parallel)

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

    def test_variants_and_metrics_constants(self):
        assert VARIANTS == ("original", "cleaned")
        assert METRICS == ("fmeasure", "auc")
