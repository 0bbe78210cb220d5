"""Acceptance criteria for the toolkit, one test per criterion.

Each passing test prints a single ``criterion N: PASS (...)`` line with the
measured quantities and the tolerance it used; ``pytest -v`` adds the
authoritative PASS/FAIL/SKIP verdict per criterion.  Criteria 1, 2 and 8
(and the desk-scale half of criterion 7) compare tool output against the
published statistics of the real public corpus and therefore skip unless
those CSVs are present (see ``real_corpus_dir`` in ``conftest.py``).
Everything else runs on generated data and is self-contained.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from defectclean.cleaning import clean, clean_corpus
from defectclean.clustering import default_k, kmeans
from defectclean.data import Corpus, Dataset, Row, load_corpus
from defectclean.datagen import synthetic_corpus
from defectclean.evaluation import ConfusionMatrix, auc, f_measure
from defectclean.harness import ExperimentConfig, run_experiment
from defectclean.quality import corpus_quality, within_quality
from defectclean.reports import experiment_json, write_quality_reports
from defectclean.selection import build_pool, burak_filter, peters_filter

from . import _reference_tables as ref
from ._reference_cleaning import clean_oracle
from ._reference_selection import knn_union_oracle, peters_trace_oracle
from .conftest import (
    case,
    collision_dataset,
    dataset,
    decimal_rows,
    random_problem_dataset,
    real_corpus_dir,
    requires_real_corpus,
)
from .test_evaluation import F_FIXTURES, trapezoid_auc
from .test_kmeans import inertia_prefixes
from .test_selection import random_dataset, scale_like_filter


def _verdict(num: int, detail: str) -> None:
    print(f"criterion {num}: PASS ({detail})")


@pytest.fixture(scope="module")
def real_corpus() -> Corpus:
    directory = real_corpus_dir()
    assert directory is not None
    return load_corpus(directory)


def test_reference_tables_are_self_consistent():
    """Transcription guard for the published constants used below."""
    assert set(ref.ORIGINAL_SIZES) == set(ref.CLEANED_SIZES) == set(ref.PROBLEM_COUNTS)
    assert len(ref.ORIGINAL_SIZES) == 65
    assert len(ref.RELEASE_PAIR_COUNTS) == 67
    for name, (cases, defective) in ref.ORIGINAL_SIZES.items():
        kept, removed, kept_def, removed_def = ref.CLEANED_SIZES[name]
        assert cases == kept + removed, name
        assert defective == kept_def + removed_def, name
    for name in ref.ZERO_PROBLEM_DATASETS:
        assert ref.PROBLEM_COUNTS[name] == (0, 0)
        assert ref.CLEANED_SIZES[name][1] == 0 and ref.CLEANED_SIZES[name][3] == 0
    for a, b in ref.RELEASE_PAIR_COUNTS:
        assert a in ref.ORIGINAL_SIZES and b in ref.ORIGINAL_SIZES


@requires_real_corpus
def test_criterion_1_size_identity(real_corpus):
    """original #Case == cleaned #Case + removed, exactly, for all 65
    datasets; spot values for ant1.7 and prop2; < 10 min wall clock."""
    started = time.perf_counter()
    assert {ds.name for ds in real_corpus} == set(ref.ORIGINAL_SIZES)
    for ds in real_corpus:
        assert (ds.case_count, ds.defective_count) == ref.ORIGINAL_SIZES[ds.name], ds.name

    _, summary = clean_corpus(real_corpus)
    rows = {row.dataset: row for row in summary}
    for ds in real_corpus:
        row = rows[ds.name]
        assert ds.case_count == row.case_count + row.removed_cases, ds.name

    assert (rows["ant1.7"].case_count, rows["ant1.7"].removed_cases) == (724, 21)
    assert (rows["prop2"].case_count, rows["prop2"].removed_cases) == (12115, 10899)

    flagged = [
        name
        for name, (kept, removed, kept_def, removed_def) in ref.CLEANED_SIZES.items()
        if (rows[name].case_count, rows[name].removed_cases,
            rows[name].defective_count, rows[name].removed_defective)
        != (kept, removed, kept_def, removed_def)
    ]
    elapsed = time.perf_counter() - started
    budget = 600.0 if any(n.startswith("prop") for n in rows) else 120.0
    assert elapsed < budget, f"cleaning took {elapsed:.0f}s, budget {budget:.0f}s"
    _verdict(
        1,
        f"identity exact on 65/65, spot cells exact, {elapsed:.1f}s; "
        f"{len(flagged)} datasets differ from published cleaned sizes: "
        f"{flagged or 'none'}",
    )


@requires_real_corpus
def test_criterion_2_zero_problem_passthrough(real_corpus):
    """The 11 problem-free datasets must clean to themselves (0 removals)."""
    for name in ref.ZERO_PROBLEM_DATASETS:
        original = real_corpus.get(name)
        result = clean(original)
        assert result.removed_cases == 0, name
        assert result.cleaned == original, name
        kept, removed, kept_def, removed_def = ref.CLEANED_SIZES[name]
        assert (removed, removed_def) == (0, 0)
        assert (result.cleaned.case_count, result.cleaned.defective_count) == (
            kept, kept_def), name
    _verdict(2, f"{len(ref.ZERO_PROBLEM_DATASETS)}/11 datasets unchanged, 0 removals")


def _inject_problems(base: Dataset, rng: np.random.Generator) -> Dataset:
    """Copy random rows back in, half verbatim (duplicates) and half with the
    label flipped (inconsistencies)."""
    cases = decimal_rows(base)
    for idx in rng.integers(0, len(cases), size=int(rng.integers(1, 21))):
        cases.append(cases[int(idx)])
    for idx in rng.integers(0, len(cases), size=int(rng.integers(1, 21))):
        class_name, metrics, bugs = cases[int(idx)]
        cases.append((class_name + "x", metrics, 0 if bugs >= 1 else 1))
    return base.replace_cases(cases)


def test_criterion_3_oracle_equivalence():
    """clean() == literal quadratic pairwise-deletion oracle on 1000 random
    datasets of <= 200 cases; zero divergences tolerated."""
    rng = np.random.default_rng(20260815)
    runs = 0
    for i in range(1000):
        if i % 3 == 2:
            base = collision_dataset(seed=i, cases=int(rng.integers(10, 161)))
        else:
            base = random_problem_dataset(rng, max_cases=160)
        ds = _inject_problems(base, rng)
        assert ds.case_count <= 200
        assert clean(ds) == clean_oracle(ds), f"divergence on iteration {i}"
        runs += 1
    assert runs == 1000
    _verdict(3, "1000/1000 datasets identical to the pairwise oracle, 0 divergences")


def _swapped_order_survivors(ds: Dataset) -> list[Row]:
    """The rejected step order: pairwise inconsistency deletion first, then
    duplicate removal."""
    cases = decimal_rows(ds)
    i = 0
    while i < len(cases):
        conflicted = False
        j = i + 1
        while j < len(cases):
            if (cases[j][1] == cases[i][1]
                    and (cases[j][2] >= 1) != (cases[i][2] >= 1)):
                del cases[j]
                conflicted = True
            else:
                j += 1
        if conflicted:
            del cases[i]
        else:
            i += 1
    survivors: list[Row] = []
    seen = set()
    for row in cases:
        key = (row[1], row[2] >= 1)
        if key not in seen:
            seen.add(key)
            survivors.append(row)
    return survivors


def test_criterion_4_cleaning_properties():
    """Idempotence and post-clean feature uniqueness on every dataset tried
    (all real ones when available, 200 synthetic always); the {X+, X+, X-}
    fixture separates the two step orders."""
    rng = np.random.default_rng(4)
    datasets = [random_problem_dataset(rng, max_cases=120) for _ in range(170)]
    datasets += [collision_dataset(seed=s, cases=90) for s in range(30)]
    real_dir = real_corpus_dir()
    real_count = 0
    if real_dir is not None:
        real = load_corpus(real_dir)
        datasets += list(real)
        real_count = len(real)

    for ds in datasets:
        result = clean(ds)
        again = clean(result.cleaned)
        assert again.cleaned == result.cleaned
        assert again.removed_cases == 0
        keys = [metrics for _, metrics, _ in decimal_rows(result.cleaned)]
        assert len(set(keys)) == len(keys)

    fixture = dataset("ord1.0", [
        case("a", True, 1), case("b", True, 1), case("c", False, 1),
    ])
    ours = clean(fixture).cleaned.class_names
    swapped = _swapped_order_survivors(fixture)
    assert ours == ()
    # swapping deletes the first conflicting pair, leaving a residual X+
    assert [bugs >= 1 for _, _, bugs in swapped] == [True]
    _verdict(
        4,
        f"idempotence + uniqueness on {len(datasets)} datasets "
        f"({real_count} real); step orders produce 0 vs 1 survivors",
    )


def test_criterion_5_metric_correctness():
    """Rank AUC == trapezoid AUC within 1e-9 on 1000 score sets;
    auc(-scores) == 1 - auc within 1e-12; 12 exact F-measure fixtures."""
    rng = np.random.default_rng(5)
    checked = 0
    for i in range(1000):
        n = int(rng.integers(2, 260))
        labels = rng.random(n) < 0.4
        labels[0], labels[1 % n] = True, False
        kind = i % 3
        if kind == 0:
            scores = rng.random(n)
        elif kind == 1:
            scores = rng.integers(0, 5, size=n) / 4.0  # heavy ties
        else:
            scores = np.full(n, 0.5)
            scores[rng.random(n) < 0.3] = rng.random()
        got = auc(scores, labels)
        want = trapezoid_auc(scores, labels)
        assert got is not None
        assert abs(got - want) <= 1e-9, (i, got, want)
        inverted = auc(1.0 - scores, labels)
        assert inverted == pytest.approx(1.0 - got, abs=1e-12)
        checked += 1
    assert checked == 1000

    for counts, expected in F_FIXTURES:
        assert f_measure(ConfusionMatrix(*counts)) == pytest.approx(
            float(expected), abs=1e-12)
    _verdict(
        5,
        "1000/1000 AUC sets within 1e-9 of trapezoid + inversion within "
        f"1e-12; {len(F_FIXTURES)} F fixtures exact",
    )


def test_criterion_6_filter_correctness():
    """Burak equals a brute-force k-NN oracle (pools up to 500 cases),
    Peters equals an independent cluster trace (up to 200 cases), and the
    k-means objective never increases (1e-9 slack per step)."""
    rng = np.random.default_rng(6)

    burak_trials = 0
    for trial in range(10):
        n_pool = int(rng.integers(300, 461))
        corpus = Corpus((
            random_dataset(rng, "p1.0", n_pool // 2),
            random_dataset(rng, "q1.0", n_pool - n_pool // 2),
            random_dataset(rng, "t1.0", int(rng.integers(10, 61))),
        ))
        target = corpus.get("t1.0")
        pool = build_pool(corpus, target)
        assert len(pool) <= 500
        k = int(rng.choice([1, 5, 10]))
        raw = burak_filter(pool, target, k=k, normalize=False)
        assert set(raw.selected) == knn_union_oracle(
            pool.feature_matrix, target.feature_matrix, k)
        scaled = burak_filter(pool, target, k=k, normalize=True)
        pm, tm = scale_like_filter(pool.feature_matrix, target.feature_matrix)
        assert set(scaled.selected) == knn_union_oracle(pm, tm, k)
        burak_trials += 1

    peters_trials = 0
    for trial in range(20):
        corpus = Corpus((
            random_dataset(rng, "p1.0", int(rng.integers(40, 121))),
            random_dataset(rng, "q1.0", int(rng.integers(20, 51))),
            random_dataset(rng, "t1.0", int(rng.integers(10, 31))),
        ))
        target = corpus.get("t1.0")
        pool = build_pool(corpus, target)
        assert len(pool) + target.case_count <= 200
        k = default_k(len(pool) + target.case_count)
        got = peters_filter(pool, target, k_clusters=k, seed=trial, normalize=False)
        if got.parameters["fallback"]:
            continue
        assert set(got.selected) == peters_trace_oracle(pool, target, k, trial)
        peters_trials += 1
    assert peters_trials >= 10

    kmeans_runs = 0
    for trial in range(15):
        n = int(rng.integers(20, 301))
        points = rng.random((n, 5)) * 10
        k = int(rng.choice([2, 4, default_k(n)]))
        result = kmeans(points, k, seed=trial)
        history = np.asarray(inertia_prefixes(points, k, trial, result.iterations))
        assert history.size >= 1 and history[-1] == result.inertia
        assert np.all(np.diff(history) <= 1e-9), trial
        kmeans_runs += 1

    _verdict(
        6,
        f"burak exact on {burak_trials} pools (raw + scaled), peters exact "
        f"on {peters_trials} traces, k-means monotone on {kmeans_runs} runs",
    )


def _loc(j: float) -> tuple[float, float, float]:
    return (j, int(j) % 3, 2 * j)


def _flip_corpus(with_junk: bool) -> Corpus:
    """Three projects; the source carries a label-mixed pair exactly on each
    of the first six defective target locations, shadowing a genuine
    defective case sitting 0.25 away.  Cleaning drops the mixed pairs, so a
    k=1 neighbour filter flips from the junk labels to the genuine ones."""
    src = []
    for j in range(1, 7):
        if with_junk:
            src.append(case(f"junk_free{j}", False, *_loc(j)))
            src.append(case(f"junk_def{j}", True, *_loc(j)))
        src.append(case(f"near_def{j}", True, j + 0.25, j % 3, 2 * j + 0.5))
    for j in range(7, 11):
        src.append(case(f"def{j}", True, *_loc(j)))
    for j in range(11, 21):
        src.append(case(f"free{j}", False, *_loc(j)))

    noise = [case(f"far{j}", j % 2 == 0, *_loc(1000 + j)) for j in range(6)]
    tgt = [case(f"t{j}", j <= 10, *_loc(j)) for j in range(1, 21)]
    return Corpus((
        dataset("src1.0", src),
        dataset("noise2.0", noise),
        dataset("tgt1.0", tgt),
    ))


def test_criterion_7_experiment_sensitivity(tmp_path):
    """With injected label-flipping neighbours the k=1 Burak cell reports a
    defined, nonzero F-measure change; without them every change rate is
    exactly 0; two runs serialize byte-identically."""
    config = ExperimentConfig(
        corpus_dir=None,
        targets=("tgt1.0",),
        filters=("burak",),
        learners=("naive_bayes",),
        burak_k=1,
        seed=0,
    )

    noisy = _flip_corpus(with_junk=True)
    run = run_experiment(config, noisy)
    fm = {(r.filter_name, r.metric): r for r in run.results}[("burak", "fmeasure")]
    assert fm.original is not None and fm.original > 0
    assert fm.change_percent is not None
    assert fm.change_percent != 0

    again = run_experiment(config, noisy)
    first = json.dumps(experiment_json(run), indent=2, sort_keys=True)
    second = json.dumps(experiment_json(again), indent=2, sort_keys=True)
    assert first == second

    quiet = _flip_corpus(with_junk=False)
    clean_run = run_experiment(config, quiet)
    for row in clean_run.results:
        assert row.original == row.cleaned
        assert row.change_percent == 0.0 or (
            row.original is None and row.change_percent is None)
    _verdict(
        7,
        f"burak F change {fm.change_percent:+.1f}% with junk, all 0 "
        "without, reports byte-identical across runs",
    )


@requires_real_corpus
def test_criterion_7_desk_scale_reproducibility(real_corpus):
    """Full filter x learner grid over the real corpus, targets excluding
    prop*, per-dataset cap 500: < 30 min and byte-reproducible."""
    targets = tuple(
        ds.name for ds in real_corpus if not ds.name.startswith("prop"))
    config = ExperimentConfig(
        corpus_dir=None,
        targets=targets,
        seed=1,
        sample_cap=500,
    )
    started = time.perf_counter()
    first = run_experiment(config, real_corpus)
    elapsed = time.perf_counter() - started
    second = run_experiment(config, real_corpus)
    a = json.dumps(experiment_json(first), indent=2, sort_keys=True)
    b = json.dumps(experiment_json(second), indent=2, sort_keys=True)
    assert a == b
    assert elapsed < 1800, f"grid took {elapsed:.0f}s, budget 1800s"
    _verdict(
        7,
        f"desk-scale grid over {len(targets)} targets in {elapsed:.0f}s, "
        "byte-reproducible",
    )


@requires_real_corpus
def test_criterion_8_quality_report_regeneration(real_corpus, tmp_path):
    """Quality reports regenerate in the published layout; exact cell
    equality is asserted only where the counting semantics are unambiguous
    (the 11 all-zero rows and forrest0.7 x forrest0.8); every other cell is
    compared and flagged without failing."""
    within, cross = corpus_quality(real_corpus, include_pairs=True)
    paths = write_quality_reports(within, cross, tmp_path)
    payload = json.loads(paths["json"].read_text())
    assert len(payload["within"]) == 65
    assert len(payload["cross_release"]) == len(ref.RELEASE_PAIR_COUNTS)
    for entry in payload["within"]:
        assert set(entry) >= {"dataset", "inconsistent_cases", "identical_cases"}

    by_name = {r.dataset: r for r in within}
    for name in ref.ZERO_PROBLEM_DATASETS:
        report = by_name[name]
        assert (report.inconsistent_case_count, report.identical_case_count) == (0, 0)

    by_pair = {(r.project + r.release_a, r.project + r.release_b): r for r in cross}
    forrest = by_pair[("forrest0.7", "forrest0.8")]
    assert (forrest.identical_pair_count, forrest.inconsistent_pair_count) == (18, 0)

    flagged_within = [
        name
        for name, (inc, ide) in ref.PROBLEM_COUNTS.items()
        if (by_name[name].inconsistent_case_count,
            by_name[name].identical_case_count) != (inc, ide)
    ]
    flagged_cross = [
        pair
        for pair, counts in ref.RELEASE_PAIR_COUNTS.items()
        if (by_pair[pair].identical_pair_count,
            by_pair[pair].inconsistent_pair_count) != counts
    ]
    _verdict(
        8,
        f"layout + pinned cells exact; flagged {len(flagged_within)}/65 "
        f"within rows and {len(flagged_cross)}/67 pair rows against the "
        "published counts",
    )
