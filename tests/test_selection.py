"""Pool construction and training-filter tests.

The nearest-neighbour filter is checked against a brute-force oracle
(sort every pool case by (distance, index) per target case).  The
clustering-based filter is checked by independently re-deriving the
attach/pick procedure from the published clustering.  Both oracles
(``tests/_reference_selection.py``) sum distances in the package's fixed
feature order, so they agree bit for bit on scaled features too; the
integer-valued runs without scaling make ties frequent.
"""

from __future__ import annotations

import hashlib
import logging
import os
import platform
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from defectclean import clustering
from defectclean.clustering import default_k, kmeans
from defectclean.data import Corpus, Dataset, metric_float, release_order, split_project
from defectclean.datagen import synthetic_corpus
from defectclean.selection import (
    FILTERS,
    _stacked,
    build_pool,
    burak_filter,
    global_filter,
    peters_filter,
    select_training_data,
)

from ._reference_selection import knn_union_oracle, peters_trace_oracle
from ._reference_tables import ORIGINAL_SIZES
from .conftest import (
    case, dataset, decimal_rows, problem_datasets, random_vector, scaled_by, with_cell,
)


def pool_rows(pool, corpus) -> list[tuple[str, int]]:
    """Each pool row's (dataset name, row there), from ``pool.origins``."""
    names, rows = pool.origins
    return list(zip(names.tolist(), rows.tolist()))


def random_dataset(rng, name, n, grid=6, active=6) -> Dataset:
    cases = [
        case(f"c{i}", bool(rng.random() < 0.4), *random_vector(rng, grid, active))
        for i in range(n)
    ]
    return dataset(name, cases)


def random_corpus(rng) -> Corpus:
    return Corpus((
        random_dataset(rng, "p1.0", int(rng.integers(8, 30))),
        random_dataset(rng, "p1.1", int(rng.integers(8, 30))),
        random_dataset(rng, "q1.0", int(rng.integers(8, 30))),
        random_dataset(rng, "r2.0", int(rng.integers(8, 30))),
    ))


def scale_like_filter(pool_m, target_m):
    lo = np.minimum(pool_m.min(axis=0), target_m.min(axis=0))
    hi = np.maximum(pool_m.max(axis=0), target_m.max(axis=0))
    span = np.where(hi - lo > 0, hi - lo, 1.0)
    return (pool_m - lo) / span, (target_m - lo) / span


class TestBuildPool:
    def test_strict_excludes_whole_project(self, rng):
        corpus = random_corpus(rng)
        pool = build_pool(corpus, corpus.get("p1.1"), mode="strict")
        assert {origin for origin, _ in pool_rows(pool, corpus)} == {"q1.0", "r2.0"}

    def test_mixed_admits_older_same_project_releases(self, rng):
        corpus = random_corpus(rng)
        pool = build_pool(corpus, corpus.get("p1.1"), mode="mixed")
        assert {origin for origin, _ in pool_rows(pool, corpus)} == {"p1.0", "q1.0", "r2.0"}
        older = build_pool(corpus, corpus.get("p1.0"), mode="mixed")
        assert {origin for origin, _ in pool_rows(older, corpus)} == {"q1.0", "r2.0"}

    def test_release_order_of_every_published_project(self):
        # name order is release order everywhere but xerces, whose initial
        # release sorts last by name
        projects: dict[str, list[str]] = {}
        for name in sorted(ORIGINAL_SIZES):
            projects.setdefault(split_project(name)[0], []).append(name)
        by_release = {
            project: sorted(names, key=lambda name: release_order(split_project(name)[1]))
            for project, names in projects.items() if len(names) > 1
        }
        assert len(by_release) == 12
        assert by_release.pop("xerces") == ["xercesinit", "xerces1.2", "xerces1.3", "xerces1.4"]
        assert all(names == projects[project] for project, names in by_release.items())

    def test_release_order_is_numeric_then_textual(self):
        releases = ["", "1.10", "rc", "init", "2", "1.9", "1.9.1", "10"]
        assert sorted(releases, key=release_order) == [
            "init", "1.9", "1.9.1", "1.10", "2", "10", "", "rc"]
        assert release_order("1.0") < release_order("1.00")  # equal numbers, still ordered

    def test_mixed_pool_follows_release_order(self):
        corpus = synthetic_corpus(
            seed=1, releases=("xerces1.2", "xerces1.3", "xerces1.4", "xercesinit", "ant1.7"))
        sources = {
            name: [ds.name for ds in build_pool(corpus, corpus.get(name), "mixed").sources]
            for name in ("xercesinit", "xerces1.2", "xerces1.4")
        }
        assert sources == {
            "xercesinit": ["ant1.7"],
            "xerces1.2": ["xercesinit", "ant1.7"],
            "xerces1.4": ["xerces1.2", "xerces1.3", "xercesinit", "ant1.7"],
        }

    def test_entries_carry_origin_rows(self, rng):
        corpus = random_corpus(rng)
        pool = build_pool(corpus, corpus.get("q1.0"))
        origins = pool_rows(pool, corpus)
        assert origins == [
            (ds.name, row) for ds in pool.sources for row in range(ds.case_count)
        ]
        stacked = [corpus.get(origin).labels[row] for origin, row in origins]
        assert pool.labels.tolist() == stacked

    def test_pool_matrices_align_with_entries(self, rng):
        corpus = random_corpus(rng)
        pool = build_pool(corpus, corpus.get("q1.0"))
        assert pool.feature_matrix.shape == (len(pool), 20)
        origin, row = pool_rows(pool, corpus)[3]
        assert pool.labels[3] == corpus.get(origin).labels[row]

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(problem_datasets(), min_size=4, max_size=4),
        st.integers(0, 3),
        st.sampled_from(["p1.0", "p1.1", "q1.0", "r2.0"]),
        st.sampled_from(["strict", "mixed"]),
    )
    def test_stacked_matrices_equal_the_entries(self, drawn, emptied, target_name, mode):
        # respelled cells, one dataset emptied; the pool's arrays must hold
        # each entry's floats and label, bit for bit, and its floats are
        # gathered from the value tables, caching no matrix in the datasets
        names = ("p1.0", "p1.1", "q1.0", "r2.0")
        datasets = [dataset(name, decimal_rows(ds)) for name, ds in zip(names, drawn)]
        datasets[emptied] = datasets[emptied].replace_cases(())
        corpus = Corpus(tuple(datasets))
        target = corpus.get(target_name)
        pool = build_pool(corpus, target, mode=mode)
        origins = pool_rows(pool, corpus)
        stacked = [decimal_rows(corpus.get(origin))[row] for origin, row in origins]
        assert len(pool) == len(origins) == pool.feature_matrix.shape[0] > 0
        want = np.array(
            [[metric_float(v) for v in metrics] for _, metrics, _ in stacked], dtype=np.float64)
        assert pool.feature_matrix.tobytes() == want.tobytes()
        assert not any("feature_matrix" in vars(ds) for ds in datasets)
        assert pool.labels.tolist() == [bugs >= 1 for _, _, bugs in stacked]
        admitted = [
            ds for ds in datasets
            if ds.project != target.project or (mode == "mixed" and ds.name < target_name)
        ]
        assert origins == [
            (ds.name, row) for ds in admitted for row in range(ds.case_count)
        ]

    def test_single_project_corpus_has_no_pool(self, rng):
        corpus = Corpus((random_dataset(rng, "solo1.0", 10),))
        with pytest.raises(ValueError, match="empty source pool"):
            build_pool(corpus, corpus.get("solo1.0"))

    def test_unknown_mode_rejected(self, rng):
        corpus = random_corpus(rng)
        with pytest.raises(ValueError, match="mode"):
            build_pool(corpus, corpus.get("q1.0"), mode="loose")


class TestGlobalFilter:
    def test_selects_everything(self, rng):
        corpus = random_corpus(rng)
        pool = build_pool(corpus, corpus.get("q1.0"))
        selection = global_filter(pool)
        assert selection.filter_name == "global"
        assert selection.selected.tolist() == list(range(len(pool)))


def same_selection(a, b) -> bool:
    """Selections compare by value (their rows are an array)."""
    return (a.filter_name == b.filter_name and a.parameters == b.parameters
            and np.array_equal(a.selected, b.selected))


class TestTrainingSelection:
    def test_every_filter_returns_read_only_int64_rows(self, rng):
        corpus = random_corpus(rng)
        target = corpus.get("q1.0")
        pool = build_pool(corpus, target)
        for name in FILTERS:
            rows = select_training_data(name, pool, target, k=3, seed=1).selected
            assert rows.dtype == np.int64 and rows.ndim == 1
            assert not rows.flags.writeable
            assert np.all(np.diff(rows) > 0)  # sorted, no repeats
            with pytest.raises(ValueError):
                rows[0] = 0


class TestBurakFilter:
    def test_matches_bruteforce_oracle_on_tie_heavy_grids(self, rng):
        # integer features, no scaling: distances are exact, ties frequent.
        # Target rows with more than k cases at their k-th distance take the
        # tie-break path; rows with exactly k take every case at or below it
        tied_rows = exact_rows = 0
        for _ in range(60):
            corpus = random_corpus(rng)
            target = corpus.get("p1.0")
            pool = build_pool(corpus, target)
            k = int(rng.integers(1, 8))
            got = burak_filter(pool, target, k=k, normalize=False)
            want = knn_union_oracle(pool.feature_matrix, target.feature_matrix, k)
            assert set(got.selected) == want
            d2 = ((target.feature_matrix[:, None, :] - pool.feature_matrix[None]) ** 2).sum(2)
            at_or_below = (d2 <= np.sort(d2, axis=1)[:, k - 1:k]).sum(axis=1)
            tied_rows += int((at_or_below > k).sum())
            exact_rows += int((at_or_below == k).sum())
        assert tied_rows and exact_rows

    def test_matches_bruteforce_oracle_in_scaled_space(self, rng):
        for _ in range(30):
            corpus = random_corpus(rng)
            target = corpus.get("r2.0")
            pool = build_pool(corpus, target)
            got = burak_filter(pool, target, k=5)
            pool_s, target_s = scale_like_filter(
                pool.feature_matrix, target.feature_matrix)
            want = knn_union_oracle(pool_s, target_s, 5)
            assert set(got.selected) == want

    @pytest.mark.parametrize("normalize, block_rows", [(False, (1, 3)), (True, (1, 2, 3, -1))])
    def test_selection_does_not_depend_on_block_size(
        self, rng, monkeypatch, normalize, block_rows
    ):
        # small blocks cut through every tie group of the grid, and a block
        # of one row goes through BLAS gemv instead of gemm, which rounds
        # differently; the scaled layouts often end in one row (-1 is the
        # target size less one).  Proposals decide only what their margin
        # settles and the rest is summed in fixed order, so every layout
        # selects the same rows on every BLAS kernel
        for _ in range(150):
            corpus = random_corpus(rng)
            target = corpus.get("p1.0")
            pool = build_pool(corpus, target)
            k = int(rng.integers(1, 8))
            default = burak_filter(pool, target, k=k, normalize=normalize).selected
            clustered = peters_filter(pool, target, k_clusters=2, normalize=normalize).selected
            for rows in block_rows:
                step = target.case_count - 1 if rows == -1 else rows
                monkeypatch.setattr(clustering, "_block_rows", lambda columns, cells: step)
                assert np.array_equal(
                    burak_filter(pool, target, k=k, normalize=normalize).selected, default)
                assert np.array_equal(peters_filter(
                    pool, target, k_clusters=2, normalize=normalize).selected, clustered)
                monkeypatch.undo()

    def test_selection_size_bounds(self, rng):
        corpus = random_corpus(rng)
        target = corpus.get("p1.1")
        pool = build_pool(corpus, target)
        k = 4
        selection = burak_filter(pool, target, k=k)
        assert k <= len(selection) <= min(len(pool), k * target.case_count)
        assert list(selection.selected) == sorted(selection.selected)

    def test_k_of_at_least_pool_size_takes_everything(self, rng, caplog):
        corpus = random_corpus(rng)
        target = corpus.get("q1.0")
        pool = build_pool(corpus, target)
        with caplog.at_level(logging.WARNING):
            exact = burak_filter(pool, target, k=len(pool))
            assert not caplog.records
            over = burak_filter(pool, target, k=len(pool) + 5)
        assert exact.selected.tolist() == over.selected.tolist() == list(range(len(pool)))
        assert any("selects all" in r.getMessage() for r in caplog.records)

    def test_invalid_k(self, rng):
        corpus = random_corpus(rng)
        target = corpus.get("q1.0")
        pool = build_pool(corpus, target)
        with pytest.raises(ValueError, match="k"):
            burak_filter(pool, target, k=0)

    def test_duplicate_distance_ties_go_to_lower_index(self):
        # pool rows 0..3 all coincide; with k=2 only the two lowest indices
        # may be taken for the single target case
        pool_cases = [case(f"p{i}", False, 1, 1) for i in range(4)]
        corpus = Corpus((
            dataset("s1.0", pool_cases),
            dataset("t1.0", [case("t", True, 1, 1)]),
        ))
        target = corpus.get("t1.0")
        pool = build_pool(corpus, target)
        selection = burak_filter(pool, target, k=2, normalize=False)
        assert selection.selected.tolist() == [0, 1]


class TestPetersFilter:
    def test_matches_independent_trace(self, rng):
        for trial in range(25):
            corpus = random_corpus(rng)
            target = corpus.get("p1.0")
            pool = build_pool(corpus, target)
            k = default_k(len(pool) + target.case_count)
            got = peters_filter(pool, target, k_clusters=k, seed=trial, normalize=False)
            if got.parameters["fallback"]:
                continue
            want = peters_trace_oracle(pool, target, k, trial)
            assert set(got.selected) == want

    def test_selection_no_larger_than_target(self, rng):
        for trial in range(25):
            corpus = random_corpus(rng)
            target = corpus.get("q1.0")
            pool = build_pool(corpus, target)
            selection = peters_filter(pool, target, seed=trial)
            assert 1 <= len(selection) <= target.case_count
            assert set(selection.selected) <= set(range(len(pool)))
            assert list(selection.selected) == sorted(selection.selected)

    def test_fallback_when_no_retained_cluster_has_pool_cases(self, caplog):
        # pool far from target: 2 clusters split pool/target exactly, the
        # target cluster holds no pool case
        pool_cases = [case(f"p{i}", False, 100 + i % 2, 100) for i in range(12)]
        target_cases = [case(f"t{i}", True, i % 2, 0) for i in range(6)]
        corpus = Corpus((
            dataset("far1.0", pool_cases),
            dataset("near1.0", target_cases),
        ))
        target = corpus.get("near1.0")
        pool = build_pool(corpus, target)
        with caplog.at_level(logging.WARNING):
            selection = peters_filter(pool, target, k_clusters=2, seed=0)
        assert selection.parameters["fallback"] is True
        assert any("falling back" in r.message for r in caplog.records)
        expected = burak_filter(pool, target, k=10)
        assert np.array_equal(selection.selected, expected.selected)
        assert selection.filter_name == "peters"

    def test_deterministic_per_seed(self, rng):
        corpus = random_corpus(rng)
        target = corpus.get("r2.0")
        pool = build_pool(corpus, target)
        assert same_selection(peters_filter(pool, target, seed=11),
                              peters_filter(pool, target, seed=11))

    def test_records_parameters(self, rng):
        corpus = random_corpus(rng)
        target = corpus.get("r2.0")
        pool = build_pool(corpus, target)
        selection = peters_filter(pool, target, seed=4)
        expected_k = default_k(len(pool) + target.case_count)
        assert selection.parameters["k_clusters"] == expected_k
        assert selection.parameters["seed"] == 4
        assert selection.parameters["normalize"] is True


class TestDistanceSpace:
    @pytest.mark.parametrize("normalize", [True, False])
    def test_both_filters_stack_their_points_once(self, rng, monkeypatch, normalize):
        # _stacked is the one place that builds points from the distance mode
        calls = []

        def spy(pool, target, normalize):
            calls.append(normalize)
            return _stacked(pool, target, normalize)

        monkeypatch.setattr("defectclean.selection._stacked", spy)
        corpus = random_corpus(rng)
        target = corpus.get("q1.0")
        pool = build_pool(corpus, target)
        burak_filter(pool, target, k=3, normalize=normalize)
        assert calls == [normalize]
        assert not peters_filter(pool, target, normalize=normalize).parameters["fallback"]
        assert calls == [normalize, normalize]

    @pytest.mark.parametrize("holder", ["alpha1.0", "beta2.0"], ids=["pool-row", "target-row"])
    def test_raw_distances_scale_an_overflowing_value_exactly(self, holder):
        # a metric of 1e200 parses, and its squared distances overflow; the
        # filters must warn of nothing (the suite's filter makes a
        # RuntimeWarning an error) and select what they select on the same
        # values times 2**-400, whose squared distances stay finite and normal
        huge = Corpus(tuple(
            with_cell(ds, 0, 0, Decimal("1e200")) if ds.name == holder else ds
            for ds in synthetic_corpus(seed=3)
        ))
        small = Corpus(tuple(scaled_by(ds, -400) for ds in huge))
        (pool, target), (small_pool, small_target) = (
            (build_pool(c, c.get("beta2.0")), c.get("beta2.0")) for c in (huge, small))
        assert np.array_equal(
            burak_filter(pool, target, normalize=False).selected,
            burak_filter(small_pool, small_target, normalize=False).selected)
        # k-means++ draws its first centre with rng.integers(n); the seed
        # that draws the huge row puts every other point at a huge squared
        # distance from it, and the sum of those weights must stay finite
        row = 0 if holder == "alpha1.0" else len(pool)
        n = len(pool) + target.case_count
        first = next(s for s in range(10_000) if np.random.default_rng(s).integers(n) == row)
        for seed in (0, first):
            got = peters_filter(pool, target, seed=seed, normalize=False)
            want = peters_filter(small_pool, small_target, seed=seed, normalize=False)
            assert same_selection(got, want)


class TestDispatch:
    def test_filter_names(self):
        assert FILTERS == ("global", "burak", "peters")

    def test_dispatch_matches_direct_calls(self, rng):
        corpus = random_corpus(rng)
        target = corpus.get("p1.1")
        pool = build_pool(corpus, target)
        assert same_selection(
            select_training_data("global", pool, target), global_filter(pool))
        assert same_selection(
            select_training_data("burak", pool, target, k=3), burak_filter(pool, target, k=3))
        assert same_selection(
            select_training_data("peters", pool, target, seed=2),
            peters_filter(pool, target, seed=2))

    def test_unknown_filter(self, rng):
        corpus = random_corpus(rng)
        target = corpus.get("p1.1")
        pool = build_pool(corpus, target)
        with pytest.raises(ValueError, match="unknown filter"):
            select_training_data("nope", pool, target)


def small_block_digest() -> str:
    """SHA-256 of a filter-scale k-means and of both distance filters on a
    synthetic corpus, every distance block three rows high."""
    from .test_kmeans_reference import filter_scale_points

    digest = hashlib.sha256()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(clustering, "_block_rows", lambda columns, cells: 3)
        result = kmeans(filter_scale_points(2000, 20, 5), 32, 5)
        corpus = synthetic_corpus(seed=5, cases=300)
        target = corpus.get("alpha1.1")
        pool = build_pool(corpus, target)
        burak = burak_filter(pool, target)
        peters = peters_filter(pool, target, seed=5)
    for array in (result.assignments, result.centroids, np.float64(result.inertia),
                  burak.selected, peters.selected):
        digest.update(array.tobytes())
    return digest.hexdigest()


#: OpenBLAS kernels forced in subprocesses, each with the CPU features it needs
KERNELS = {"Haswell": ("AVX2", "FMA3"), "Sandybridge": ("AVX",), "Nehalem": ("SSE42",)}


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OpenBLAS kernel names are x86-64 ones")
def test_same_bytes_under_other_blas_kernels():
    # each forced kernel rounds gemm its own way; proposals decide only what
    # their margin settles, so k-means and both filters write the same bytes
    from numpy._core._multiarray_umath import __cpu_features__

    root = Path(__file__).resolve().parent.parent
    want = small_block_digest()
    for kernel, needs in KERNELS.items():
        if not all(__cpu_features__.get(feature) for feature in needs):
            continue
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
        got = subprocess.run(
            [sys.executable, "-c",
             "from tests.test_selection import small_block_digest; print(small_block_digest())"],
            cwd=root, env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        assert got == want, kernel
