"""Pool construction and training-filter tests.

The nearest-neighbour filter is checked against a brute-force oracle
(sort every pool case by (distance, index) per target case).  The
clustering-based filter is checked by independently re-deriving the
attach/pick procedure from the published clustering.  Differential runs
use integer-valued features without scaling so that both sides compute
bit-identical distances and ties are actually exercised.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from defectclean import clustering
from defectclean.clustering import default_k, kmeans
from defectclean.data import Corpus, Dataset, metric_float, release_order, split_project
from defectclean.datagen import synthetic_corpus
from defectclean.selection import (
    FILTERS,
    build_pool,
    burak_filter,
    global_filter,
    peters_filter,
    select_training_data,
)

from ._reference_tables import ORIGINAL_SIZES
from .conftest import case, dataset, decimal_rows, problem_datasets, random_vector


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


def knn_union_oracle(pool_m, target_m, k, dot_trick=False) -> set[int]:
    """Per target case, the k nearest pool rows by (distance, row index).

    With integer features the direct formula is exact.  On scaled data exact
    ties round differently under different summation orders, so that variant
    reproduces the production distance expression and only the k-selection
    logic differs.
    """
    if dot_trick:
        d2_all = (
            np.einsum("ij,ij->i", target_m, target_m)[:, None]
            + np.einsum("ij,ij->i", pool_m, pool_m)[None, :]
            - 2.0 * target_m @ pool_m.T
        )
        d2_all = np.maximum(d2_all, 0.0)
    else:
        d2_all = ((target_m[:, None, :] - pool_m[None, :, :]) ** 2).sum(axis=2)
    union: set[int] = set()
    for d2 in d2_all:
        order = sorted(range(len(pool_m)), key=lambda i: (d2[i], i))
        union.update(order[:k])
    return union


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
        # respelled cells, one dataset emptied; the stacked per-dataset
        # arrays must hold each entry's floats and label, bit for bit
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
            want = knn_union_oracle(pool_s, target_s, 5, dot_trick=True)
            assert set(got.selected) == want

    @pytest.mark.parametrize("normalize, block_rows", [(False, (1, 3)), (True, (2, 3, -1))])
    def test_selection_does_not_depend_on_block_size(
        self, rng, monkeypatch, normalize, block_rows
    ):
        # small blocks cut through every tie group of the grid.  Unscaled
        # integer distances are exact on every BLAS path, so even one-row
        # blocks must agree.  A one-row product goes through gemv instead of
        # gemm, which rounds scaled distances differently in the last bit;
        # the scaled layouts often end in one row (-1 is the target size
        # less one), and the filters must fold that row into the block
        # before it
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


def peters_trace_oracle(pool, target, k_clusters, seed) -> set[int]:
    """Re-derive the attach/pick procedure with plain loops."""
    points = np.vstack([pool.feature_matrix, target.feature_matrix])
    clustering = kmeans(points, k_clusters, seed)
    n_pool = len(pool)
    pool_cl = clustering.assignments[:n_pool]
    target_cl = clustering.assignments[n_pool:]

    picked: set[int] = set()
    for cid in sorted(set(target_cl.tolist())):
        pool_members = [i for i in range(n_pool) if pool_cl[i] == cid]
        target_members = [t for t in range(len(target_cl)) if target_cl[t] == cid]
        if not pool_members:
            continue
        attached: dict[int, list[int]] = {t: [] for t in target_members}
        for p in pool_members:
            best_t = min(
                target_members,
                key=lambda t: (
                    ((pool.feature_matrix[p] - target.feature_matrix[t]) ** 2).sum(), t),
            )
            attached[best_t].append(p)
        for t, candidates in attached.items():
            if candidates:
                picked.add(min(
                    candidates,
                    key=lambda p: (
                        ((pool.feature_matrix[p] - target.feature_matrix[t]) ** 2).sum(), p),
                ))
    return picked


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
