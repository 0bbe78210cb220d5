"""Training-data selection for cross-project defect prediction.

A source pool is the set of candidate training cases for one target
dataset.  In strict mode the pool contains every case of every dataset
whose *project* differs from the target's project, so no variant of the
target system can leak into training.  Mixed mode relaxes this to also
admit releases of the target project whose name sorts before the target
(i.e. its history), excluding the target itself and anything newer.

Three filters pick training cases from the pool:

* global: the whole pool.
* nearest-neighbour: for each target case, its k nearest pool cases by
  Euclidean distance; the union is the training set.
* clustering-based: pool and target cases are clustered together with
  k-means; clusters without target cases are discarded, remaining pool
  cases are attached to their nearest in-cluster target case, and each
  target case contributes its nearest attached pool case.

Distances are computed on min-max scaled features by default (scaling
parameters from pool plus target combined); ``normalize=False`` uses raw
feature values.

A pool holds its admitted datasets (``SourcePool.sources``), not one object
per case: its feature matrix and labels are the datasets' cached arrays
stacked in corpus order, and ``SourcePool.origins`` (each row's dataset name
and row there) is derived from them only when asked for.  The nearest-neighbour
and clustering filters compute distances in row blocks bounded by
``_BLOCK_CELLS``, a memory bound, while k-means assigns points in smaller,
cache-sized blocks (:mod:`defectclean.clustering`); both fold a lone
trailing row into the block before it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from .clustering import _block_rows, _blocks, default_k, kmeans, pairwise_sq
from .data import Corpus, Dataset

logger = logging.getLogger(__name__)

#: cells (rows x columns) per burak and peters distance block; bounds each
#: block temporary to about 8 MB whatever the pool size.  These blocks are
#: memory-sized, not cache-sized like k-means': each block streams the whole
#: pool (or cluster) once, so smaller blocks re-read it more often (burak on
#: the ``select`` benchmark went from 0.31 to 0.47 s with cache-sized blocks)
_BLOCK_CELLS = 1 << 20


@dataclass(frozen=True)
class SourcePool:
    """Candidate training cases for one target dataset.

    ``sources`` are the admitted datasets in corpus order; pool row ``i`` is
    the ``i``-th case of their concatenation.  The pool's feature matrix and
    labels stack the datasets' cached arrays, so each dataset is converted
    to floats once, however many pools admit it.
    """

    sources: tuple[Dataset, ...]

    @cached_property
    def feature_matrix(self) -> np.ndarray:
        out = np.concatenate([ds.feature_matrix for ds in self.sources])
        out.flags.writeable = False
        return out

    @cached_property
    def labels(self) -> np.ndarray:
        out = np.concatenate([ds.labels for ds in self.sources])
        out.flags.writeable = False
        return out

    @cached_property
    def origins(self) -> tuple[np.ndarray, np.ndarray]:
        """Each pool row's dataset name and its row in that dataset."""
        sizes = [ds.case_count for ds in self.sources]
        names = np.repeat(np.array([ds.name for ds in self.sources], dtype=object), sizes)
        rows = np.concatenate([np.arange(size) for size in sizes])
        return names, rows

    def __len__(self) -> int:
        return sum(ds.case_count for ds in self.sources)


@dataclass(frozen=True, eq=False)
class TrainingSelection:
    """Sorted pool rows chosen by one filter, as a read-only int64 array."""

    filter_name: str
    selected: np.ndarray
    parameters: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        rows = np.asarray(self.selected, dtype=np.int64)
        rows.flags.writeable = False
        object.__setattr__(self, "selected", rows)

    def __len__(self) -> int:
        return len(self.selected)


def build_pool(corpus: Corpus, target: Dataset, mode: str = "strict") -> SourcePool:
    """Assemble the source pool for a target dataset.

    strict: exclude every release of the target's project.
    mixed: exclude only the target itself and same-project releases whose
    name does not sort before the target's.
    """
    if mode not in ("strict", "mixed"):
        raise ValueError(f"unknown pool mode {mode!r}")
    sources = tuple(
        ds for ds in corpus
        if ds.project != target.project or (mode == "mixed" and ds.name < target.name)
    )
    pool = SourcePool(sources)
    if not len(pool):
        raise ValueError(
            f"empty source pool for target {target.name!r} (mode={mode}); "
            f"the corpus has no other project"
        )
    return pool


def _minmax_scale_pair(pool: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale both matrices into [0, 1] per feature, bounds taken over both.

    Constant features map to 0 everywhere, so they never contribute to
    distances."""
    combined_min = np.minimum(pool.min(axis=0), target.min(axis=0))
    combined_max = np.maximum(pool.max(axis=0), target.max(axis=0))
    span = combined_max - combined_min
    safe = np.where(span > 0.0, span, 1.0)
    return (pool - combined_min) / safe, (target - combined_min) / safe


def _spaces(pool: SourcePool, target: Dataset, normalize: bool) -> tuple[np.ndarray, np.ndarray]:
    if normalize:
        return _minmax_scale_pair(pool.feature_matrix, target.feature_matrix)
    return pool.feature_matrix, target.feature_matrix


def global_filter(pool: SourcePool) -> TrainingSelection:
    """Use the entire pool as training data."""
    return TrainingSelection("global", np.arange(len(pool)))


def burak_filter(
    pool: SourcePool, target: Dataset, k: int = 10, normalize: bool = True
) -> TrainingSelection:
    """Union of each target case's k nearest pool cases.

    Distance ties are broken towards the lower pool index, so the result is
    deterministic.  When the pool holds fewer than k cases the whole pool is
    selected (with a warning).
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    n_pool = len(pool)
    if k >= n_pool:
        if k > n_pool:
            logger.warning(
                "pool for %s has only %d cases; k=%d selects all of them",
                target.name, n_pool, k,
            )
        return TrainingSelection("burak", np.arange(n_pool), {"k": k, "normalize": normalize})

    pool_space, target_space = _spaces(pool, target, normalize)
    chosen = np.zeros(n_pool, dtype=bool)
    for start, stop in _blocks(target_space.shape[0], _block_rows(n_pool, _BLOCK_CELLS)):
        d2 = pairwise_sq(target_space[start:stop], pool_space)
        # exact k-nearest with ties to the lower pool index: everything
        # strictly below the k-th smallest value, then the lowest-index
        # cases at the k-th value until k are taken
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
        below = d2 < kth
        need = k - below.sum(axis=1, keepdims=True)
        at_kth = d2 == kth
        take_at_kth = at_kth & (np.cumsum(at_kth, axis=1, dtype=np.int64) <= need)
        chosen |= (below | take_at_kth).any(axis=0)
    return TrainingSelection("burak", np.flatnonzero(chosen), {"k": k, "normalize": normalize})


def peters_filter(
    pool: SourcePool,
    target: Dataset,
    k_clusters: int | None = None,
    seed: int = 0,
    normalize: bool = True,
    fallback_k: int = 10,
) -> TrainingSelection:
    """Cluster pool and target together, then pick one pool case per target
    case from its own cluster.

    Clusters containing no target case are discarded.  Within a retained
    cluster every pool case is attached to its nearest target case; each
    target case then contributes its nearest attached pool case (if any).
    If no retained cluster contains pool cases the filter falls back to the
    nearest-neighbour filter.  The selection size is therefore at most the
    number of target cases.
    """
    pool_space, target_space = _spaces(pool, target, normalize)
    n_pool = pool_space.shape[0]
    n_target = target_space.shape[0]
    points = np.vstack([pool_space, target_space])
    k = default_k(points.shape[0]) if k_clusters is None else k_clusters

    clustering = kmeans(points, k, seed)
    pool_clusters = clustering.assignments[:n_pool]
    target_clusters = clustering.assignments[n_pool:]

    retained = np.unique(target_clusters)
    picks: list[np.ndarray] = []
    for cid in retained:
        pool_members = np.flatnonzero(pool_clusters == cid)
        if pool_members.size == 0:
            continue
        target_members = np.flatnonzero(target_clusters == cid)
        # attach each pool case to its nearest target case (ties: lower
        # target index); then give each target case its nearest attached
        # pool case (ties: lower pool index, hence the strict <)
        best_d = np.full(target_members.size, np.inf)
        best_pool = np.full(target_members.size, -1, dtype=np.int64)
        step = _block_rows(target_members.size, _BLOCK_CELLS)
        for start, stop in _blocks(pool_members.size, step):
            rows = pool_members[start:stop]
            d2 = pairwise_sq(pool_space[rows], target_space[target_members])
            attached_to = d2.argmin(axis=1)
            row_min = d2[np.arange(rows.size), attached_to]
            for r in range(rows.size):
                t = attached_to[r]
                if row_min[r] < best_d[t]:
                    best_d[t] = row_min[r]
                    best_pool[t] = rows[r]
        picks.append(best_pool[best_pool >= 0])

    params: dict[str, object] = {
        "k_clusters": int(k), "seed": seed, "normalize": normalize, "fallback": False,
    }
    if not picks:
        logger.warning(
            "no retained cluster for %s contains pool cases; "
            "falling back to the nearest-neighbour filter", target.name,
        )
        fallback = burak_filter(pool, target, k=fallback_k, normalize=normalize)
        params.update({"fallback": True, "k": fallback_k})
        return TrainingSelection("peters", fallback.selected, params)

    return TrainingSelection("peters", np.unique(np.concatenate(picks)), params)


FILTERS = ("global", "burak", "peters")


def select_training_data(
    filter_name: str,
    pool: SourcePool,
    target: Dataset,
    k: int = 10,
    k_clusters: int | None = None,
    seed: int = 0,
    normalize: bool = True,
) -> TrainingSelection:
    """Dispatch one of the three filters by name."""
    if filter_name == "global":
        return global_filter(pool)
    if filter_name == "burak":
        return burak_filter(pool, target, k=k, normalize=normalize)
    if filter_name == "peters":
        return peters_filter(
            pool, target, k_clusters=k_clusters, seed=seed, normalize=normalize,
            fallback_k=k,
        )
    raise ValueError(f"unknown filter {filter_name!r}; expected one of {FILTERS}")
