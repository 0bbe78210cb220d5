"""Training-data selection for cross-project defect prediction.

A source pool is the set of candidate training cases for one target
dataset.  In strict mode the pool contains every case of every dataset
whose *project* differs from the target's project, so no variant of the
target system can leak into training.  Mixed mode relaxes this to also
admit the target project's older releases by version number, ``init``
first (i.e. its history), excluding the target itself and anything newer.

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
feature values, times one exact power of two when their squared distances
could overflow.

A pool holds its admitted datasets (``SourcePool.sources``), not one object
per case: its labels are the datasets' labels stacked in corpus order, and
``SourcePool.origins`` (each row's dataset name and row there) is derived
from them only when asked for.  Its feature matrix is the one float copy of
its rows, gathered straight from each dataset's value table, so building it
caches no float matrix in the member datasets (a target caches its own).
Both distance filters, in both modes, get their points from ``_stacked``:
one new column-major ``(pool + target, 20)`` array, read as two views.
They measure through :class:`~defectclean.clustering.PointSet`, so their
distances are the fixed-order sums k-means decides with and their
selections are the same on every CPU.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from .clustering import PointSet, default_k, kmeans
from .data import METRIC_NAMES, N_METRICS, Corpus, Dataset, release_order

logger = logging.getLogger(__name__)

#: neighbours per target case for burak, and for peters's fallback, by default
DEFAULT_NEIGHBOURS = 10


@dataclass(frozen=True)
class SourcePool:
    """Candidate training cases for one target dataset.

    ``sources`` are the admitted datasets in corpus order; pool row ``i`` is
    the ``i``-th case of their concatenation.  The pool's labels stack the
    datasets' cached labels.  Its feature matrix is filled straight from
    each dataset's shared table floats (:attr:`ValueTable.floats`), the same
    bits as the datasets' own ``feature_matrix``, which a pool never asks
    for: the pool's is the only float copy of its rows.
    """

    sources: tuple[Dataset, ...]

    @cached_property
    def feature_matrix(self) -> np.ndarray:
        out = np.empty((len(self), N_METRICS))
        stop = 0
        for ds in self.sources:
            start, stop = stop, stop + ds.case_count
            # the ids are range-checked by Dataset; "clip" gathers without
            # the buffer that "raise" fills before writing to ``out``
            np.take(ds.values.floats, ds.value_ids, out=out[start:stop], mode="clip")
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
    mixed: exclude only the target itself and same-project releases that
    do not come before it in :func:`release_order`.
    """
    if mode not in ("strict", "mixed"):
        raise ValueError(f"unknown pool mode {mode!r}")
    target_order = release_order(target.release)
    sources = tuple(
        ds for ds in corpus
        if ds.project != target.project
        or (mode == "mixed" and release_order(ds.release) < target_order)
    )
    pool = SourcePool(sources)
    if not len(pool):
        raise ValueError(
            f"empty source pool for target {target.name!r} (mode={mode}); "
            f"the corpus has no other project"
        )
    return pool


def _stacked(pool: SourcePool, target: Dataset, normalize: bool) -> np.ndarray:
    """The points both distance filters measure: the pool's rows, then the
    target's, in one new column-major ``(n_pool + n_target, d)`` array.
    Column-major, so :class:`PointSet`'s feature-by-feature columns are a
    view of it, as k-means reads the peters filter's points.

    With ``normalize`` each feature is min-max scaled into [0, 1], bounds
    taken over both, in place: the subtraction, then the division, one
    rounding each.  Constant features map to 0 everywhere, so they never
    contribute to distances.

    Otherwise the raw features are copied.  A squared distance is at most
    ``4 d max^2`` and a sum of ``n`` of them (a k-means++ total, an inertia)
    ``n`` times that; when twice that could overflow, every value is
    multiplied by ``2^-s``, the smallest ``s`` that keeps that finite.  While
    the values stay normal floats, every difference, square and sum then
    scales exactly, so every distance scales by ``2^-2s`` and every
    decision, tie and draw is the one the unscaled values would give.  A
    value that the scaling would push below the normal range raises
    ValueError, naming its dataset and metric.  Below the bound ``s`` is 0
    and no value moves."""
    pool_m, target_m = pool.feature_matrix, target.feature_matrix
    n_pool = pool_m.shape[0]
    out = np.empty((n_pool + target_m.shape[0], pool_m.shape[1]), order="F")
    if normalize:
        combined_min = np.minimum(pool_m.min(axis=0), target_m.min(axis=0))
        combined_max = np.maximum(pool_m.max(axis=0), target_m.max(axis=0))
        span = combined_max - combined_min
        np.subtract(pool_m, combined_min, out=out[:n_pool])
        np.subtract(target_m, combined_min, out=out[n_pool:])
        out /= np.where(span > 0.0, span, 1.0)
        return out
    out[:n_pool], out[n_pool:] = pool_m, target_m
    # parsed metrics are finite and non-negative, so the largest is max|x|
    n, d = out.shape
    s, top = 0, float(out.max())
    while math.isinf(2.0 * n * 4.0 * d * top * top):
        s, top = s + 1, top / 2.0
    if s:
        low = np.unravel_index(np.argmin(np.where(out > 0.0, out, np.inf)), out.shape)
        if math.ldexp(float(out[low]), -s) < np.finfo(np.float64).tiny:
            high = np.unravel_index(np.argmax(out), out.shape)

            def cell(row: int, col: int) -> str:
                where = pool.origins[0][row] if row < n_pool else target.name
                return f"{where} {METRIC_NAMES[col]} = {float(out[row, col])!r}"

            raise ValueError(
                f"raw distances: {cell(*low)} would leave the normal float range when"
                f" scaled by 2^-{s}, which {cell(*high)} needs to keep squared"
                " distances finite"
            )
        np.ldexp(out, -s, out=out)
    return out


def global_filter(pool: SourcePool) -> TrainingSelection:
    """Use the entire pool as training data."""
    return TrainingSelection("global", np.arange(len(pool)))


def burak_filter(
    pool: SourcePool, target: Dataset, k: int = DEFAULT_NEIGHBOURS, normalize: bool = True
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

    space = _stacked(pool, target, normalize)
    chosen = np.zeros(n_pool, dtype=bool)
    chosen[PointSet(space[n_pool:]).k_nearest(space[:n_pool], k)] = True
    return TrainingSelection("burak", np.flatnonzero(chosen), {"k": k, "normalize": normalize})


def check_cluster_count(setting: str, k: int, points: int, where: str) -> None:
    """Reject a cluster count k-means cannot fill: below 1 or above the
    ``points`` (pool plus target cases) it would cluster.  The message
    starts with ``setting`` and names ``where`` those points come from."""
    if k < 1:
        raise ValueError(
            f"{setting}: {k} clusters for the {points} cases of {where}; at least 1 is needed"
        )
    if k > points:
        raise ValueError(f"{setting}: {k} clusters exceed the {points} cases of {where}")


def peters_filter(
    pool: SourcePool,
    target: Dataset,
    k_clusters: int | None = None,
    seed: int = 0,
    normalize: bool = True,
    fallback_k: int = DEFAULT_NEIGHBOURS,
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
    n_pool = len(pool)
    points = _stacked(pool, target, normalize)
    pool_space, target_space = points[:n_pool], points[n_pool:]
    k = default_k(points.shape[0]) if k_clusters is None else k_clusters

    clustering = kmeans(points, k, seed)
    pool_clusters = clustering.assignments[:n_pool]
    target_clusters = clustering.assignments[n_pool:]

    # attach each pool case to its nearest target case in its cluster (ties:
    # lower target index)
    rows, dist, attached = [], [], []
    # the clusters holding a target case, in id order (a bincount, not
    # np.unique, which imports numpy.ma on every call on numpy 2)
    for cid in np.flatnonzero(np.bincount(target_clusters, minlength=k)):
        pool_members = np.flatnonzero(pool_clusters == cid)
        if pool_members.size == 0:
            continue
        target_members = np.flatnonzero(target_clusters == cid)
        nearest, d2 = PointSet(pool_space[pool_members]).nearest(target_space[target_members])
        rows.append(pool_members)
        dist.append(d2)
        attached.append(target_members[nearest])

    params: dict[str, object] = {
        "k_clusters": int(k), "seed": seed, "normalize": normalize, "fallback": False,
    }
    if not rows:
        logger.warning(
            "no retained cluster for %s contains pool cases; "
            "falling back to the nearest-neighbour filter", target.name,
        )
        fallback = burak_filter(pool, target, k=fallback_k, normalize=normalize)
        params.update({"fallback": True, "k": fallback_k})
        return TrainingSelection("peters", fallback.selected, params)

    # each target case takes its nearest attached pool case (ties: lower
    # pool index): the first of its group in (target, distance, row) order
    rows, dist, attached = (np.concatenate(a) for a in (rows, dist, attached))
    order = np.lexsort((rows, dist, attached))
    attached = attached[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = attached[1:] != attached[:-1]
    return TrainingSelection("peters", np.sort(rows[order[first]]), params)


FILTERS = ("global", "burak", "peters")


def select_training_data(
    filter_name: str,
    pool: SourcePool,
    target: Dataset,
    k: int = DEFAULT_NEIGHBOURS,
    k_clusters: int | None = None,
    seed: int = 0,
    normalize: bool = True,
) -> TrainingSelection:
    """Dispatch one of the three filters by name, for a target with cases."""
    if target.case_count == 0:
        raise ValueError(f"target {target.name!r} has no cases")
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
