"""In-memory spans around the package's public calls, and their roll-up.

The tracer replaces public functions at the bindings where the package
looks them up (for example ``harness.build_pool``, ``selection.kmeans``) with
wrappers that record a span: name, start, end and parent.  No package file
changes.  A span's layer is the module its name starts with.  A span's self
time is its duration minus the durations of its direct children; calls are
nested and single-threaded, so children never overlap.

Counts are read from return values at the same boundaries, and per-layer
metrics are computed once, after the workload, by :func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import inspect
import time
from typing import Callable

#: layers in reporting order; ``startup`` is interpreter start plus imports
LAYERS = (
    "startup", "data", "quality", "cleaning", "selection", "clustering",
    "learners", "evaluation", "harness", "reports",
)


class Tracer:
    """Records spans while active; every span is kept until the run ends."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index, counts or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.active = True

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished top-level span."""
        self.spans.append([name, start, end, -1, None])

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """``fn`` with a span around every call while the tracer is active.

        ``count(result, args, kwargs)`` returns a dict of counts for the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.monotonic(), 0.0, parent, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                self._stack.pop()
            if count is not None:
                span[4] = count(result, args, kwargs)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count: Callable | None = None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))

    def patch_cached(self, cls, attr: str, name: str, count: Callable | None = None) -> None:
        """Wrap the function behind a ``functools.cached_property``."""
        prop = functools.cached_property(self.wrap(name, cls.__dict__[attr].func, count))
        prop.__set_name__(cls, attr)
        setattr(cls, attr, prop)


def _rows(result, args, kwargs) -> dict:
    return {"rows": int(result.shape[0])}


def _burak_counts(result, args, kwargs) -> dict:
    return {
        "selected": len(result),
        "capacity": result.parameters["k"] * args[1].case_count,
    }


def _peters_counts(result, args, kwargs) -> dict:
    return {"fallback": int(bool(result.parameters["fallback"]))}


def install(tracer: Tracer) -> None:
    """Wrap every traced binding of the package."""
    from defectclean import (
        cleaning, clustering, data, evaluation, harness, learners, quality,
        reports, selection,
    )

    max_iter = inspect.signature(clustering.kmeans).parameters["max_iter"].default

    def kmeans_counts(result, args, kwargs):
        points, k = args[0], args[1]
        limit = kwargs.get("max_iter", args[3] if len(args) > 3 else max_iter)
        return {
            "iterations": result.iterations,
            "maxed": int(result.iterations >= limit),
            "distance_evals": int(points.shape[0]) * int(k) * result.iterations,
        }

    def forest_counts(result, args, kwargs):
        rows = int(args[0].n_rows)
        return {
            "tree_rows": rows * len(result.trees),
            "nodes": sum(int(tree[0].shape[0]) for tree in result.trees),
        }

    def bytes_written(result, args, kwargs):
        paths = result.values() if isinstance(result, dict) else result
        return {"bytes": sum(p.stat().st_size for p in paths)}

    t = tracer
    t.patch(data, "load_corpus", "data.load",
            lambda r, a, k: {"rows": sum(ds.case_count for ds in r)})
    t.patch(data, "write_corpus", "data.write",
            lambda r, a, k: {"rows": sum(ds.case_count for ds in a[0])})
    t.patch_cached(data.Dataset, "feature_matrix", "data.feature_matrix", _rows)
    t.patch_cached(selection.SourcePool, "feature_matrix", "data.feature_matrix", _rows)

    t.patch(quality, "corpus_quality", "quality.corpus",
            lambda r, a, k: {"pairs": len(r[1])})
    t.patch(quality, "within_quality", "quality.within")
    t.patch(quality, "cross_release_quality", "quality.cross")

    clean_counts = lambda r, a, k: {"removed": sum(row.removed_cases for row in r[1])}
    t.patch(cleaning, "clean_corpus", "cleaning.clean", clean_counts)
    t.patch(harness, "clean_corpus", "cleaning.clean", clean_counts)

    t.patch(harness, "build_pool", "selection.build_pool", lambda r, a, k: {"rows": len(r)})
    t.patch(harness, "select_training_data", "selection.select")
    t.patch(selection, "burak_filter", "selection.burak", _burak_counts)
    t.patch(selection, "peters_filter", "selection.peters", _peters_counts)
    t.patch(selection, "kmeans", "clustering.kmeans", kmeans_counts)

    t.patch(harness, "train", "learners.train")
    t.patch(learners, "train_tree", "learners.tree",
            lambda r, a, k: {"rows": int(a[0].n_rows), "nodes": r.node_count})
    t.patch(learners, "train_forest", "learners.forest", forest_counts)
    t.patch(learners, "train_naive_bayes", "learners.nb")
    t.patch(harness, "predict", "learners.predict",
            lambda r, a, k: {"rows": int(r[1].shape[0])})

    t.patch(harness, "auc", "evaluation.score", lambda r, a, k: {"cases": len(a[1])})
    t.patch(harness, "f_measure", "evaluation.score")
    confusion = evaluation.ConfusionMatrix.from_predictions.__func__
    evaluation.ConfusionMatrix.from_predictions = classmethod(
        t.wrap("evaluation.score", confusion)
    )

    t.patch(harness, "run_experiment", "harness.run_experiment")
    t.patch(reports, "write_experiment_reports", "reports.write", bytes_written)
    t.patch(reports, "write_quality_reports", "reports.write", bytes_written)
    t.patch(reports, "write_clean_summary", "reports.write", bytes_written)


def self_times(spans: list[list], duration: Callable[[float, float], float]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [duration(start, end) for _, start, end, _, _ in spans]
    for span, length in zip(spans, list(own)):
        if span[3] >= 0:
            own[span[3]] -= length
    return own


def layer_metrics(
    spans: list[list],
    duration: Callable[[float, float], float],
    wall: tuple[float, float],
    body: tuple[float, float],
) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed by metric name.

    ``duration(start, end)`` measures an interval; ``wall`` and ``body`` are
    the (start, end) of the whole child and of its workload body.
    """
    own = self_times(spans, duration)
    wall_s = duration(*wall)
    body_s = duration(*body)
    by_name: dict[str, float] = {}
    counts: dict[tuple[str, str], float] = {}
    calls: dict[str, int] = {}
    for span, self_s in zip(spans, own):
        name = span[0]
        by_name[name] = by_name.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
        for key, value in (span[4] or {}).items():
            counts[(name, key)] = counts.get((name, key), 0) + value

    def s(name: str) -> float:
        return by_name.get(name, 0.0)

    def c(name: str, key: str) -> float:
        return counts.get((name, key), 0)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in by_name.items():
        layer_self[name.split(".", 1)[0]] += value
    attributed = sum(layer_self.values())
    burak_capacity = c("selection.burak", "capacity")

    metrics = {
        "data.load_s": s("data.load"),
        "data.rows_parsed": c("data.load", "rows"),
        "data.feature_matrix_s": s("data.feature_matrix"),
        "data.feature_matrix_rows": c("data.feature_matrix", "rows"),
        "data.write_s": s("data.write"),
        "data.rows_written": c("data.write", "rows"),
        "quality.within_s": s("quality.within"),
        "quality.cross_s": s("quality.cross"),
        "quality.pairs": c("quality.corpus", "pairs"),
        "cleaning.clean_s": s("cleaning.clean"),
        "cleaning.removed_cases": c("cleaning.clean", "removed"),
        "selection.build_pool_s": s("selection.build_pool"),
        "selection.pool_rows": c("selection.build_pool", "rows"),
        "selection.burak_s": s("selection.burak"),
        "selection.burak_selected_ratio": (
            c("selection.burak", "selected") / burak_capacity if burak_capacity else 0.0
        ),
        "selection.peters_self_s": s("selection.peters"),
        "selection.peters_fallbacks": c("selection.peters", "fallback"),
        "clustering.kmeans_s": s("clustering.kmeans"),
        "clustering.kmeans_calls": calls.get("clustering.kmeans", 0),
        "clustering.kmeans_iterations": c("clustering.kmeans", "iterations"),
        "clustering.kmeans_maxed": c("clustering.kmeans", "maxed"),
        "clustering.distance_evals": c("clustering.kmeans", "distance_evals"),
        "learners.tree_s": s("learners.tree"),
        "learners.tree_rows": c("learners.tree", "rows"),
        "learners.tree_nodes": c("learners.tree", "nodes"),
        "learners.forest_s": s("learners.forest"),
        "learners.forest_tree_rows": c("learners.forest", "tree_rows"),
        "learners.forest_nodes": c("learners.forest", "nodes"),
        "learners.nb_s": s("learners.nb"),
        "learners.predict_s": s("learners.predict"),
        "learners.predicted_rows": c("learners.predict", "rows"),
        "evaluation.score_s": s("evaluation.score"),
        "evaluation.scored_cases": c("evaluation.score", "cases"),
        "harness.self_s": s("harness.run_experiment"),
        "reports.write_s": s("reports.write"),
        "reports.bytes_written": c("reports.write", "bytes"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.layer_s"] = layer_self[layer]
    metrics.update({
        "trace.wall_s": wall_s,
        "trace.unattributed_ratio": (wall_s - attributed) / wall_s,
        "share.learners": layer_self["learners"] / body_s,
        "share.selection_clustering": (
            (layer_self["selection"] + layer_self["clustering"]) / body_s
        ),
    })
    return metrics
