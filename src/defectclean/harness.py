"""Experiment orchestration: original vs cleaned corpus across filters,
learners and metrics.

One experiment evaluates every requested target dataset twice, once against
the original corpus and once against the corpus with identical and
inconsistent cases removed.  Targets that share a variant and a pool form
one job.  The unit of work is a run of one job's targets: it builds the
pool and trains the global naive Bayes and pruned tree once, then, for each
target, applies each training-data filter, trains each learner on the
filtered cases, predicts the target and scores F-measure and AUC.  A serial
run makes one unit per job; with workers, a job is cut into runs of at most
ceil(scored pairs / workers) targets.  A unit is a plain picklable value
that carries its config and datasets, so it runs under any start method.
A unit returns one :class:`Cell` per (target, variant, filter, learner);
an undefined (target, variant) becomes cells carrying its reason.
:func:`_results` pairs each cell's two variants by key into one result row
per metric, with its change rate and note.

Determinism: every randomized step (clustering inits, forest bootstraps,
subsampling) derives its seed from the run seed plus the combination's
identifying strings, so results do not depend on evaluation order or worker
count.  Re-running a config yields byte-identical reports.

Config files are plain ``key = value`` lines, one key per
:class:`ExperimentConfig` field (:data:`CONFIG_KEYS`); lists are
comma-separated, ``#`` starts a comment, and lines end as in the CSVs.
:func:`parse_config` sets and checks each line's value as it reads it, so
a bad value fails at its own line.  ``corpus`` is kept as written and only
recorded: the caller loads the corpus and hands it to :func:`run_experiment`.
"""

from __future__ import annotations

import io
import logging
import os
import time
from dataclasses import dataclass, fields, replace
from itertools import chain, product
from pathlib import Path
from typing import Mapping

import numpy as np

from .cleaning import clean_corpus
from .data import METRIC_NAMES, Corpus, Dataset
from .evaluation import ConfusionMatrix, auc, change_rate, f_measure
from .learners import LEARNER_NAMES, FeatureTooLargeError, TrainingMatrix, predict, train
from .rng import derive_seed
from .selection import (
    DEFAULT_NEIGHBOURS, FILTERS, SourcePool, build_pool, check_cluster_count, select_training_data,
)

logger = logging.getLogger(__name__)

METRICS = ("fmeasure", "auc")
VARIANTS = ("original", "cleaned")

#: environment variable consulted for the worker count (the only env knob)
WORKERS_ENV = "DEFECTCLEAN_WORKERS"

@dataclass(frozen=True)
class ExperimentConfig:
    corpus_dir: Path | None
    targets: tuple[str, ...] | str = "all"
    filters: tuple[str, ...] = ("global", "burak", "peters")
    learners: tuple[str, ...] = ("naive_bayes", "decision_tree", "random_forest")
    seed: int = 0
    burak_k: int = DEFAULT_NEIGHBOURS
    peters_clusters: int | None = None
    normalize: bool = True
    pool_mode: str = "strict"
    sample_cap: int | None = None
    clean_pool_only: bool = False
    forest_trees: int = 100

    def __post_init__(self) -> None:
        # each check reads one field only, so parse_config can blame the
        # line that set it
        if not self.targets or (isinstance(self.targets, str) and self.targets != "all"):
            raise ValueError('targets must be "all" or at least one dataset name')
        if self.targets != "all":
            object.__setattr__(self, "targets", tuple(self.targets))
        # lists become tuples, so equal grids compare and hash equal
        object.__setattr__(self, "filters", tuple(self.filters))
        object.__setattr__(self, "learners", tuple(self.learners))
        for key, names, known in (
            ("filters", self.filters, FILTERS), ("learners", self.learners, LEARNER_NAMES)
        ):
            if not names:
                raise ValueError(f"{key} must name at least one of {', '.join(known)}")
            unknown = [name for name in names if name not in known]
            if unknown:
                raise ValueError(
                    f"{key}: unknown name {unknown[0]!r}; expected some of {', '.join(known)}"
                )
        # a repeated name would run its cells twice and report every row twice
        for key, names in (
            ("targets", () if self.targets == "all" else self.targets),
            ("filters", self.filters), ("learners", self.learners),
        ):
            repeated = [name for i, name in enumerate(names) if name in names[:i]]
            if repeated:
                raise ValueError(f"{key}: duplicate name {repeated[0]!r}")
        if self.pool_mode not in ("strict", "mixed"):
            raise ValueError(f"pool_mode must be strict or mixed, got {self.pool_mode!r}")
        if self.sample_cap is not None and self.sample_cap < 2:
            raise ValueError("sample_cap must be at least 2")
        if self.burak_k < 1:
            raise ValueError("burak_k must be at least 1")
        if self.peters_clusters is not None and self.peters_clusters < 1:
            raise ValueError("peters_clusters must be at least 1")
        if self.forest_trees < 1:
            raise ValueError("forest_trees must be at least 1")

    def as_dict(self) -> dict:
        """The config under its file keys, as JSON values."""
        out = {}
        for key, f in zip(CONFIG_KEYS, fields(self)):
            value = getattr(self, f.name)
            out[key] = (
                str(value) if isinstance(value, Path)
                else list(value) if isinstance(value, tuple)
                else value
            )
        return out


#: config-file key of each :class:`ExperimentConfig` field, in field order;
#: ``corpus_dir`` is the only field read from a key of another name
CONFIG_KEYS = tuple(
    "corpus" if f.name == "corpus_dir" else f.name for f in fields(ExperimentConfig)
)

#: the words that stand for None, per optional integer key
_NONE_WORDS = {"peters_clusters": ("auto",), "sample_cap": ("none", "off")}


@dataclass(frozen=True)
class ExperimentResult:
    """Scores of one (target, filter, learner, metric) cell in both
    variants, with their change rate (see :func:`change_rate`)."""

    target: str
    filter_name: str
    learner: str
    metric: str
    original: float | None
    cleaned: float | None
    change_percent: float | None
    note: str
    provenance: Mapping[str, object]


@dataclass(frozen=True)
class Cell:
    """One (target, variant, filter, learner) cell: its ``(fmeasure, auc)``
    scores and its filter's selection info, or, when the variant is
    undefined for the target, the reason why, with no scores."""

    target: str
    variant: str
    filter_name: str
    learner: str
    scores: tuple[float | None, float | None] = (None, None)
    selection: Mapping[str, object] | None = None
    reason: str = ""


@dataclass(frozen=True)
class ExperimentRun:
    config: ExperimentConfig
    results: tuple[ExperimentResult, ...]
    dataset_sizes: Mapping[str, Mapping[str, int]]


def parse_config(text: str) -> ExperimentConfig:
    r"""Parse the key=value config format; unknown keys are errors.

    Lines end as csv ends them (``"\n"``, ``"\r\n"`` or ``"\r"``), so a
    NEL or a line separator inside a comment stays in the comment.  Each
    line sets its value on the config read so far, and every check of
    :class:`ExperimentConfig` reads one field only, so every error names
    the line it comes from, including those raised when the value is
    checked (unknown filter or learner names, empty lists, out-of-range
    numbers, an empty ``corpus``)."""
    config = ExperimentConfig(corpus_dir=None)
    by_key = dict(zip(CONFIG_KEYS, fields(ExperimentConfig)))
    seen: set[str] = set()
    for line_no, line in enumerate(io.StringIO(text, newline=None), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {line_no}: expected key = value, got {line.strip()!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in by_key:
            raise ValueError(f"line {line_no}: unknown key {key!r}")
        if key in seen:
            raise ValueError(f"line {line_no}: duplicate key {key!r}")
        seen.add(key)
        field = by_key[key]
        try:
            parsed = _parse_value(key, field.type, value)
            config = replace(config, **{field.name: parsed})
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
    return config


def _parse_value(key: str, kind: str, value: str) -> object:
    """One config value, parsed by the annotated type of its field."""
    if kind == "Path | None":
        if not value:
            raise ValueError(f"{key}: expected a directory, got {value!r}")
        return Path(value)
    if kind == "tuple[str, ...] | str" and value == "all":
        return value
    if kind.startswith("tuple[str, ...]"):
        return tuple(part.strip() for part in value.split(",") if part.strip())
    if kind == "bool":
        lowered = value.lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        raise ValueError(f"{key}: expected true/false, got {value!r}")
    if kind in ("int", "int | None"):
        if value.lower() in _NONE_WORDS.get(key, ()):
            return None
        try:
            return int(value)
        except ValueError:
            raise ValueError(f"{key}: expected an integer, got {value!r}") from None
    if kind == "str":
        return value
    raise TypeError(f"{key}: no parser for a {kind} field")


def _cap_dataset(ds: Dataset, cap: int, seed: int) -> Dataset:
    """Stratified subsample down to ``cap`` cases, preserving row order and
    keeping both label strata non-empty whenever they were."""
    n = ds.case_count
    if n <= cap:
        return ds
    rng = np.random.default_rng(seed)
    defective = np.flatnonzero(ds.labels)
    clean = np.flatnonzero(~ds.labels)
    quota_def = int(round(cap * defective.size / n))
    if defective.size:
        quota_def = max(quota_def, 1)
    quota_def = min(quota_def, defective.size, cap - (1 if clean.size else 0))
    # for cap < n, cap * defective / n >= cap - clean, so the clean stratum
    # is never asked for more cases than it holds
    quota_clean = cap - quota_def
    keep = np.sort(
        np.concatenate([
            rng.choice(defective, size=quota_def, replace=False),
            rng.choice(clean, size=quota_clean, replace=False),
        ])
    )
    return ds.take(keep)


def _apply_cap(corpus: Corpus, config: ExperimentConfig) -> Corpus:
    if config.sample_cap is None:
        return corpus
    capped = [
        _cap_dataset(ds, config.sample_cap, derive_seed(config.seed, "sample_cap", ds.name))
        for ds in corpus
    ]
    return Corpus(tuple(capped))


def _plan(
    config: ExperimentConfig, corpora: Mapping[str, Corpus], targets: list[str]
) -> tuple[dict, list]:
    """Build each (target, variant)'s pool once, from its variant's corpus,
    and check an explicit peters cluster count on it.  Returns each undefined
    pair's reason and the jobs, one ``(variant, pool sources, targets)`` each."""
    clusters = config.peters_clusters if "peters" in config.filters else None
    undefined: dict[tuple[str, str], str] = {}
    jobs: dict[tuple, tuple[str, tuple[Dataset, ...], list[Dataset]]] = {}
    for name in targets:
        for variant in VARIANTS:
            # clean_pool_only evaluates the original target in both variants
            eval_target = corpora["original" if config.clean_pool_only else variant].get(name)
            if eval_target.case_count == 0:
                undefined[name, variant] = f"{variant}: target has no cases left to evaluate"
                continue
            try:
                pool = build_pool(corpora[variant], eval_target, config.pool_mode)
            except ValueError as exc:
                undefined[name, variant] = f"{variant}: {exc}"
                continue
            if clusters is not None:
                check_cluster_count(
                    "peters_clusters", clusters, len(pool) + eval_target.case_count,
                    f"target {name!r} and its pool in the {variant} variant",
                )
            key = (variant, tuple(ds.name for ds in pool.sources))
            jobs.setdefault(key, (variant, pool.sources, []))[2].append(eval_target)
    return undefined, list(jobs.values())


def _unit_scores(unit: tuple) -> list[Cell]:
    """Score every (filter, learner) cell of each target of a unit
    ``(config, variant, pool sources, targets)``.  All the targets share one
    pool and its seedless global models, trained for the first target that
    asks.  AUC is None exactly when the evaluation target is single-class.
    A feature too large for naive Bayes fails with ValueError naming the
    cell and the metric, and, at training time, the pool dataset that holds
    the metric's largest training value.  A selection that fails (raw
    distances out of the float range) names its target, variant and filter,
    and ``normalize = false`` when that setting chose raw distances."""
    config, variant, sources, targets = unit
    pool = SourcePool(sources)
    whole, shared = None, {}
    if "global" in config.filters:
        whole = TrainingMatrix(pool.feature_matrix, pool.labels)
    cells = []
    for eval_target in targets:
        name = eval_target.name
        for filter_name in config.filters:
            filter_seed = derive_seed(config.seed, name, variant, "filter", filter_name)
            try:
                selection = select_training_data(
                    filter_name, pool, eval_target,
                    k=config.burak_k, k_clusters=config.peters_clusters,
                    seed=filter_seed, normalize=config.normalize,
                )
            except ValueError as exc:
                raw = "" if config.normalize else ", normalize = false"
                raise ValueError(
                    f"target {name!r}, {variant} variant, filter {filter_name}{raw}: {exc}"
                ) from None
            rows = selection.selected
            training = whole if filter_name == "global" else TrainingMatrix(
                pool.feature_matrix[rows], pool.labels[rows]
            )
            info = {
                "selection_size": len(selection),
                "selection_parameters": dict(selection.parameters),
                "train_defective": int(training.y.sum()),
                "pool_size": len(pool),
            }
            for learner in config.learners:
                seedless = filter_name == "global" and learner != "random_forest"
                model = shared.get(learner) if seedless else None
                try:
                    if model is None:
                        seed = derive_seed(config.seed, name, variant, filter_name, learner)
                        model = train(learner, training, seed=seed, trees=config.forest_trees)
                        if seedless:
                            shared[learner] = model
                    labels, case_scores = predict(model, eval_target.feature_matrix)
                except FeatureTooLargeError as exc:
                    metric = METRIC_NAMES[exc.column]
                    if model is None:  # training failed: name where the value comes from
                        top = int(np.argmax(training.X[:, exc.column]))
                        metric += (f" = {float(training.X[top, exc.column])!r}"
                                   f" in pool dataset {pool.origins[0][rows[top]]!r}")
                    raise ValueError(
                        f"target {name!r}, {variant} variant, filter {filter_name},"
                        f" learner {learner}: metric {metric}: {exc}"
                    ) from None
                cm = ConfusionMatrix.from_predictions(eval_target.labels, labels)
                scores = (f_measure(cm), auc(case_scores, eval_target.labels))
                cells.append(Cell(name, variant, filter_name, learner, scores, info))
    return cells


def _results(
    config: ExperimentConfig, targets: list[str], cells: list[Cell]
) -> tuple[ExperimentResult, ...]:
    """Pair the two variants' cells of every (target, filter, learner) into
    one result row per metric, in grid order whatever the order of
    ``cells``, each note naming why a score or change is undefined."""
    by_key = {(c.target, c.filter_name, c.learner, c.variant): c for c in cells}
    results = []
    for target, filter_name, learner in product(targets, config.filters, config.learners):
        pair = {v: by_key[target, filter_name, learner, v] for v in VARIANTS}
        provenance = {
            "seed": config.seed,
            "pool_mode": config.pool_mode,
            "normalize": config.normalize,
            "sample_cap": config.sample_cap,
            "selection": {v: cell.selection for v, cell in pair.items()},
        }
        for i, metric in enumerate(METRICS):
            values = {v: cell.scores[i] for v, cell in pair.items()}
            reasons = [
                cell.reason or f"{v}: auc undefined, target labels are single-class"
                for v, cell in pair.items() if values[v] is None
            ]
            change = change_rate(values["original"], values["cleaned"])
            if change is None and None not in values.values():
                reasons.append("change undefined: original score is 0")
            results.append(ExperimentResult(
                target, filter_name, learner, metric, **values,
                change_percent=change, note="; ".join(reasons), provenance=provenance,
            ))
    return tuple(results)


def _worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        count = int(raw)
    except ValueError:
        logger.warning("ignoring non-integer %s=%r", WORKERS_ENV, raw)
        return 1
    return max(1, count)


def run_experiment(config: ExperimentConfig, corpus: Corpus) -> ExperimentRun:
    """Execute the full grid on ``corpus``; deterministic for a given config and corpus."""
    started = time.monotonic()
    targets = [ds.name for ds in corpus] if config.targets == "all" else list(config.targets)
    for name in targets:
        corpus.get(name)  # raises CorpusError for unknown targets

    original = _apply_cap(corpus, config)
    cleaned, _ = clean_corpus(original)
    sizes = {
        ds.name: {
            "loaded": corpus.get(ds.name).case_count,
            "original": ds.case_count,
            "cleaned": cleaned.get(ds.name).case_count,
        }
        for ds in original
    }

    undefined, jobs = _plan(config, {"original": original, "cleaned": cleaned}, targets)
    cells = [
        Cell(name, variant, filter_name, learner, reason=reason)
        for (name, variant), reason in undefined.items()
        for filter_name, learner in product(config.filters, config.learners)
    ]
    # each job's targets in runs of at most ceil(pairs / workers): one unit
    # per job when serial, and a job is split only to keep workers busy
    requested = _worker_count()
    size = -(-sum(len(evaluated) for _, _, evaluated in jobs) // requested)
    units = [
        (config, variant, sources, tuple(evaluated[i:i + size]))
        for variant, sources, evaluated in jobs
        for i in range(0, len(evaluated), size)
    ]
    workers = min(requested, len(units))
    if workers > 1:
        # a unit carries its own job, so any start method works, and cells
        # are paired by key, so the outcome is the serial one;
        # imported here, so that serial runs skip concurrent.futures.process
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as executor:
            cells.extend(chain.from_iterable(executor.map(_unit_scores, units)))
    else:
        cells.extend(chain.from_iterable(map(_unit_scores, units)))
    results = _results(config, targets, cells)

    logger.info(
        "experiment finished: %d targets, %d result rows, %.1fs",
        len(targets), len(results), time.monotonic() - started,
    )
    return ExperimentRun(config=config, results=results, dataset_sizes=sizes)
