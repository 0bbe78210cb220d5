"""Experiment orchestration: original vs cleaned corpus across filters,
learners and metrics.

One experiment evaluates every requested target dataset twice, once against
the original corpus and once against the corpus with identical and
inconsistent cases removed.  For each variant the harness builds the target's
source pool from that same variant, applies each training-data filter,
trains each learner on the filtered cases, predicts the target and scores
F-measure and AUC.  Every cell is scored in :func:`_variant_scores`, and
:func:`_target_results` pairs each cell's two variants into one result row
with its change rate and note.

Determinism: every randomized step (clustering inits, forest bootstraps,
subsampling) derives its seed from the run seed plus the combination's
identifying strings, so results do not depend on evaluation order or worker
count.  Re-running a config yields byte-identical reports.

Config files are plain ``key = value`` text, one key per
:class:`ExperimentConfig` field (:data:`CONFIG_KEYS`); lists are
comma-separated, ``#`` starts a comment.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping

import numpy as np

from .cleaning import clean_corpus
from .data import Corpus, Dataset, load_corpus
from .evaluation import ConfusionMatrix, auc, change_rate, f_measure
from .learners import LEARNER_NAMES, TrainingMatrix, predict, train
from .rng import derive_seed
from .selection import FILTERS, SourcePool, build_pool, select_training_data

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
    burak_k: int = 10
    peters_clusters: int | None = None
    normalize: bool = True
    pool_mode: str = "strict"
    sample_cap: int | None = None
    clean_pool_only: bool = False
    forest_trees: int = 100

    def __post_init__(self) -> None:
        if not self.targets or (isinstance(self.targets, str) and self.targets != "all"):
            raise ValueError('targets must be "all" or at least one dataset name')
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
            ("targets", self.targets if isinstance(self.targets, tuple) else ()),
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
    note: str = ""
    provenance: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentRun:
    config: ExperimentConfig
    results: tuple[ExperimentResult, ...]
    dataset_sizes: Mapping[str, Mapping[str, int]]


def _parse_list(value: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in value.split(",") if part.strip())


def _parse_bool(key: str, value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"{key}: expected true/false, got {value!r}")


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{key}: expected an integer, got {value!r}") from None


def parse_config(text: str, base_dir: Path | None = None) -> ExperimentConfig:
    """Parse the key=value config format; unknown keys are errors.

    Every error names the line it comes from, including those raised when
    the parsed values are checked (unknown filter or learner names, empty
    lists, out-of-range numbers)."""
    raw: dict[str, str] = {}
    lines: dict[str, int] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {line_no}: expected key = value, got {line.strip()!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValueError(f"line {line_no}: unknown key {key!r}")
        if key in raw:
            raise ValueError(f"line {line_no}: duplicate key {key!r}")
        raw[key] = value
        lines[key] = line_no

    try:
        return ExperimentConfig(**_config_kwargs(raw, base_dir))
    except ValueError as exc:
        # every value error starts with the offending key's name
        key = str(exc).split(":", 1)[0].split(" ", 1)[0]
        if key in lines:
            raise ValueError(f"line {lines[key]}: {exc}") from None
        raise


def _config_kwargs(raw: dict[str, str], base_dir: Path | None) -> dict[str, object]:
    kwargs: dict[str, object] = {"corpus_dir": None}
    for key, f in zip(CONFIG_KEYS, fields(ExperimentConfig)):
        if key in raw:
            kwargs[f.name] = _parse_value(key, f.type, raw[key], base_dir)
    return kwargs


def _parse_value(key: str, kind: str, value: str, base_dir: Path | None) -> object:
    """One config value, parsed by the annotated type of its field."""
    if kind == "Path | None":
        path = Path(value)
        return base_dir / path if base_dir is not None and not path.is_absolute() else path
    if kind == "tuple[str, ...] | str" and value == "all":
        return value
    if kind.startswith("tuple[str, ...]"):
        return _parse_list(value)
    if kind == "bool":
        return _parse_bool(key, value)
    if kind in ("int", "int | None"):
        return None if value.lower() in _NONE_WORDS.get(key, ()) else _parse_int(key, value)
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
    quota_clean = cap - quota_def
    if quota_clean > clean.size:
        quota_def += quota_clean - clean.size
        quota_clean = clean.size
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


# state shared with forked worker processes
_STATE: dict = {}


def _variant_inputs(target_name: str, variant: str) -> str | tuple[SourcePool, Dataset]:
    """The source pool and evaluation target of one target in one variant,
    or the reason the whole variant is undefined."""
    config: ExperimentConfig = _STATE["config"]
    corpus: Corpus = _STATE[variant]
    target = corpus.get(target_name)
    eval_target = (
        _STATE["original"].get(target_name)
        if variant == "cleaned" and config.clean_pool_only
        else target
    )
    if eval_target.case_count == 0:
        return f"{variant}: target has no cases left to evaluate"
    try:
        return build_pool(corpus, target, config.pool_mode), eval_target
    except ValueError as exc:
        return f"{variant}: {exc}"


def _variant_scores(target_name: str, variant: str) -> str | tuple[dict, dict]:
    """Score every (filter, learner) cell of one target in one variant.

    Returns the reason the whole variant is undefined, or the cells'
    ``(fmeasure, auc)`` keyed by ``(filter, learner)`` together with each
    filter's selection info.  AUC is None exactly when the evaluation
    target is single-class.
    """
    inputs = _variant_inputs(target_name, variant)
    if isinstance(inputs, str):
        return inputs
    pool, eval_target = inputs
    config: ExperimentConfig = _STATE["config"]
    test_X = eval_target.feature_matrix
    test_y = eval_target.labels

    cells: dict[tuple[str, str], tuple[float, float | None]] = {}
    info: dict[str, dict] = {}
    for filter_name in config.filters:
        filter_seed = derive_seed(config.seed, target_name, variant, "filter", filter_name)
        selection = select_training_data(
            filter_name, pool, eval_target,
            k=config.burak_k, k_clusters=config.peters_clusters,
            seed=filter_seed, normalize=config.normalize,
        )
        rows = selection.selected
        training = TrainingMatrix(pool.feature_matrix[rows], pool.labels[rows])
        info[filter_name] = {
            "selection_size": len(selection),
            "selection_parameters": dict(selection.parameters),
            "train_defective": int(training.y.sum()),
            "pool_size": len(pool),
        }
        for learner in config.learners:
            learner_seed = derive_seed(
                config.seed, target_name, variant, filter_name, learner
            )
            model = train(learner, training, seed=learner_seed, trees=config.forest_trees)
            labels, case_scores = predict(model, test_X)
            cm = ConfusionMatrix.from_predictions(test_y, labels)
            cells[(filter_name, learner)] = (f_measure(cm), auc(case_scores, test_y))
    return cells, info


def _target_results(target_name: str) -> list[ExperimentResult]:
    """Pair the two variants' scores of every cell of one target into
    result rows, each note naming why a score or change is undefined."""
    config: ExperimentConfig = _STATE["config"]
    scored = {v: _variant_scores(target_name, v) for v in VARIANTS}

    results = []
    for filter_name in config.filters:
        provenance = {
            "seed": config.seed,
            "pool_mode": config.pool_mode,
            "normalize": config.normalize,
            "sample_cap": config.sample_cap,
            "selection": {
                v: None if isinstance(s, str) else s[1][filter_name]
                for v, s in scored.items()
            },
        }
        for learner in config.learners:
            for i, metric in enumerate(METRICS):
                values = {
                    v: None if isinstance(s, str) else s[0][(filter_name, learner)][i]
                    for v, s in scored.items()
                }
                reasons = [
                    s if isinstance(s, str)
                    else f"{v}: auc undefined, target labels are single-class"
                    for v, s in scored.items() if values[v] is None
                ]
                change = change_rate(values["original"], values["cleaned"])
                if change is None and None not in values.values():
                    reasons.append("change undefined: original score is 0")
                results.append(ExperimentResult(
                    target_name, filter_name, learner, metric, **values,
                    change_percent=change, note="; ".join(reasons), provenance=provenance,
                ))
    return results


def _check_peters_clusters(targets: list[str]) -> None:
    """Reject an explicit cluster count above the number of points k-means
    would get (pool plus target cases) for any target and variant, before
    any target is scored.  Variants that are undefined anyway are skipped."""
    config: ExperimentConfig = _STATE["config"]
    k = config.peters_clusters
    if k is None or "peters" not in config.filters:
        return
    for name in targets:
        for variant in VARIANTS:
            inputs = _variant_inputs(name, variant)
            if isinstance(inputs, str):
                continue
            pool, eval_target = inputs
            points = len(pool) + eval_target.case_count
            if k > points:
                raise ValueError(
                    f"peters_clusters: {k} clusters exceed the {points} cases of "
                    f"target {name!r} and its pool in the {variant} variant"
                )


def _worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        count = int(raw)
    except ValueError:
        logger.warning("ignoring non-integer %s=%r", WORKERS_ENV, raw)
        return 1
    return max(1, count)


def run_experiment(config: ExperimentConfig, corpus: Corpus | None = None) -> ExperimentRun:
    """Execute the full grid; deterministic for a given config and corpus."""
    started = time.monotonic()
    if corpus is None:
        if config.corpus_dir is None:
            raise ValueError("config names no corpus directory and no corpus was given")
        corpus = load_corpus(config.corpus_dir)

    for name in ([] if config.targets == "all" else config.targets):
        corpus.get(name)  # raises CorpusError for unknown targets

    original = _apply_cap(corpus, config)
    cleaned, _ = clean_corpus(original)
    targets = (
        [ds.name for ds in original]
        if config.targets == "all"
        else list(config.targets)
    )
    sizes = {
        ds.name: {
            "loaded": corpus.get(ds.name).case_count,
            "original": ds.case_count,
            "cleaned": cleaned.get(ds.name).case_count,
        }
        for ds in original
    }

    global _STATE
    _STATE = {"config": config, "original": original, "cleaned": cleaned}
    _check_peters_clusters(targets)
    workers = _worker_count()
    if workers > 1 and len(targets) > 1:
        # fork inherits _STATE; results are reassembled in target order, so
        # the outcome is identical to the serial run
        import multiprocessing

        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            chunks = list(pool.map(_target_results, targets))
    else:
        chunks = [_target_results(t) for t in targets]

    results = tuple(r for chunk in chunks for r in chunk)
    logger.info(
        "experiment finished: %d targets, %d result rows, %.1fs",
        len(targets), len(results), time.monotonic() - started,
    )
    return ExperimentRun(config=config, results=results, dataset_sizes=sizes)
