"""defectclean: data-quality cleaning for class-level defect datasets and
its effect on cross-project defect prediction.

The package detects and removes *identical* cases (equal metrics, equal
label) and *inconsistent* cases (equal metrics, differing labels) from
datasets in the common 20-metric class-level schema, and runs comparative
prediction experiments (training-data filters x learners x metrics) on the
original versus cleaned data.
"""

__version__ = "0.1.0"

from .cleaning import CleanResult, clean, clean_corpus
from .clustering import Clustering, kmeans
from .data import (
    Corpus,
    CorpusError,
    Dataset,
    EmptyDatasetError,
    METRIC_NAMES,
    ParseError,
    SchemaError,
    canonicalize_metric,
    load_corpus,
    parse_dataset,
    serialize_dataset,
    split_project,
    write_corpus,
)
from .evaluation import (
    ConfusionMatrix,
    auc,
    average_change,
    change_rate,
    f_measure,
    precision,
    recall,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    ExperimentRun,
    parse_config,
    run_experiment,
)
from .learners import (
    TrainingMatrix,
    predict,
    train,
    train_forest,
    train_naive_bayes,
    train_tree,
)
from .quality import (
    CrossReleaseReport,
    WithinQualityReport,
    corpus_quality,
    cross_release_quality,
    release_pairs,
    within_quality,
)
from .reports import (
    write_clean_summary,
    write_experiment_reports,
    write_quality_reports,
)
from .selection import (
    SourcePool,
    TrainingSelection,
    build_pool,
    burak_filter,
    global_filter,
    peters_filter,
    select_training_data,
)

__all__ = [
    "__version__",
    # data
    "METRIC_NAMES", "Dataset", "Corpus",
    "SchemaError", "ParseError", "EmptyDatasetError", "CorpusError",
    "canonicalize_metric", "split_project", "parse_dataset",
    "serialize_dataset", "load_corpus", "write_corpus",
    # quality
    "WithinQualityReport", "CrossReleaseReport",
    "within_quality", "cross_release_quality", "release_pairs", "corpus_quality",
    # cleaning
    "CleanResult", "clean", "clean_corpus",
    # selection
    "SourcePool", "TrainingSelection", "build_pool",
    "global_filter", "burak_filter", "peters_filter", "select_training_data",
    "Clustering", "kmeans",
    # learners
    "TrainingMatrix",
    "train", "train_naive_bayes", "train_tree", "train_forest", "predict",
    # evaluation
    "ConfusionMatrix", "precision", "recall",
    "f_measure", "auc", "change_rate", "average_change",
    # harness + reports
    "ExperimentConfig", "ExperimentResult", "ExperimentRun",
    "parse_config", "run_experiment",
    "write_quality_reports", "write_clean_summary", "write_experiment_reports",
]
