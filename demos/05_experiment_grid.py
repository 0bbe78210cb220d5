"""
Does cleaning change prediction results?  Run the grid and see
==============================================================

The harness answers one question per (target, filter, learner, metric)
cell: train on the original pool, train on the cleaned pool, score the
target both times, and report the rate of change
(cleaned - original) / original * 100.

This demo runs a deliberately dirty five-release corpus through a small
grid and prints the F-measure change table.  The `defectclean experiment`
command does the same from a config file and writes CSV/markdown/JSON.
"""

from pathlib import Path

from defectclean.datagen import synthetic_corpus
from defectclean.harness import ExperimentConfig, run_experiment
from defectclean.reports import experiment_grid_markdown, write_experiment_reports

corpus = synthetic_corpus(seed=19, duplicate_rate=0.2, inconsistent_rate=0.15)

config = ExperimentConfig(
    corpus_dir=None,
    filters=("global", "burak", "peters"),
    learners=("naive_bayes", "decision_tree"),
    seed=1,
    forest_trees=10,  # irrelevant here, kept small out of habit
)
run = run_experiment(config, corpus)

print(f"{len(run.results)} grid cells "
      f"(5 targets x 3 filters x 2 learners x 2 metrics)\n")
print(experiment_grid_markdown(run, "fmeasure"))

# Undefined cells are honest: a change rate is None when the original score
# is 0 and the cleaned one is not, and AUC is None on single-class targets.
undefined = [r for r in run.results if r.change_percent is None]
for row in undefined:
    print(f"undefined: {row.target}/{row.filter_name}/{row.learner}"
          f"/{row.metric}: {row.note}")

# Every run is reproducible byte for byte; the provenance block in the JSON
# records, per variant, each filter's selection size and parameters, the
# defective cases it trained on and the pool size.
out = Path("demo_output")
paths = write_experiment_reports(run, out)
print(f"\nwrote {', '.join(str(p) for p in paths.values())}")
