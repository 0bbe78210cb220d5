"""The benchmark's tracer still finds the bindings it wraps.

``perfbench/spans.py`` wraps package functions and cached properties by
name (``harness.build_pool``, ``selection.kmeans``,
``Dataset.feature_matrix``, ...).  A refactor that renames or rebinds one
of them breaks ``perfbench/run.py --trace 1`` while every other test stays
green, so a small traced experiment must still report work in each layer it
runs.  It runs in a subprocess because installing the tracer rebinds the
package's functions for the rest of the process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, time
import spans
from defectclean import datagen, harness

tracer = spans.Tracer()
spans.install(tracer)
corpus = datagen.synthetic_corpus(seed=3, cases=40, duplicate_rate=0.1)
config = harness.ExperimentConfig(
    corpus_dir=None, seed=0, targets=("alpha1.1",),
    filters=("burak", "peters"), learners=("naive_bayes",),
)
start = time.monotonic()
harness.run_experiment(config, corpus)
end = time.monotonic()
print(json.dumps(spans.layer_metrics(tracer.spans, lambda a, b: b - a, (start, end), (start, end))))
"""


def test_traced_experiment_reports_every_layer_it_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env["DEFECTCLEAN_WORKERS"] = "1"
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.splitlines()[-1])
    # one target, two variants: one k-means call per variant
    assert metrics["clustering.kmeans_calls"] == 2
    assert metrics["clustering.kmeans_iterations"] >= 2
    assert metrics["data.feature_matrix_rows"] > 0
    assert metrics["selection.pool_rows"] > 0
    assert metrics["selection.burak_s"] > 0.0
    assert metrics["learners.nb_s"] > 0.0
