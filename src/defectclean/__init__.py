"""defectclean: data-quality cleaning for class-level defect datasets and
its effect on cross-project defect prediction.

The package detects and removes *identical* cases (equal metrics, equal
label) and *inconsistent* cases (equal metrics, differing labels) from
datasets in the common 20-metric class-level schema, and runs comparative
prediction experiments (training-data filters x learners x metrics) on the
original versus cleaned data.

Every name lives in one module and is imported from it
(``from defectclean.data import load_corpus``).  The package itself holds
only ``__version__`` and those modules, all imported with it.
"""

__version__ = "0.1.0"

from . import (
    cleaning, clustering, data, evaluation, harness, learners, quality, reports, selection,
)
