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

Importing the package sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` to 1 where they are unset, before its modules import
numpy: the experiment's workers run one process per core, and BLAS threads
on top of them fight over the same cores.  BLAS reads these variables when
numpy loads, so a caller that imported numpy first keeps its own count.
"""

import os as _os

__version__ = "0.1.0"

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_name, "1")

from . import (
    cleaning, clustering, data, evaluation, harness, learners, quality, reports, selection,
)
