"""The package's public names: ``defectclean`` holds its version and its
modules, and every name ``defectclean.learners`` exports resolves.  Importing
it caps BLAS at one thread unless the caller chose a count."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import defectclean.learners

MODULES = (
    "cleaning", "clustering", "data", "evaluation", "harness", "learners",
    "quality", "reports", "selection",
)

FRESH_IMPORT_SCRIPT = """
import json, sys
import defectclean
print(json.dumps({
    "public": sorted(name for name in vars(defectclean) if not name.startswith("_")),
    "version": defectclean.__version__,
    "modules": sorted(name for name in sys.modules if name.startswith("defectclean")),
}))
"""


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fresh_run(script: str, env: dict[str, str]) -> str:
    """stdout of ``script`` in a fresh interpreter that imports from src/."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script], env={**env, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout


def test_every_exported_name_resolves():
    mod = defectclean.learners
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_the_package_holds_its_version_and_its_modules():
    # a fresh interpreter, so the modules other tests import are not bound
    got = json.loads(_fresh_run(FRESH_IMPORT_SCRIPT, dict(os.environ)))
    # rng, which the modules import, is bound as a submodule too
    assert got["public"] == sorted(MODULES + ("rng",))
    assert got["version"] == defectclean.__version__
    # the modules load with the package, so their import cost falls
    # before a command's work starts
    assert got["modules"] == sorted(
        ["defectclean", "defectclean.rng"]
        + [f"defectclean.{name}" for name in MODULES]
        + [f"defectclean.learners.{name}" for name in ("base", "forest", "naive_bayes", "tree")]
    )


@pytest.mark.parametrize("given", [None, "2"])
def test_import_sets_one_blas_thread_unless_the_caller_chose(given):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    script = (
        "import json, os, defectclean; "
        f"print(json.dumps([os.environ.get(name) for name in {BLAS_THREAD_VARIABLES!r}]))"
    )
    got = json.loads(_fresh_run(script, env))
    assert got == [given or "1", "1", "1"]
