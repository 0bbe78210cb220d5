"""The package's public names: ``defectclean`` holds its version and its
modules, and every name ``defectclean.learners`` exports resolves."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_every_exported_name_resolves():
    mod = defectclean.learners
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_the_package_holds_its_version_and_its_modules():
    # a fresh interpreter, so the modules other tests import are not bound
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", FRESH_IMPORT_SCRIPT], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout
    got = json.loads(out)
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
