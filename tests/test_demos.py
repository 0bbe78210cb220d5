"""Smoke test: every demo runs, and demo 05 writes the committed reports.

Each demo runs in its own process from an empty working directory, with the
package on ``PYTHONPATH``.  Demo 05 writes its experiment reports to
``demo_output/``; they must equal the files committed at the repository
root byte for byte.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py"))
COMMITTED = ROOT / "demo_output"


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    written = tmp_path / "demo_output"
    if demo.startswith("05_"):
        names = sorted(p.name for p in written.iterdir())
        assert names == sorted(p.name for p in COMMITTED.iterdir())
        for name in names:
            assert (written / name).read_bytes() == (COMMITTED / name).read_bytes(), name
    else:
        assert not written.exists()
