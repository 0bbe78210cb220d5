"""The package's public names: every exported name resolves."""

from __future__ import annotations

import importlib

import pytest


@pytest.mark.parametrize("module", ["defectclean", "defectclean.learners"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from defectclean import *", namespace)
    import defectclean

    assert {name for name in namespace if name != "__builtins__"} == set(defectclean.__all__)
