"""Every command on small extreme corpora exits 0, or prints one ``error:``
line naming a file, a line, a setting or a dataset, with no traceback or
warning; a second run, on an all-fields-quoted copy of the corpus (on
workers for ``experiment``), writes the same bytes."""

from __future__ import annotations

import contextlib
import csv
import io
import os
import tempfile
import warnings
from decimal import Decimal
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from defectclean import cli
from defectclean.data import N_METRICS, Corpus, Dataset, write_corpus
from defectclean.datagen import synthetic_corpus, synthetic_dataset
from defectclean.harness import WORKERS_ENV
from defectclean.learners import LEARNER_NAMES

from .conftest import with_cell

EXTREMES = ("0", "1e-300", "0.123456789012345678", "1e200", "1e300", "1.7976931348623157e308")


@st.composite
def corpora(draw) -> Corpus:
    """3 or 4 projects of 1 or 2 releases of 8 to 40 cases: mixed, mostly
    duplicates, single-class, or each row twice with both labels."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    datasets = []
    for project in ("alpha", "beta", "gamma", "delta")[:draw(st.integers(3, 4))]:
        for release in ("1.0", "1.1")[:draw(st.integers(1, 2))]:
            kind = draw(st.sampled_from(["mixed", "duplicates", "single-class", "emptied"]))
            n = draw(st.integers(4, 20)) * 2
            palette = ["1", "2", "3.5", *draw(st.lists(st.sampled_from(EXTREMES), max_size=3))]
            rows = [[Decimal(palette[i]) for i in rng.integers(len(palette), size=N_METRICS)]
                    for _ in range(2 if kind == "duplicates" else n)]
            bugs = (np.full(n, draw(st.integers(0, 1))) if kind == "single-class"
                    else rng.integers(0, 3, size=n))
            cases = [(f"C{i}", rows[i // 2], i % 2) if kind == "emptied"
                     else (f"C{i}", rows[i % len(rows)], int(bugs[i])) for i in range(n)]
            datasets.append(Dataset.from_cases(project + release, cases))
    return Corpus(tuple(datasets))


#: a wmc of 1e200, which raw distances scale away and naive Bayes cannot score
ITEM_11 = Corpus(tuple(with_cell(ds, 0, 0, Decimal("1e200")) if ds.name == "alpha1.0" else ds
                       for ds in synthetic_corpus(seed=3)))
#: alpha1.0 and alpha1.1 share one pool per variant, so 4 workers split each
#: job into runs of one target; flip1.0 cleans to nothing
SHARED = Corpus((*synthetic_corpus(seed=3, duplicate_rate=0.1, inconsistent_rate=0.1),
                 synthetic_dataset("flip1.0", seed=3, cases=1, inconsistent_rate=1.0)))


def run(*argv: str, names: list[str], workers: int = 1) -> tuple[int, str]:
    """``cli.main(argv)``'s status and stderr: 0 and nothing, or 1 and one
    ``error:`` line naming one of ``names``, a line or a setting."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {WORKERS_ENV: str(workers)}), warnings.catch_warnings():
        warnings.simplefilter("error")
        status = cli.main(list(argv))
    lines = err.getvalue().splitlines()
    assert (status, lines) == (0, []) or status == 1 and len(lines) == 1 and lines[0].startswith(
        "error: ") and any(name in lines[0] for name in (*names, "line ", "--")), lines
    return status, err.getvalue()


def written(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


@settings(max_examples=20, deadline=None, derandomize=True)
@given(corpus=corpora(), normalize=st.booleans(), workers=st.just(2))
@example(corpus=ITEM_11, normalize=False, workers=2)
@example(corpus=SHARED, normalize=True, workers=4)
def test_every_command_exits_0_or_names_its_fault(corpus, normalize, workers):
    names = [ds.name for ds in corpus]
    targets = [ds.name for ds in corpus if ds.project == corpus.datasets[0].project]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_corpus(corpus, tmp / "corpus")
        (tmp / "quoted").mkdir()
        for path in (tmp / "corpus").iterdir():
            with open(tmp / "quoted" / path.name, "w", newline="", encoding="utf-8") as out:
                csv.writer(out, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(
                    csv.reader(io.StringIO(path.read_text(encoding="utf-8"), newline="")))
        commands = [["quality", "--pairs"], ["clean"]] + [
            ["select", "--target", targets[0], "--filter", *flags] for flags in (["global"],
                ["burak"], ["burak", "--raw-distance"], ["peters"], ["peters", "--raw-distance"])]
        for learner in LEARNER_NAMES:  # alone, so that one's error hides no other's run
            config = tmp / f"{learner}.cfg"
            config.write_text(f"corpus = {tmp / 'corpus'}\ntargets = {', '.join(targets)}\n"
                              f"learners = {learner}\nforest_trees = 3\nnormalize = {normalize}\n")
            commands.append(["experiment", "--config", str(config)])
        for i, args in enumerate(commands):
            outcomes = []
            for copy, count in (("corpus", 1), ("quoted", workers)):
                source = [] if args[0] == "experiment" else ["--corpus", str(tmp / copy)]
                outcomes.append(run(*args, *source, "--out", str(tmp / f"{i}.{copy}" / "out"),
                                    names=names, workers=count))
            assert outcomes[0] == outcomes[1]
            assert written(tmp / f"{i}.corpus") == written(tmp / f"{i}.quoted")
