"""Report emission: quality tables, cleaning summaries, experiment grids.

All emitters are deterministic: given equal inputs they produce byte-equal
files.  CSV cells carry full-precision ``repr`` floats (so averages can be
recomputed exactly from the file); markdown rounds to two decimals for
reading.  Undefined values render as ``n/a`` and never enter averages.
Every file, and the ``select`` command's ``--out`` JSON, is written through
:func:`write_report`, which uses :func:`defectclean.data.atomic_writer`: a
crash leaves either the previous report or the new one, never a
half-written file.  Each quality and cleaning table is declared once, as a
column list that both its JSON and its markdown render from; the
experiment's result rows render to JSON from a column list too.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .cleaning import CleanResult
from .data import atomic_writer
from .evaluation import average_change
from .harness import ExperimentRun, METRICS
from .quality import CrossReleaseReport, WithinQualityReport

#: one table column: JSON key, markdown header (None: JSON only) and the
#: attribute of the report row it shows
Column = tuple[str, str | None, str]


def json_text(payload: dict) -> str:
    """A JSON payload as report text: sorted keys, two-space indent, final
    newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_report(path: Path, content: str | dict) -> Path:
    """Write text, or a JSON payload as :func:`json_text`, atomically to
    ``path``."""
    with atomic_writer(path) as stream:
        stream.write(content if isinstance(content, str) else json_text(content))
    return path


def _write_reports(
    out_dir: str | Path, files: dict[str, tuple[str, str | dict]]
) -> dict[str, Path]:
    """Create ``out_dir`` and write each ``key: (file name, content)`` into
    it; returns the paths by key."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return {key: write_report(out_dir / name, content) for key, (name, content) in files.items()}


def _float_cell(value: float | None) -> str:
    return "n/a" if value is None else repr(float(value))


def _round_cell(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.2f}"


def _markdown_table(rows: Sequence[Sequence[str]]) -> str:
    """Rows of text cells as a markdown table; the first row is the header."""
    header, *body = rows
    return "".join(
        "| " + " | ".join(row) + " |\n" for row in [header, ["---"] * len(header), *body]
    )


def _records(columns: Sequence[Column], rows: Iterable[object]) -> list[dict]:
    return [{key: getattr(row, attr) for key, _, attr in columns} for row in rows]


def _table(columns: Sequence[Column], rows: Iterable[object]) -> str:
    shown = [(header, attr) for _, header, attr in columns if header is not None]
    return _markdown_table([
        [header for header, _ in shown],
        *([str(getattr(row, attr)) for _, attr in shown] for row in rows),
    ])


# ---------------------------------------------------------------- quality

_WITHIN_COLUMNS: tuple[Column, ...] = (
    ("dataset", "dataset", "dataset"),
    ("cases", "cases", "case_count"),
    ("inconsistent_cases", "inconsistent", "inconsistent_case_count"),
    ("identical_cases", "identical", "identical_case_count"),
)

_CROSS_COLUMNS: tuple[Column, ...] = (
    ("project", None, "project"),
    ("release_a", "release 1", "release_a"),
    ("release_b", "release 2", "release_b"),
    ("identical_pairs", "identical", "identical_pair_count"),
    ("inconsistent_pairs", "inconsistent", "inconsistent_pair_count"),
)


def quality_json(
    within: Sequence[WithinQualityReport], cross: Sequence[CrossReleaseReport]
) -> dict:
    return {
        "format": 1,
        "within": _records(_WITHIN_COLUMNS, within),
        "cross_release": _records(_CROSS_COLUMNS, cross),
    }


def quality_markdown(
    within: Sequence[WithinQualityReport], cross: Sequence[CrossReleaseReport]
) -> str:
    parts = ["# Data quality report", "", "## Within-release problem cases", ""]
    parts.append(_table(_WITHIN_COLUMNS, within))
    if cross:
        parts.extend(["", "## Cross-release problem pairs", ""])
        parts.append(_table(_CROSS_COLUMNS, cross))
    return "\n".join(parts)


def write_quality_reports(
    within: Sequence[WithinQualityReport],
    cross: Sequence[CrossReleaseReport],
    out_dir: str | Path,
) -> dict[str, Path]:
    return _write_reports(out_dir, {
        "json": ("quality.json", quality_json(within, cross)),
        "markdown": ("quality.md", quality_markdown(within, cross)),
    })


# ---------------------------------------------------------------- cleaning

_CLEAN_COLUMNS: tuple[Column, ...] = (
    ("dataset", "dataset", "dataset"),
    ("cases", "cases", "case_count"),
    ("removed_cases", "removed", "removed_cases"),
    ("defective", "defective", "defective_count"),
    ("removed_defective", "removed defective", "removed_defective"),
)


def clean_summary_json(rows: Sequence[CleanResult]) -> dict:
    return {"format": 1, "datasets": _records(_CLEAN_COLUMNS, rows)}


def clean_summary_markdown(rows: Sequence[CleanResult]) -> str:
    return "# Cleaning summary (post-cleaning counts)\n\n" + _table(_CLEAN_COLUMNS, rows)


def write_clean_summary(
    rows: Sequence[CleanResult], out_dir: str | Path
) -> dict[str, Path]:
    return _write_reports(out_dir, {
        "json": ("clean_summary.json", clean_summary_json(rows)),
        "markdown": ("clean_summary.md", clean_summary_markdown(rows)),
    })


# -------------------------------------------------------------- experiment

def _grid(
    run: ExperimentRun, metric: str, cell: Callable[[float | None], str]
) -> list[list[str]]:
    """The change grid of one metric as rows of text: the header, one row
    per target in report order, then (when there is a target) the per-column
    averages of :func:`average_change`.  ``cell`` formats each rate."""
    columns = [(l, f) for l in run.config.learners for f in run.config.filters]
    changes: dict[str, dict[tuple[str, str], float | None]] = {}
    for r in run.results:
        if r.metric == metric:
            changes.setdefault(r.target, {})[(r.learner, r.filter_name)] = r.change_percent
    rows = [["target"] + [f"{l}/{f}" for l, f in columns]]
    rows += [[target] + [cell(row.get(c)) for c in columns] for target, row in changes.items()]
    if changes:
        rows.append(["AVG"] + [
            cell(average_change(row[c] for row in changes.values() if c in row))
            for c in columns
        ])
    return rows


def experiment_grid_csv(run: ExperimentRun, metric: str) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(_grid(run, metric, _float_cell))
    return buffer.getvalue()


def experiment_grid_markdown(run: ExperimentRun, metric: str) -> str:
    title = {"fmeasure": "F-measure", "auc": "AUC"}.get(metric, metric)
    return (
        f"# Rate of {title} change after cleaning (%)\n\n"
        + _markdown_table(_grid(run, metric, _round_cell))
    )


_RESULT_COLUMNS: tuple[Column, ...] = (
    ("target", None, "target"),
    ("filter", None, "filter_name"),
    ("learner", None, "learner"),
    ("metric", None, "metric"),
    ("original", None, "original"),
    ("cleaned", None, "cleaned"),
    ("change_percent", None, "change_percent"),
    ("note", None, "note"),
    ("provenance", None, "provenance"),
)


def experiment_json(run: ExperimentRun) -> dict:
    return {
        "format": 1,
        "config": run.config.as_dict(),
        "dataset_sizes": {k: dict(v) for k, v in run.dataset_sizes.items()},
        "results": _records(_RESULT_COLUMNS, run.results),
    }


def write_experiment_reports(run: ExperimentRun, out_dir: str | Path) -> dict[str, Path]:
    """Write fmeasure_change.{csv,md}, auc_change.{csv,md} and results.json.

    Re-running an identical experiment rewrites byte-identical files.
    """
    files: dict[str, tuple[str, str | dict]] = {}
    for metric in METRICS:
        files[f"{metric}_csv"] = (f"{metric}_change.csv", experiment_grid_csv(run, metric))
        files[f"{metric}_markdown"] = (f"{metric}_change.md", experiment_grid_markdown(run, metric))
    files["json"] = ("results.json", experiment_json(run))
    return _write_reports(out_dir, files)
