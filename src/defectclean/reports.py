"""Report emission: quality tables, cleaning summaries, experiment grids.

All emitters are deterministic: given equal inputs they produce byte-equal
files.  CSV cells carry full-precision ``repr`` floats (so averages can be
recomputed exactly from the file); markdown rounds to two decimals for
reading.  Undefined values render as ``n/a`` and never enter averages.
Every file, and the ``select`` command's ``--out`` JSON, is written through
:func:`_write`: whole, to a temp file next to it, then renamed over the
target, so a crash leaves either the previous report or the new one, never
a half-written file.
"""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path
from typing import Iterable, Sequence

from .cleaning import CleanSummaryRow
from .evaluation import average_change
from .harness import ExperimentRun, METRICS
from .quality import CrossReleaseReport, WithinQualityReport


def _float_cell(value: float | None) -> str:
    return "n/a" if value is None else repr(float(value))


def _round_cell(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.2f}"


def _write(path: Path, content: str | dict) -> Path:
    """Write text, or a JSON payload (sorted keys, two-space indent, final
    newline), to ``path`` through a temp file and an atomic rename."""
    if isinstance(content, dict):
        content = json.dumps(content, indent=2, sort_keys=True) + "\n"
    temp = path.with_name(f".{path.name}.tmp")
    try:
        temp.write_text(content, encoding="utf-8")
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)  # gone already after a successful rename
    return path


def _markdown_table(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- quality

def quality_json(
    within: Sequence[WithinQualityReport], cross: Sequence[CrossReleaseReport]
) -> dict:
    return {
        "format": 1,
        "within": [
            {
                "dataset": r.dataset,
                "cases": r.case_count,
                "inconsistent_cases": r.inconsistent_case_count,
                "identical_cases": r.identical_case_count,
            }
            for r in within
        ],
        "cross_release": [
            {
                "project": r.project,
                "release_a": r.release_a,
                "release_b": r.release_b,
                "identical_pairs": r.identical_pair_count,
                "inconsistent_pairs": r.inconsistent_pair_count,
            }
            for r in cross
        ],
    }


def quality_markdown(
    within: Sequence[WithinQualityReport], cross: Sequence[CrossReleaseReport]
) -> str:
    parts = ["# Data quality report", "", "## Within-release problem cases", ""]
    parts.append(
        _markdown_table(
            ("dataset", "cases", "inconsistent", "identical"),
            (
                (r.dataset, str(r.case_count), str(r.inconsistent_case_count),
                 str(r.identical_case_count))
                for r in within
            ),
        )
    )
    if cross:
        parts.extend(["", "## Cross-release problem pairs", ""])
        parts.append(
            _markdown_table(
                ("release 1", "release 2", "identical", "inconsistent"),
                (
                    (r.release_a, r.release_b, str(r.identical_pair_count),
                     str(r.inconsistent_pair_count))
                    for r in cross
                ),
            )
        )
    return "\n".join(parts)


def write_quality_reports(
    within: Sequence[WithinQualityReport],
    cross: Sequence[CrossReleaseReport],
    out_dir: str | Path,
) -> dict[str, Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return {
        "json": _write(out_dir / "quality.json", quality_json(within, cross)),
        "markdown": _write(out_dir / "quality.md", quality_markdown(within, cross)),
    }


# ---------------------------------------------------------------- cleaning

def clean_summary_json(rows: Sequence[CleanSummaryRow]) -> dict:
    return {
        "format": 1,
        "datasets": [
            {
                "dataset": r.dataset,
                "cases": r.case_count,
                "removed_cases": r.removed_cases,
                "defective": r.defective_count,
                "removed_defective": r.removed_defective,
            }
            for r in rows
        ],
    }


def clean_summary_markdown(rows: Sequence[CleanSummaryRow]) -> str:
    table = _markdown_table(
        ("dataset", "cases", "removed", "defective", "removed defective"),
        (
            (r.dataset, str(r.case_count), str(r.removed_cases),
             str(r.defective_count), str(r.removed_defective))
            for r in rows
        ),
    )
    return "# Cleaning summary (post-cleaning counts)\n\n" + table


def write_clean_summary(
    rows: Sequence[CleanSummaryRow], out_dir: str | Path
) -> dict[str, Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return {
        "json": _write(out_dir / "clean_summary.json", clean_summary_json(rows)),
        "markdown": _write(out_dir / "clean_summary.md", clean_summary_markdown(rows)),
    }


# -------------------------------------------------------------- experiment

def _grid_columns(run: ExperimentRun) -> list[tuple[str, str]]:
    return [
        (learner, filter_name)
        for learner in run.config.learners
        for filter_name in run.config.filters
    ]


def _grid_rows(
    run: ExperimentRun, metric: str
) -> tuple[list[str], dict[tuple[str, tuple[str, str]], float | None], list[float | None]]:
    """Targets in report order, change rates per (target, column), and the
    per-column averages of :func:`average_change`."""
    changes: dict[tuple[str, tuple[str, str]], float | None] = {}
    targets: list[str] = []
    for result in run.results:
        if result.metric != metric:
            continue
        if result.target not in targets:
            targets.append(result.target)
        changes[(result.target, (result.learner, result.filter_name))] = result.change_percent
    averages = [
        average_change(changes[(t, column)] for t in targets if (t, column) in changes)
        for column in _grid_columns(run)
    ]
    return targets, changes, averages


def experiment_grid_csv(run: ExperimentRun, metric: str) -> str:
    columns = _grid_columns(run)
    targets, cells, averages = _grid_rows(run, metric)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["target"] + [f"{l}/{f}" for l, f in columns])
    for target in targets:
        writer.writerow(
            [target] + [_float_cell(cells.get((target, c))) for c in columns]
        )
    if targets:
        writer.writerow(["AVG"] + [_float_cell(v) for v in averages])
    return buffer.getvalue()


def experiment_grid_markdown(run: ExperimentRun, metric: str) -> str:
    columns = _grid_columns(run)
    targets, cells, averages = _grid_rows(run, metric)
    header = ["target"] + [f"{l}/{f}" for l, f in columns]
    rows = [
        [target] + [_round_cell(cells.get((target, c))) for c in columns]
        for target in targets
    ]
    if targets:
        rows.append(["AVG"] + [_round_cell(v) for v in averages])
    title = {"fmeasure": "F-measure", "auc": "AUC"}.get(metric, metric)
    return (
        f"# Rate of {title} change after cleaning (%)\n\n"
        + _markdown_table(header, rows)
    )


def experiment_json(run: ExperimentRun) -> dict:
    return {
        "format": 1,
        "config": run.config.as_dict(),
        "dataset_sizes": {k: dict(v) for k, v in run.dataset_sizes.items()},
        "results": [
            {
                "target": r.target,
                "filter": r.filter_name,
                "learner": r.learner,
                "metric": r.metric,
                "original": r.original,
                "cleaned": r.cleaned,
                "change_percent": r.change_percent,
                "note": r.note,
                "provenance": r.provenance,
            }
            for r in run.results
        ],
    }


def write_experiment_reports(run: ExperimentRun, out_dir: str | Path) -> dict[str, Path]:
    """Write fmeasure_change.{csv,md}, auc_change.{csv,md} and results.json.

    Re-running an identical experiment rewrites byte-identical files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    stems = {"fmeasure": "fmeasure_change", "auc": "auc_change"}
    for metric in METRICS:
        stem = out_dir / stems[metric]
        paths[f"{metric}_csv"] = _write(
            stem.with_suffix(".csv"), experiment_grid_csv(run, metric))
        paths[f"{metric}_markdown"] = _write(
            stem.with_suffix(".md"), experiment_grid_markdown(run, metric))
    paths["json"] = _write(out_dir / "results.json", experiment_json(run))
    return paths
