"""Command-line interface.

Subcommands:

* ``quality``: within-release (and optionally cross-release) problem-case
  reports for a corpus directory.
* ``clean``: write the cleaned corpus plus a removal summary.
* ``select``: run one training-data filter for one target and print the
  selection as JSON.
* ``experiment``: run a configured original-vs-cleaned experiment grid and
  write the change-rate reports.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import __version__
from .cleaning import clean_corpus
from .data import Dataset, ParseError, load_corpus, load_dataset, read_text, write_corpus
from .harness import parse_config, run_experiment
from .quality import corpus_quality, within_quality
from .reports import (
    json_text,
    write_clean_summary,
    write_experiment_reports,
    write_quality_reports,
    write_report,
)
from .selection import (
    DEFAULT_NEIGHBOURS, FILTERS, build_pool, check_cluster_count, select_training_data,
)


def _add_corpus_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--corpus", required=True, type=Path,
        help="directory of dataset CSV files",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defectclean",
        description="Clean class-level defect datasets and measure the "
                    "effect on cross-project defect prediction.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log progress to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_quality = sub.add_parser(
        "quality", help="report identical and inconsistent cases"
    )
    _add_corpus_arg(p_quality)
    p_quality.add_argument(
        "--pairs", action="store_true",
        help="also compare release pairs within each project",
    )
    p_quality.add_argument(
        "--out", type=Path, default=Path("quality_report"),
        help="output directory (default: quality_report)",
    )

    p_clean = sub.add_parser(
        "clean", help="remove duplicate and inconsistent cases"
    )
    _add_corpus_arg(p_clean)
    p_clean.add_argument(
        "--out", required=True, type=Path,
        help="directory for the cleaned CSV files and summary",
    )

    p_select = sub.add_parser(
        "select", help="pick training data for one target dataset"
    )
    _add_corpus_arg(p_select)
    p_select.add_argument("--filter", required=True, choices=FILTERS)
    p_select.add_argument("--target", required=True, help="target dataset name")
    p_select.add_argument("--k", type=int, default=None,
                          help="neighbours per target case, for --filter burak and "
                               f"peters's fallback (default {DEFAULT_NEIGHBOURS})")
    p_select.add_argument("--clusters", type=int, default=None,
                          help="cluster count, --filter peters only (default: auto)")
    p_select.add_argument("--seed", type=int, default=None,
                          help="k-means seed, --filter peters only (default 0)")
    p_select.add_argument(
        "--raw-distance", action="store_true", default=None,
        help="skip min-max feature scaling for distances, --filter burak or peters",
    )
    p_select.add_argument(
        "--mixed", action="store_true",
        help="also admit the target project's older releases (by version number, init first)",
    )
    p_select.add_argument("--out", type=Path, default=None,
                          help="write the JSON here instead of stdout")

    p_experiment = sub.add_parser(
        "experiment", help="run the original-vs-cleaned comparison grid"
    )
    p_experiment.add_argument(
        "--config", required=True, type=Path,
        help="key = value config file (see README)",
    )
    p_experiment.add_argument(
        "--out", type=Path, default=Path("experiment_report"),
        help="output directory (default: experiment_report)",
    )
    return parser


def _cmd_quality(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    within, cross = corpus_quality(corpus, include_pairs=args.pairs)
    paths = write_quality_reports(within, cross, args.out)
    problems = sum(
        1 for r in within if r.identical_case_count or r.inconsistent_case_count
    )
    print(f"analysed {len(within)} datasets; {problems} contain problem cases")
    if args.pairs:
        print(f"compared {len(cross)} release pairs")
    for path in paths.values():
        print(f"wrote {path}")
    return 0


def _reads_back(path: Path, dataset: Dataset) -> bool:
    """Whether a written CSV loads as exactly ``dataset``."""
    try:
        return load_dataset(path) == dataset
    except ParseError:
        return False


def _cmd_clean(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    cleaned, summary = clean_corpus(corpus)

    # independent self-check: re-scan every cleaned dataset; any problem case
    # left means the cleaner is broken, so write nothing
    for ds in cleaned:
        if not within_quality(ds).problem_free:
            print(
                f"error: cleaned {ds.name} still contains identical or inconsistent cases",
                file=sys.stderr,
            )
            return 2

    # the files must read back case for case; the summary, written last,
    # is left out when one does not
    for ds, path in zip(cleaned, write_corpus(cleaned, args.out)):
        if not _reads_back(path, ds):
            print(f"error: {path.name} does not read back as cleaned {ds.name}", file=sys.stderr)
            return 2
    paths = write_clean_summary(summary, args.out)
    removed = sum(r.removed_cases for r in summary)
    print(f"cleaned {len(summary)} datasets; removed {removed} cases")
    print(f"wrote cleaned CSVs to {args.out}")
    for path in paths.values():
        print(f"wrote {path}")
    return 0


#: the filters each optional ``select`` flag applies to; a flag given (not
#: None) with any other filter is rejected
_SELECT_FLAG_FILTERS = {
    "clusters": ("peters",),
    "k": ("burak", "peters"),
    "seed": ("peters",),
    "raw_distance": ("burak", "peters"),
}


def _cmd_select(args: argparse.Namespace) -> int:
    for flag, filters in _SELECT_FLAG_FILTERS.items():
        if getattr(args, flag) is not None and args.filter not in filters:
            raise ValueError(
                f"--{flag.replace('_', '-')} applies only to --filter "
                f"{' or '.join(filters)}, not {args.filter!r}"
            )
    if args.k is not None and args.k < 1:
        raise ValueError(
            f"--k: {args.k} neighbours for target {args.target!r}; at least 1 is needed"
        )
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed: {args.seed} for target {args.target!r}; it must be at least 0")
    corpus = load_corpus(args.corpus)
    target = corpus.get(args.target)
    pool = build_pool(corpus, target, "mixed" if args.mixed else "strict")
    if args.clusters is not None:  # only set with --filter peters
        check_cluster_count(
            "--clusters", args.clusters, len(pool) + target.case_count,
            f"target {target.name!r} and its pool",
        )
    selection = select_training_data(
        args.filter, pool, target,
        k=DEFAULT_NEIGHBOURS if args.k is None else args.k, k_clusters=args.clusters,
        seed=0 if args.seed is None else args.seed,
        normalize=not args.raw_distance,
    )
    names, rows = pool.origins
    selected = selection.selected
    payload = {
        "filter": selection.filter_name,
        "target": target.name,
        "pool_size": len(pool),
        "parameters": dict(selection.parameters),
        "selected_count": len(selection),
        "selected": [
            {"pool_index": i, "origin": origin, "origin_row": row}
            for i, origin, row in zip(
                selected.tolist(), names[selected].tolist(), rows[selected].tolist()
            )
        ],
    }
    if args.out is None:
        sys.stdout.write(json_text(payload))
    else:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        print(f"wrote {write_report(args.out, payload)}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    text = read_text(args.config)  # a decode error names the file already
    try:
        config = parse_config(text, base_dir=args.config.parent)
        if config.corpus_dir is None:
            raise ValueError("missing key 'corpus'")
    except ValueError as exc:
        raise ValueError(f"{args.config.name}: {exc}") from None
    run = run_experiment(config)
    paths = write_experiment_reports(run, args.out)
    defined = sum(1 for r in run.results if r.change_percent is not None)
    print(
        f"{len(run.results)} result rows "
        f"({defined} with defined change rates), seed {config.seed}"
    )
    for path in paths.values():
        print(f"wrote {path}")
    return 0


_COMMANDS = {
    "quality": _cmd_quality,
    "clean": _cmd_clean,
    "select": _cmd_select,
    "experiment": _cmd_experiment,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
