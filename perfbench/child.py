"""One iteration of one workload, timed from the start of its own process.

Run by ``run.py``; not meant to be started by hand.  The parent passes the
``time.monotonic()`` reading taken just before it started this process, so
``setup_s`` and ``wall_s`` include interpreter start-up and imports (on
Linux that clock is system-wide).  The package is imported only after the
speed probe (``speed.py``) has started, so its import is measured too.  The
timed part ends when the workload's outputs are written; peak RSS is read
there too.  The output checks (with ``--check``) and the digests run
afterwards, untimed and untraced.  The last line of standard output is one
JSON record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time
from pathlib import Path

from speed import SpeedProbe

#: experiment settings of the grid-style workloads (see README.md for why)
EXPERIMENTS = {
    "grid": {
        "targets": ("ant1.7",),
        "filters": ("global", "burak", "peters"),
        "learners": ("naive_bayes", "decision_tree", "random_forest"),
        "sample_cap": 40,
        "forest_trees": 5,
    },
    "select": {
        "targets": ("ant1.7",),
        "filters": ("burak", "peters"),
        "learners": ("naive_bayes",),
        "sample_cap": 2000,
    },
}

WORKLOADS = (*EXPERIMENTS, "corpus")


def run_experiment_workload(workload: str, corpus, out: Path, seed: int) -> int:
    """The body of ``defectclean experiment``; returns the scored cells."""
    from defectclean import harness, reports

    config = harness.ExperimentConfig(corpus_dir=None, seed=seed, **EXPERIMENTS[workload])
    run = harness.run_experiment(config, corpus)
    reports.write_experiment_reports(run, out)
    return sum(
        score is not None
        for r in run.results if r.metric == "fmeasure"
        for score in (r.original, r.cleaned)
    )


def run_corpus_workload(corpus, out: Path) -> int:
    """The bodies of ``defectclean quality --pairs`` and ``defectclean clean``;
    returns the cases carried through."""
    from defectclean import cleaning, data, quality, reports

    within, cross = quality.corpus_quality(corpus, include_pairs=True)
    reports.write_quality_reports(within, cross, out / "quality")
    cleaned, summary = cleaning.clean_corpus(corpus)
    data.write_corpus(cleaned, out / "cleaned")
    reports.write_clean_summary(summary, out / "cleaned")
    return sum(ds.case_count for ds in corpus)


class Checks:
    """Counts output checks; keeps the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def check_experiment(workload: str, out: Path, checks: Checks) -> None:
    """Re-read results.json and check every row of it."""
    from defectclean import harness

    settings = EXPERIMENTS[workload]
    rows = json.loads((out / "results.json").read_text(encoding="utf-8"))["results"]
    expected = (
        len(settings["targets"]) * len(settings["filters"])
        * len(settings["learners"]) * len(harness.METRICS)
    )
    checks.expect(len(rows) == expected, f"{len(rows)} result rows, expected {expected}")
    for r in rows:
        cell = f"{r['target']}/{r['filter']}/{r['learner']}/{r['metric']}"
        scores = (r["original"], r["cleaned"])
        checks.expect(
            None not in scores or bool(r["note"]), f"{cell}: undefined score without a note"
        )
        checks.expect(
            all(0.0 <= s <= 1.0 for s in scores if s is not None),
            f"{cell}: score outside [0, 1]: {scores}",
        )
        for variant, sel in r["provenance"]["selection"].items():
            if sel is not None:
                checks.expect(
                    sel["selection_size"] <= sel["pool_size"],
                    f"{cell}/{variant}: selection larger than its pool",
                )


def check_corpus(corpus, out: Path, checks: Checks) -> None:
    """Re-parse the cleaned CSVs: each must be problem-free and hold
    exactly the loaded cases minus the removed ones."""
    from defectclean import data, quality

    cleaned_dir = out / "cleaned"
    summary = json.loads((cleaned_dir / "clean_summary.json").read_text(encoding="utf-8"))
    removed = {row["dataset"]: row["removed_cases"] for row in summary["datasets"]}
    within = json.loads((out / "quality" / "quality.json").read_text(encoding="utf-8"))
    reported = {row["dataset"]: row["cases"] for row in within["within"]}
    for ds in corpus:
        checks.expect(
            reported.get(ds.name) == ds.case_count,
            f"{ds.name}: quality.json reports {reported.get(ds.name)} cases",
        )
        path = cleaned_dir / f"{ds.name}.csv"
        with open(path, newline="", encoding="utf-8") as handle:
            try:
                parsed = data.parse_dataset(handle, name=ds.name)
            except data.EmptyDatasetError:
                parsed = ds.replace_cases(())
        want = ds.case_count - removed.get(ds.name, 0)
        checks.expect(
            parsed.case_count == want,
            f"{ds.name}: {parsed.case_count} cleaned cases, expected {want}",
        )
        report = quality.within_quality(parsed)
        checks.expect(report.problem_free, f"{ds.name}: cleaned output has problem cases")


def output_digests(workload: str, out: Path) -> dict[str, str]:
    """SHA-256 of the outputs that must not change between runs."""
    from twin import tree_digest

    def sha(path: Path) -> str:
        return hashlib.sha256(path.read_bytes()).hexdigest()

    if workload == "corpus":
        return {
            "cleaned/*.csv": tree_digest(out / "cleaned"),
            "clean_summary.json": sha(out / "cleaned" / "clean_summary.json"),
            "quality.json": sha(out / "quality" / "quality.json"),
        }
    return {
        name: sha(out / name)
        for name in ("results.json", "fmeasure_change.csv", "auc_change.csv")
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--twin", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--t0", required=True, type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true", help="also check the outputs")
    args = parser.parse_args()
    probe = SpeedProbe()
    from defectclean import data

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.record("startup.import", args.t0, time.monotonic())

    corpus = data.load_corpus(args.twin)
    loaded = time.monotonic()
    if args.workload == "corpus":
        items = run_corpus_workload(corpus, args.out)
    else:
        items = run_experiment_workload(args.workload, corpus, args.out, args.seed)
    done = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe.stop()

    record = {
        "traced": args.trace,
        "setup_s": probe.scaled(args.t0, loaded),
        "wall_s": probe.scaled(args.t0, done),
        "body_s": probe.scaled(loaded, done),
        "raw_setup_s": loaded - args.t0,
        "raw_wall_s": done - args.t0,
        "raw_body_s": done - loaded,
        "median_slowdown": sorted(probe.factors)[len(probe.factors) // 2],
        "items": items,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        tracer.active = False
        record["layers"] = spans.layer_metrics(
            tracer.spans, probe.scaled, wall=(args.t0, done), body=(loaded, done)
        )

    checks = Checks()
    if args.check and args.workload == "corpus":
        check_corpus(corpus, args.out, checks)
    elif args.check:
        check_experiment(args.workload, args.out, checks)
    record["checks_attempted"] = checks.attempted
    record["check_failures"] = checks.failures[:10]
    record["checks_failed"] = len(checks.failures)
    record["digests"] = output_digests(args.workload, args.out)
    print(json.dumps(record, sort_keys=True))


if __name__ == "__main__":
    main()
