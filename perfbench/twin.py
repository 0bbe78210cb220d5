"""Seeded synthetic twin of the 65-release class-level defect corpus.

The public corpus is not in the repository, so the benchmark runs on a
twin built from its published statistics (``tests/_reference_tables.py``):

* every release keeps its name and its exact case count from
  ``ORIGINAL_SIZES``;
* identical and inconsistent rows are injected through
  :func:`defectclean.datagen.synthetic_dataset` at rates derived from
  ``PROBLEM_COUNTS``;
* the base defect rate is chosen so the expected defective count matches
  ``ORIGINAL_SIZES``.

A flipped copy removes its source and itself when cleaned, and one of the
two is defective, so flips are capped at half the release's defective
count.  Duplicates are scaled by :data:`DUPLICATE_SCALE`, tuned so that
``clean_corpus`` removes about the published 40,575 cases in total.

The twin is a pure function of the seed.  It is written once per seed under
the cache directory and re-used; its SHA-256 digest covers every CSV byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
from pathlib import Path

from tests._reference_tables import CLEANED_SIZES, ORIGINAL_SIZES, PROBLEM_COUNTS

#: duplicates injected per published identical case, over the naive 1/2
DUPLICATE_SCALE = 1.35

PUBLISHED_CASES = sum(cases for cases, _ in ORIGINAL_SIZES.values())
PUBLISHED_DEFECTIVE = sum(defective for _, defective in ORIGINAL_SIZES.values())
PUBLISHED_REMOVED = sum(row[1] for row in CLEANED_SIZES.values())


def release_plan(name: str) -> tuple[int, float, int, int]:
    """(base cases, base defect rate, duplicate copies, flipped copies)."""
    cases, defective = ORIGINAL_SIZES[name]
    inconsistent, identical = PROBLEM_COUNTS[name]
    flips = min(round(inconsistent / 2), defective // 2)
    dups = round(DUPLICATE_SCALE * identical / 2)
    base = cases - flips - dups
    if base < 1:
        raise ValueError(f"{name}: injection leaves no base cases")
    # expected defective = rate * (base + dups) + (1 - rate) * flips
    rate = (defective - flips) / max(1, base + dups - flips)
    return base, min(1.0, max(0.0, rate)), dups, flips


def build_twin(seed: int):
    """The twin corpus for one seed, as a :class:`defectclean.data.Corpus`."""
    from defectclean.data import Corpus
    from defectclean.datagen import synthetic_dataset
    from defectclean.rng import derive_seed

    datasets = []
    for name in sorted(ORIGINAL_SIZES):
        base, rate, dups, flips = release_plan(name)
        ds = synthetic_dataset(
            name,
            seed=derive_seed(seed, "twin", name),
            cases=base,
            defect_rate=rate,
            duplicate_rate=dups / base,
            inconsistent_rate=flips / base,
        )
        if ds.case_count != ORIGINAL_SIZES[name][0]:
            raise ValueError(
                f"{name}: twin has {ds.case_count} cases, "
                f"expected {ORIGINAL_SIZES[name][0]}"
            )
        datasets.append(ds)
    return Corpus(tuple(datasets))


def tree_digest(directory: Path, pattern: str = "*.csv") -> str:
    """SHA-256 over the names and bytes of the matching files, name order."""
    digest = hashlib.sha256()
    for path in sorted(directory.glob(pattern)):
        digest.update(path.name.encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _generator_key(root: Path) -> str:
    """Digest of the code the twin depends on, so stale caches are rebuilt."""
    digest = hashlib.sha256()
    for rel in (
        "perfbench/twin.py",
        "tests/_reference_tables.py",
        "src/defectclean/datagen.py",
        "src/defectclean/data.py",
        "src/defectclean/rng.py",
    ):
        digest.update((root / rel).read_bytes())
    return digest.hexdigest()


def ensure_twin(seed: int, root: Path, cache: Path) -> tuple[Path, dict]:
    """Return the twin directory for ``seed`` and its fidelity record,
    generating both when they are missing or stale."""
    from defectclean.cleaning import clean_corpus
    from defectclean.data import write_corpus

    key = _generator_key(root)
    target = cache / f"twin-{seed}"
    info_path = target / "twin.json"
    if info_path.is_file():
        info = json.loads(info_path.read_text(encoding="utf-8"))
        if info.get("generator_key") == key:
            return target / "corpus", info
        shutil.rmtree(target)

    corpus = build_twin(seed)
    _, summary = clean_corpus(corpus)
    cases = sum(ds.case_count for ds in corpus)
    defective = sum(ds.defective_count for ds in corpus)
    removed = sum(row.removed_cases for row in summary)

    tmp = cache / f".twin-{seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    write_corpus(corpus, tmp / "corpus")
    info = {
        "seed": seed,
        "generator_key": key,
        "digest": tree_digest(tmp / "corpus"),
        "releases": len(corpus),
        "cases": cases,
        "defective": defective,
        "removed_by_clean": removed,
        "published_cases": PUBLISHED_CASES,
        "published_defective": PUBLISHED_DEFECTIVE,
        "published_removed": PUBLISHED_REMOVED,
        "removed_gap": (removed - PUBLISHED_REMOVED) / PUBLISHED_REMOVED,
        "defective_gap": (defective - PUBLISHED_DEFECTIVE) / PUBLISHED_DEFECTIVE,
    }
    (tmp / "twin.json").write_text(json.dumps(info, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, target)
    return target / "corpus", info


def main() -> None:
    parser = argparse.ArgumentParser(description="build or re-use the twin for one seed")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--cache", required=True, type=Path)
    args = parser.parse_args()
    corpus_dir, info = ensure_twin(args.seed, args.root, args.cache)
    print(json.dumps({"corpus_dir": str(corpus_dir), **info}, sort_keys=True))


if __name__ == "__main__":
    main()
