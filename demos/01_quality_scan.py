"""
Finding identical and inconsistent cases in a defect corpus
===========================================================

A case is a java class described by 20 static code metrics plus a
defective/defect-free label.  Two cases are *identical* when all 20 metrics
and the label agree; they are *inconsistent* when the metrics agree but the
labels differ.  Both kinds inflate or contradict the training signal, so the
first step of any study on this data should be counting them.
"""

import numpy as np

from defectclean.data import Corpus, Dataset
from defectclean.datagen import synthetic_corpus, synthetic_dataset
from defectclean.quality import corpus_quality, within_quality

# A small five-release corpus with problems injected on purpose.  Swap this
# for load_corpus("data/jureczko") to scan the real thing.
corpus = synthetic_corpus(seed=7, duplicate_rate=0.2, inconsistent_rate=0.1)

print("within-release scan")
print(f"{'dataset':<12} {'cases':>5} {'inconsistent':>12} {'identical':>10}")
for ds in corpus:
    report = within_quality(ds)
    print(f"{ds.name:<12} {report.case_count:>5} "
          f"{report.inconsistent_case_count:>12} {report.identical_case_count:>10}")

# The counts are case counts: every member of a qualifying feature group is
# counted, so they can never be exactly 1.
worst = max((within_quality(ds) for ds in corpus),
            key=lambda r: r.inconsistent_case_count)
print(f"\nmost conflicted dataset: {worst.dataset}")
# A dataset numbers its distinct metric vectors by first occurrence
# (feature_ids gives each case's group and each group's first row) and
# counts each group's clean and defective cases (label_counts); a group is
# inconsistent when both of its counts are nonzero.
ds = corpus.get(worst.dataset)
ids, _ = ds.feature_ids
mixed = [np.flatnonzero(ids == g) for g in np.flatnonzero(ds.label_counts.all(1))]
for rows in mixed[:3]:
    labels = ["defective" if d else "clean" for d in ds.labels[rows]]
    print(f"  rows {rows.tolist()} share one metric vector "
          f"but are labelled {labels}")

# Releases of the same project overlap heavily because most classes do not
# change between versions, which matters if you plan to mix releases in one
# training pool.  Model that here: delta1.1 carries 25 classes over from
# delta1.0 unchanged, relabels 5 of them, and adds 30 new ones.
# A release is built from plain (class name, 20 metric values, bug count)
# rows.
def rows_of(ds: Dataset) -> list[tuple]:
    return [(name, tuple(ds.values[i] for i in ids), bugs) for name, ids, bugs
            in zip(ds.class_names, ds.value_ids.tolist(), ds.bug_counts.tolist())]


old = synthetic_dataset("delta1.0", seed=41, cases=50)
carried = rows_of(old.take(range(25)))
for i in range(5):
    name, metrics, bugs = carried[i]
    carried[i] = (name, metrics, 0 if bugs else 1)
new = synthetic_dataset("delta1.1", seed=42, cases=30)
evolved = Dataset.from_cases("delta1.1", carried + rows_of(new))
project = Corpus((old, evolved))

# Pair counts are cross products: a metric vector seen a times in release A
# and b times in release B contributes a*b pairs.
print("\ncross-release scan (same project only)")
_, cross = corpus_quality(project, include_pairs=True)
for pair in cross:
    print(f"{pair.project}: {pair.release_a} vs {pair.release_b}: "
          f"{pair.identical_pair_count} identical pairs, "
          f"{pair.inconsistent_pair_count} inconsistent pairs")
