"""
Picking cross-project training data with relevancy filters
==========================================================

Cross-project prediction trains on other projects' cases.  Throwing the
whole pool at a learner is one option; the two classic alternatives select
a target-relevant subset first:

* global: everything in the pool.
* burak: for each target case, its k nearest pool cases (Euclidean), union.
* peters: k-means over pool+target; keep clusters containing target cases,
  attach each pool case to its nearest target case in the cluster, then let
  each target case pick its nearest attached pool case.
"""

from collections import Counter

from defectclean.datagen import synthetic_corpus
from defectclean.selection import FILTERS, build_pool, select_training_data

corpus = synthetic_corpus(seed=3)
target = corpus.get("gamma1.0")

# The pool is every case from every other project, in corpus order.  Strict
# mode also shuts out older releases of the target's own project.
pool = build_pool(corpus, target, mode="strict")
origin, _ = pool.origins  # each pool row's dataset name (and row there)
print(f"target {target.name}: {target.case_count} cases, "
      f"pool {len(pool)} cases from {sorted(set(origin))}")

for name in FILTERS:
    selection = select_training_data(name, pool, target, k=10, seed=0)
    origins = Counter(origin[list(selection.selected)])
    print(f"{name:<7} selected {len(selection):>3} cases  {dict(origins)}")

# Distances run over min-max scaled features by default (scaled over pool
# and target together); normalize=False uses raw metric values instead.
raw = select_training_data("burak", pool, target, k=10, seed=0, normalize=False)
scaled = select_training_data("burak", pool, target, k=10, seed=0)
overlap = len(set(raw.selected) & set(scaled.selected))
print(f"\nburak raw vs scaled distance: {overlap} shared picks of "
      f"{len(raw)} / {len(scaled)}")

# Every selection records the parameters that produced it, including the
# fallback flag peters raises when no retained cluster holds pool cases.
peters = select_training_data("peters", pool, target, seed=0)
print(f"peters parameters: {dict(peters.parameters)}")
