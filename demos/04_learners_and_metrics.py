"""
The three learners and the two scores
=====================================

Everything a defect model needs here is self-contained: Gaussian naive
Bayes, a gain-ratio decision tree with pessimistic pruning, and a bagging
forest of unpruned trees.  Each model scores a case with the probability it
is defective; predict() flags it as defective when the score exceeds 0.5,
so an exact 0.5 tie counts as defect-free.
"""

import numpy as np

from defectclean.datagen import synthetic_dataset
from defectclean.evaluation import ConfusionMatrix, auc, f_measure
from defectclean.learners import LEARNER_NAMES, predict, train
from defectclean.learners.base import TrainingMatrix

train_ds = synthetic_dataset("alpha1.0", seed=1, cases=240, defect_rate=0.35)
test_ds = synthetic_dataset("beta1.0", seed=2, cases=120, defect_rate=0.35)

fit_data = TrainingMatrix(train_ds.feature_matrix, train_ds.labels)
test_data = TrainingMatrix(test_ds.feature_matrix, test_ds.labels)
truth = test_data.y

# 25 trees keep the demo quick; the experiment default is 100.
TREES = 25

print(f"train {fit_data.X.shape}, test {test_data.X.shape}, "
      f"{int(fit_data.y.sum())} defective in training")
print(f"{'learner':<14} {'F-measure':>9} {'AUC':>7}")
for name in LEARNER_NAMES:
    model = train(name, fit_data, seed=0, trees=TREES)
    predicted, scores = predict(model, test_data.X)
    cm = ConfusionMatrix.from_predictions(truth, predicted)
    area = auc(scores, truth)
    print(f"{name:<14} {f_measure(cm):>9.3f} {area:>7.3f}")

# Scores are deterministic: same data, same seed, same forest.  Each tree
# draws its bootstrap sample and its per-node feature subsets from a
# generator keyed by (seed, tree index), so a run never needs to store a
# model to reproduce its scores: it retrains.
a = train("random_forest", fit_data, seed=42, trees=TREES)
b = train("random_forest", fit_data, seed=42, trees=TREES)
assert np.array_equal(a.predict_proba(test_data.X),
                      b.predict_proba(test_data.X))
print(f"\nretrained forest: {len(a.trees)} trees, {a.node_count} nodes, equal scores")

# AUC is rank based (Mann-Whitney with average ranks for ties), the same
# number as the trapezoid under the ROC curve but cheaper to compute.  It
# needs both classes in the test set.
single = auc(np.ones(5), np.ones(5, dtype=bool))
print(f"AUC on a single-class test set is undefined: {single}")
