"""Reference for the Gaussian naive Bayes learner.

``reference_naive_bayes`` restates the model in plain Python, one case
and one feature at a time: per-class means, then per-class population
variances from a second pass over the deviations, each floored at
:data:`VARIANCE_FLOOR`; Laplace-smoothed class priors; per-class log
joints, shifted by their maximum before they are exponentiated.  A
single-class training sample predicts its class with probability 1.
"""

from __future__ import annotations

import math

#: lower bound on a class's variance of a feature, so a constant feature
#: keeps a finite density
VARIANCE_FLOOR = 1e-9


def reference_naive_bayes(X, y, queries) -> list[float]:
    """The defective-class posterior of each query case under the Gaussian
    naive Bayes model trained on the cases ``X`` with labels ``y``."""
    cases = [[float(v) for v in row] for row in X]
    labels = [bool(v) for v in y]
    by_class = [[x for x, label in zip(cases, labels) if label == c] for c in (False, True)]
    if not by_class[0] or not by_class[1]:
        return [1.0 if by_class[1] else 0.0 for _ in queries]

    features = range(len(cases[0]))
    log_prior, means, variances = [], [], []
    for members in by_class:
        count = len(members)
        log_prior.append(math.log((count + 1) / (len(cases) + 2)))
        mean = [sum(x[j] for x in members) / count for j in features]
        means.append(mean)
        variances.append([
            max(sum((x[j] - mean[j]) ** 2 for x in members) / count, VARIANCE_FLOOR)
            for j in features
        ])

    posteriors = []
    for query in queries:
        joint = []
        for c in (0, 1):
            total = 0.0
            for j in features:
                var = variances[c][j]
                total += math.log(2.0 * math.pi * var) + (float(query[j]) - means[c][j]) ** 2 / var
            joint.append(log_prior[c] - 0.5 * total)
        top = max(joint)
        likelihoods = [math.exp(v - top) for v in joint]
        posteriors.append(likelihoods[1] / (likelihoods[0] + likelihoods[1]))
    return posteriors
