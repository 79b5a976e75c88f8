"""Ranking metrics: average precision and ROC-AUC.

Both are computed from ranks in O(n log n) numpy and are cross-checked in
the tests against naive quadratic definitions to 1e-12.
"""

from __future__ import annotations

import numpy as np

from .errors import UndefinedMetricError


def _validate(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise UndefinedMetricError("scores and labels must be equal-length 1-d")
    if scores.size == 0:
        raise UndefinedMetricError("no samples")
    if not np.all(np.isfinite(scores)):
        raise UndefinedMetricError("non-finite scores")
    labels = labels.astype(bool)
    return scores, labels


def average_precision(scores, labels) -> float:
    """Sum over score thresholds of recall gain times precision.

    One threshold per distinct score (the scikit-learn convention):
    AP = sum_t (#pos scored t / n_pos) * precision(score >= t).  Tied items
    share one threshold, so the result does not depend on input order;
    without ties it is the mean over positives of precision at that
    positive's rank.
    """
    scores, labels = _validate(scores, labels)
    if not labels.any():
        raise UndefinedMetricError("average precision needs at least one positive")
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    csum = np.cumsum(labels[order])
    # the last item of each run of equal scores closes one threshold
    ends = np.flatnonzero(np.r_[ranked[1:] != ranked[:-1], True])
    tp = csum[ends]
    gain = np.diff(tp, prepend=0)
    hit = gain > 0
    return float((gain[hit] * (tp[hit] / (ends[hit] + 1))).sum() / csum[-1])


def auc_roc(scores, labels) -> float:
    """Probability a random positive outranks a random negative.

    Rank-sum (Mann-Whitney) formulation with midrank handling, so tied
    scores contribute half credit.
    """
    scores, labels = _validate(scores, labels)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("auc needs both a positive and a negative")
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    # midranks: average the 1-based rank over each tie group
    uniq, inv, counts = np.unique(sorted_scores, return_inverse=True,
                                  return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts
    midranks = (starts + ends + 1) / 2.0     # 1-based average rank per value
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = midranks[inv]
    rank_sum_pos = ranks[labels].sum()
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))
