"""Ranking metrics: average precision and ROC-AUC.

Both reduce the scores to runs of equal score with one sort
(``_tie_runs``): per run only the positives and items scored at or above
it are kept, highest run first.  Scores are sorted in their own float
dtype, since widening float32 to float64 keeps every tie and every order.
AUC comes from integer counts and one final division, so it equals the
midrank (Mann-Whitney) value exactly.  The tests cross-check both against
naive quadratic definitions to 1e-12 and against the argsort/midrank
formulas exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import UndefinedMetricError


def _validate(scores, labels):
    scores = np.asarray(scores)
    if scores.dtype.kind != "f":
        scores = scores.astype(np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise UndefinedMetricError("scores and labels must be equal-length 1-d")
    if scores.size == 0:
        raise UndefinedMetricError("no samples")
    if not np.isfinite(scores).all():
        raise UndefinedMetricError("non-finite scores")
    return scores, labels.astype(bool, copy=False)


def _tie_runs(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """(tp, k) per run of equal scores, highest score first.

    ``tp[r]`` positives and ``k[r]`` items score at least run r's score;
    both are int64 and end at the totals.  Only which items share a run
    matters, so the sort need not be stable.
    """
    order = np.argsort(scores)
    ranked = scores[order][::-1]
    hits = labels[order][::-1]
    del order
    cut = ranked[1:] != ranked[:-1]
    del ranked
    # [0, run starts..., n]: run r spans bounds[r]:bounds[r + 1]
    bounds = np.empty(np.count_nonzero(cut) + 2, np.int64)
    bounds[0], bounds[-1] = 0, scores.size
    bounds[1:-1] = np.flatnonzero(cut)
    bounds[1:-1] += 1
    tp = np.add.reduceat(hits, bounds[:-1], dtype=np.int64)
    np.cumsum(tp, out=tp)
    return tp, bounds[1:]


def _steps(counts: np.ndarray) -> np.ndarray:
    """Per-run increments of cumulative counts: np.diff(counts, prepend=0)
    without its concatenated copy."""
    out = np.empty_like(counts)
    out[0] = counts[0]
    np.subtract(counts[1:], counts[:-1], out=out[1:])
    return out


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
    tp, k = _tie_runs(scores, labels)
    # only runs holding a positive add a term; between two of them tp is
    # flat, so their gains are the steps of the kept tp
    hit = _steps(tp) > 0
    tp, k = tp[hit], k[hit]
    terms = tp / k
    terms *= _steps(tp)
    return float(terms.sum() / tp[-1])


def auc_roc(scores, labels) -> float:
    """Probability a random positive outranks a random negative.

    Mann-Whitney U with tied scores earning half credit: each run's
    negatives are outranked by every positive above the run and by half
    of the run's own positives, so 2U = sum_r neg_r * (tp[r-1] + tp[r]).
    """
    scores, labels = _validate(scores, labels)
    n_pos = int(np.count_nonzero(labels))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("auc needs both a positive and a negative")
    tp, k = _tie_runs(scores, labels)
    neg = _steps(np.subtract(k, tp, out=k))
    two_u = int(neg @ tp) + int(neg[1:] @ tp[:-1])
    return float(two_u / 2 / (n_pos * n_neg))
