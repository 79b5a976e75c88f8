import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneighbor.errors import UndefinedMetricError
from coneighbor.metrics import auc_roc, average_precision


def naive_ap(scores, labels):
    """Quadratic reference: one threshold per distinct score, tied items
    sharing it; recall gain at each threshold times the precision there."""
    n_pos = sum(bool(y) for y in labels)
    total = 0.0
    for t in sorted(set(scores), reverse=True):
        at = sum(bool(y) for s, y in zip(scores, labels) if s == t)
        above = [bool(y) for s, y in zip(scores, labels) if s >= t]
        total += at / n_pos * (sum(above) / len(above))
    return total


def naive_auc(scores, labels):
    """All positive/negative pairs compared directly."""
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def argsort_ap(scores, labels):
    """Average precision by the argsort formula: a stable descending sort,
    cumulative positives at the last item of each tie run."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    csum = np.cumsum(labels[order])
    ends = np.flatnonzero(np.r_[ranked[1:] != ranked[:-1], True])
    tp = csum[ends]
    gain = np.diff(tp, prepend=0)
    hit = gain > 0
    return float((gain[hit] * (tp[hit] / (ends[hit] + 1))).sum() / csum[-1])


def midrank_auc(scores, labels):
    """ROC-AUC by the rank-sum formula with midranks for tied scores."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    order = np.argsort(scores, kind="stable")
    _, inv, counts = np.unique(scores[order], return_inverse=True,
                               return_counts=True)
    ends = np.cumsum(counts)
    midranks = (ends - counts + ends + 1) / 2.0
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = midranks[inv]
    u = ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


class TestAveragePrecision:
    def test_positives_ranked_first(self):
        assert average_precision([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0

    def test_single_positive_at_rank_two(self):
        assert average_precision([0.9, 0.1], [0, 1]) == 0.5

    def test_all_positive(self):
        assert average_precision([0.3, 0.2, 0.9], [1, 1, 1]) == 1.0

    def test_no_positives_undefined(self):
        with pytest.raises(UndefinedMetricError):
            average_precision([0.5, 0.4], [0, 0])

    def test_tied_scores_share_one_threshold(self):
        assert average_precision([0.5, 0.5], [0, 1]) == 0.5
        assert average_precision([0.5, 0.5], [1, 0]) == 0.5
        # a constant scorer gets the positive rate, whatever the order
        assert average_precision([0.2] * 5, [1, 1, 0, 0, 0]) == 0.4
        assert average_precision([0.2] * 5, [0, 0, 0, 1, 1]) == 0.4
        # a tie group below a clean positive: 1/2 * 1 + 1/2 * 2/3
        assert average_precision([0.9, 0.3, 0.3], [1, 0, 1]) == pytest.approx(
            5 / 6, abs=1e-15)

    def test_invariant_to_input_order(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 80))
            s = rng.integers(0, 5, n) / 5.0       # heavy ties
            y = rng.random(n) < 0.4
            if not y.any():
                continue
            ap = average_precision(s, y)
            for _ in range(5):
                perm = rng.permutation(n)
                assert average_precision(s[perm], y[perm]) == ap

    def test_random_scores_near_half(self):
        r = np.random.default_rng(0)
        ap = average_precision(r.random(10_000), r.random(10_000) < 0.5)
        assert ap == pytest.approx(0.5, abs=0.02)


class TestAucRoc:
    def test_perfect_separation(self):
        assert auc_roc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_perfectly_wrong(self):
        assert auc_roc([0.9, 0.1], [0, 1]) == 0.0

    def test_all_equal_scores(self):
        assert auc_roc([0.4, 0.4, 0.4, 0.4], [1, 0, 1, 0]) == 0.5

    @pytest.mark.parametrize("labels", [[1, 1], [0, 0]])
    def test_single_class_undefined(self, labels):
        with pytest.raises(UndefinedMetricError):
            auc_roc([0.5, 0.6], labels)

    def test_random_scores_near_half(self):
        r = np.random.default_rng(1)
        auc = auc_roc(r.random(10_000), r.random(10_000) < 0.5)
        assert auc == pytest.approx(0.5, abs=0.02)

    def test_label_flip_complements(self):
        r = np.random.default_rng(2)
        s = r.integers(0, 10, 200) / 10.0      # heavy ties
        y = r.random(200) < 0.4
        assert auc_roc(s, y) + auc_roc(s, ~y) == pytest.approx(1.0)


class TestInputValidation:
    def test_length_mismatch(self):
        with pytest.raises(UndefinedMetricError):
            average_precision([0.5], [1, 0])

    def test_empty(self):
        with pytest.raises(UndefinedMetricError):
            auc_roc([], [])

    def test_nan_scores_rejected(self):
        with pytest.raises(UndefinedMetricError):
            average_precision([np.nan, 0.5], [1, 0])


class TestAgainstNaive:
    def test_continuous_scores(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 60))
            s = rng.random(n)
            y = rng.random(n) < 0.5
            if y.any():
                assert average_precision(s, y) == pytest.approx(
                    naive_ap(s, y), abs=1e-12)
            if y.any() and not y.all():
                assert auc_roc(s, y) == pytest.approx(naive_auc(s, y),
                                                      abs=1e-12)

    def test_discrete_scores_force_ties(self, rng):
        for _ in range(100):
            n = int(rng.integers(4, 60))
            s = rng.integers(0, 4, n) / 4.0
            y = rng.random(n) < 0.5
            if y.any():
                assert average_precision(s, y) == pytest.approx(
                    naive_ap(s, y), abs=1e-12)
            if y.any() and not y.all():
                assert auc_roc(s, y) == pytest.approx(naive_auc(s, y),
                                                      abs=1e-12)


class TestAgainstRankFormulas:
    """Exactly equal to the argsort and midrank formulas: the tie runs and
    the integer counts they yield are the same, and so is every float
    operation on them."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equal_bit_for_bit(self, rng, dtype):
        for i in range(300):
            n = int(rng.integers(1, 300))
            s = [rng.random(n),                          # no ties
                 rng.integers(0, 5, n) / 4.0,            # heavy ties
                 np.round(rng.standard_normal(n), 1),    # ties, both signs
                 ][i % 3].astype(dtype)
            y = rng.random(n) < rng.random()
            if y.any():
                assert average_precision(s, y) == argsort_ap(s, y)
            if y.any() and not y.all():
                assert auc_roc(s, y) == midrank_auc(s, y)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_signed_zeros_tie(self, rng, dtype):
        for _ in range(50):
            n = int(rng.integers(2, 40))
            s = (rng.integers(-1, 2, n) * 0.0).astype(dtype)
            s[rng.random(n) < 0.5] *= -1                # -0.0 == 0.0
            y = rng.random(n) < 0.5
            if y.any() and not y.all():
                assert average_precision(s, y) == argsort_ap(s, y)
                assert auc_roc(s, y) == midrank_auc(s, y)
        assert auc_roc([-0.0, 0.0], [1, 0]) == 0.5
        assert average_precision([-0.0, 0.0, 0.0], [0, 1, 0]) == 1 / 3

    def test_integer_scores_widen_like_floats(self):
        s, y = [3, 1, 3, 2, 1], [1, 0, 0, 1, 1]
        assert average_precision(s, y) == argsort_ap(s, y)
        assert auc_roc(s, y) == midrank_auc(s, y)


def test_float32_scores_are_ranked_without_wide_copies():
    """AP plus AUC on 70k float32 scores allocate at most 3.5 MB (1.8 MB
    measured).  Each int64 array of 70k items is 0.56 MB; converting the
    scores to float64, ranking a negated copy and building a full ranks
    array took 6.3 MB."""
    r = np.random.default_rng(3)
    s = r.random(70_000).astype(np.float32)
    y = r.random(70_000) < 0.5
    tracemalloc.start()
    try:
        average_precision(s, y)
        auc_roc(s, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5e6


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 1, allow_nan=False, width=32),
                          st.booleans()), min_size=2, max_size=40))
def test_bounds_and_oracle_property(pairs):
    scores = [s for s, _ in pairs]
    labels = [y for _, y in pairs]
    if any(labels):
        ap = average_precision(scores, labels)
        assert 0.0 <= ap <= 1.0
        assert ap == pytest.approx(naive_ap(scores, labels), abs=1e-12)
    if any(labels) and not all(labels):
        auc = auc_roc(scores, labels)
        assert 0.0 <= auc <= 1.0
        assert auc == pytest.approx(naive_auc(scores, labels), abs=1e-12)
