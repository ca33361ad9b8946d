import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from gainbudget import (
    ConfusionMatrix,
    GainProfile,
    class_metrics,
    confusion_at_cutoff,
    gain_profile,
    ideal_profile,
    partition_quantiles,
    rank_instances,
)

from conftest import accuracy_at_cutoff, make_dataset


def ranked_fixture(worked_datasets, key):
    return rank_instances(worked_datasets[key])


def perfect_dataset(n=10, positives=5):
    return make_dataset(
        "perfect", [str(i) for i in range(n)], [float(n - i) for i in range(n)],
        [i < positives for i in range(n)],
    )


class TestGainProfile:
    def test_worked_example(self, worked_datasets):
        g = gain_profile(partition_quantiles(ranked_fixture(worked_datasets, "s1m1"), 6))
        assert g.per_quantile_positive == (1, 0, 0, 1, 0, 1)
        assert g.cumulative_positive_count == (1, 1, 1, 2, 2, 3)
        assert g.positive_total == 3
        assert g.size == 6

    def test_single_quantile(self, worked_datasets):
        g = gain_profile(partition_quantiles(ranked_fixture(worked_datasets, "s2m1"), 1))
        assert g.per_quantile_positive == g.cumulative_positive_count == (g.positive_total,)

    def test_perfect_ranking(self):
        ranked = rank_instances(perfect_dataset())
        g = gain_profile(partition_quantiles(ranked, 10))
        assert g.per_quantile_positive == (1,) * 5 + (0,) * 5
        assert g.positive_total == 5

    def test_zero_positives_rejected(self):
        d = make_dataset("nopos", ["a"], [1.0], [False])
        with pytest.raises(ValueError, match="no positive"):
            gain_profile(partition_quantiles(rank_instances(d), 1))

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            GainProfile("bad", (1, 1), positive_total=3, size=4)


class TestIdealProfile:
    def test_all_positives_on_top(self):
        g = ideal_profile(6, 3, 6)
        assert g.per_quantile_positive == (1, 1, 1, 0, 0, 0)

    def test_case_study_scale(self):
        g = ideal_profile(2091, 414, 10)
        assert g.per_quantile_positive == (209, 205, 0, 0, 0, 0, 0, 0, 0, 0)
        assert g.cumulative_positive_count[1] == g.positive_total

    def test_everything_positive(self):
        g = ideal_profile(10, 10, 5)
        assert g.per_quantile_positive == (2,) * 5

    @pytest.mark.parametrize("n,p,q", [(5, 0, 2), (5, 6, 2), (5, 3, 0), (5, 3, 6)])
    def test_parameter_bounds(self, n, p, q):
        with pytest.raises(ValueError):
            ideal_profile(n, p, q)


class TestConfusion:
    def test_worked_example_k4(self, worked_datasets):
        c = confusion_at_cutoff(ranked_fixture(worked_datasets, "s1m1"), 4)
        assert (c.tp, c.fp, c.tn, c.fn) == (2, 2, 1, 1)
        assert c.tp + c.fp == c.cutoff_k == 4
        assert c.tp + c.fp + c.tn + c.fn == 6

    def test_worked_example_k2(self, worked_datasets):
        assert confusion_at_cutoff(ranked_fixture(worked_datasets, "s1m1"), 2).tp == 1
        assert confusion_at_cutoff(ranked_fixture(worked_datasets, "s2m2"), 2).tp == 0

    def test_cutoff_bounds(self, worked_datasets):
        ranked = ranked_fixture(worked_datasets, "s1m1")
        for k in (-1, 7):
            with pytest.raises(ValueError, match="cutoff"):
                confusion_at_cutoff(ranked, k)


class TestAccuracy:
    def test_worked_example_row(self, worked_datasets):
        assert accuracy_at_cutoff(ranked_fixture(worked_datasets, "s2m1"), 4) == pytest.approx(1 / 6)
        for key in ("s1m1", "s1m2", "s2m2"):
            assert accuracy_at_cutoff(ranked_fixture(worked_datasets, key), 4) == 0.5

    def test_perfect_ranking(self):
        ranked = rank_instances(perfect_dataset())
        assert accuracy_at_cutoff(ranked, 5) == 1.0


class TestClassMetrics:
    def test_worked_example(self, worked_datasets):
        c = confusion_at_cutoff(ranked_fixture(worked_datasets, "s1m1"), 4)
        m = class_metrics(c)
        assert m.confusion == c
        assert m.positive_precision == 0.5
        assert m.positive_recall == pytest.approx(2 / 3)
        assert m.positive_f1 == pytest.approx(4 / 7)
        assert m.negative_precision == 0.5
        assert m.negative_recall == pytest.approx(1 / 3)
        assert m.negative_f1 == pytest.approx(0.4)
        assert m.weighted_f1 == pytest.approx(17 / 35)
        assert m.accuracy == 0.5
        assert m.conventions == ()

    def test_perfect_classifier(self):
        c = ConfusionMatrix(tp=5, fp=0, tn=5, fn=0, cutoff_k=5)
        m = class_metrics(c)
        for value in (
            m.positive_precision, m.positive_recall, m.positive_f1,
            m.negative_precision, m.negative_recall, m.negative_f1,
            m.weighted_precision, m.weighted_recall, m.weighted_f1, m.accuracy,
        ):
            assert value == 1.0

    def test_balanced_supports_average_evenly(self, worked_datasets):
        c = confusion_at_cutoff(ranked_fixture(worked_datasets, "s1m2"), 4)
        m = class_metrics(c)
        assert m.weighted_f1 == pytest.approx((m.positive_f1 + m.negative_f1) / 2)

    def test_zero_predicted_class_flagged(self):
        # k=0: nothing predicted positive
        c = ConfusionMatrix(tp=0, fp=0, tn=2, fn=2, cutoff_k=0)
        m = class_metrics(c)
        assert m.positive_precision == 0.0
        assert "positive_precision" in m.conventions
        assert "positive_f1" in m.conventions

    @given(
        tp=st.integers(0, 20), fp=st.integers(0, 20),
        tn=st.integers(0, 20), fn=st.integers(0, 20),
    )
    @settings(max_examples=200)
    def test_weighted_between_per_class_and_bounded(self, tp, fp, tn, fn):
        if tp + fp + tn + fn == 0:
            return
        c = ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn, cutoff_k=tp + fp)
        m = class_metrics(c)
        triples = [
            (m.positive_precision, m.negative_precision, m.weighted_precision),
            (m.positive_recall, m.negative_recall, m.weighted_recall),
            (m.positive_f1, m.negative_f1, m.weighted_f1),
        ]
        for pos, neg, weighted in triples:
            assert min(pos, neg) - 1e-12 <= weighted <= max(pos, neg) + 1e-12
            for value in (pos, neg, weighted):
                assert 0.0 <= value <= 1.0
        assert 0.0 <= m.accuracy <= 1.0


def reference_class_metrics(tp, fp, tn, fn):
    """The per-class formulas written out for each class, as a fixed reference."""
    conventions = []

    def ratio(num, den, field):
        if den == 0:
            conventions.append(field)
            return 0.0
        return num / den

    def f1(p, r, field):
        if p + r == 0:
            conventions.append(field)
            return 0.0
        return 2 * p * r / (p + r)

    pos_p = ratio(tp, tp + fp, "positive_precision")
    pos_r = ratio(tp, tp + fn, "positive_recall")
    pos_f = f1(pos_p, pos_r, "positive_f1")
    neg_p = ratio(tn, tn + fn, "negative_precision")
    neg_r = ratio(tn, tn + fp, "negative_recall")
    neg_f = f1(neg_p, neg_r, "negative_f1")
    size = tp + fp + tn + fn

    def weighted(pos, neg):
        return ((tp + fn) * pos + (tn + fp) * neg) / size

    return {
        "positive_precision": pos_p, "positive_recall": pos_r, "positive_f1": pos_f,
        "negative_precision": neg_p, "negative_recall": neg_r, "negative_f1": neg_f,
        "weighted_precision": weighted(pos_p, neg_p),
        "weighted_recall": weighted(pos_r, neg_r),
        "weighted_f1": weighted(pos_f, neg_f),
        "accuracy": (tp + tn) / size,
        "conventions": tuple(conventions),
    }


def test_class_metrics_match_the_reference_on_every_small_matrix():
    """Every matrix with counts in 0..3 and at least one instance, field by field."""
    matrices = [counts for counts in product(range(4), repeat=4) if any(counts)]
    assert len(matrices) == 255
    for tp, fp, tn, fn in matrices:
        c = ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn, cutoff_k=tp + fp)
        m = class_metrics(c)
        assert m.confusion == c
        got = {name: getattr(m, name) for name in reference_class_metrics(tp, fp, tn, fn)}
        assert got == reference_class_metrics(tp, fp, tn, fn), (tp, fp, tn, fn)


labels = st.lists(st.booleans(), min_size=1, max_size=40).filter(any)


@st.composite
def profiles(draw):
    lab = draw(labels)
    scores = draw(
        st.lists(
            st.integers(min_value=-5, max_value=5),
            min_size=len(lab),
            max_size=len(lab),
        )
    )
    d = make_dataset("prop", [str(i) for i in range(len(lab))], map(float, scores), lab)
    ranked = rank_instances(d)
    q = draw(st.integers(min_value=1, max_value=ranked.size))
    return gain_profile(partition_quantiles(ranked, q)), ranked


@given(profiles())
@settings(max_examples=200)
def test_gain_sums_to_one(built):
    g, _ = built
    assert sum(g.per_quantile_positive) == g.positive_total
    assert sum(Fraction(c, g.positive_total) for c in g.per_quantile_positive) == 1


@given(profiles())
@settings(max_examples=200)
def test_cumulative_monotone_ending_at_one(built):
    g, _ = built
    cumulative = g.cumulative_positive_count
    assert all(a <= b for a, b in zip(cumulative, cumulative[1:]))
    assert cumulative[-1] == g.positive_total


@given(profiles())
@settings(max_examples=200)
def test_counts_recoverable_from_cumulative(built):
    # The stored cumulative counts are the ranking's prefix sums at each
    # quantile's right edge, and their differences give back the counts.
    g, ranked = built
    n, q = ranked.size, g.quantile_count
    cumulative = g.cumulative_positive_count
    assert cumulative == tuple(ranked.cum[(i + 1) * n // q] for i in range(q))
    assert tuple(b - a for a, b in zip((0,) + cumulative, cumulative)) == g.per_quantile_positive


@given(profiles())
@settings(max_examples=200)
def test_ideal_dominates(built):
    g, _ = built
    ideal = ideal_profile(g.size, g.positive_total, g.quantile_count)
    pairs = zip(ideal.cumulative_positive_count, g.cumulative_positive_count)
    assert all(i >= c for i, c in pairs)
    assert ideal.cumulative_positive_count[-1] == g.cumulative_positive_count[-1] == g.positive_total


@given(profiles())
@settings(max_examples=100)
def test_accuracy_consistent_with_confusion(built):
    _, ranked = built
    n = ranked.size
    for k in range(n + 1):
        c = confusion_at_cutoff(ranked, k)
        assert (c.tp, c.fp, c.tn, c.fn) == (c.tp, k - c.tp, c.tn, c.fn)
        assert accuracy_at_cutoff(ranked, k) == pytest.approx((c.tp + c.tn) / n)
        assert c.tp + c.fp + c.tn + c.fn == n
