"""Gain, cumulative gain, and threshold classification metrics.

Gain for a quantile is the number of positive instances it holds divided by
the total number of positives in the test set.  A profile stores only the
integer counts; each gain is divided out where it is printed, so sum-to-one
checks are exact.  Counts at a cutoff are read from the ranking's positive
ranks, not recounted.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate

from .ranking import QuantilePartition, RankedList, partition_quantiles


class GainProfile(namedtuple("GainProfile", "model_name per_quantile_positive positive_total "
                                            "size cumulative_positive_count")):
    """Per-quantile positive counts for one model's ranking.

    `size` is the number of ranked instances behind the profile (N).
    `cumulative_positive_count` is built once, from the per-quantile counts;
    it is never an argument.  Gain and cumulative gain are these counts
    divided by `positive_total`.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*tuple(fields)[:4]))  # so _replace checks too

    def __new__(cls, model_name: str, per_quantile_positive: tuple[int, ...],
                positive_total: int, size: int) -> GainProfile:
        if positive_total < 1:
            raise ValueError(f"{model_name}: gain undefined, dataset has no positive instances")
        if min(per_quantile_positive, default=0) < 0:
            raise ValueError("negative per-quantile count")
        cumulative = tuple(accumulate(per_quantile_positive, initial=0))
        if cumulative[-1] != positive_total:
            raise ValueError("per-quantile positives must sum to positive_total "
                             f"({cumulative[-1]} != {positive_total})")
        return super().__new__(cls, model_name, per_quantile_positive, positive_total, size,
                               cumulative[1:])

    def __getnewargs__(self) -> tuple:  # copy and pickle pass the arguments, not the counts
        return self[:4]

    @property
    def quantile_count(self) -> int:
        return len(self.per_quantile_positive)


class ConfusionMatrix(namedtuple("ConfusionMatrix", "tp fp tn fn cutoff_k")):
    """Counts from treating the top `cutoff_k` ranked instances as positive."""

    __slots__ = ()


class ClassMetrics(namedtuple("ClassMetrics", (
        "confusion positive_precision positive_recall positive_f1 negative_precision"
        " negative_recall negative_f1 weighted_precision weighted_recall weighted_f1"
        " accuracy conventions"), defaults=[()])):
    """Per-class and support-weighted precision/recall/F1 plus accuracy, as floats.

    `confusion` is the matrix the metrics were computed from.  `conventions`
    names the fields where a zero-denominator convention was applied (value
    forced to 0); renderers surface it as a footnote.
    """

    __slots__ = ()


def gain_profile(p: QuantilePartition) -> GainProfile:
    """Build the gain profile of a quantile partition.

    Raises ValueError when the ranking holds no positives (division by zero).
    """
    return GainProfile(
        model_name=p.ranked.name,
        per_quantile_positive=p.per_quantile_positive,
        positive_total=p.ranked.positive_total,
        size=p.ranked.size,
    )


def ideal_profile(size: int, positive_total: int, quantile_count: int) -> GainProfile:
    """Profile of a perfect ranker: the positives hold ranks 0 .. positive_total - 1."""
    if not 1 <= positive_total <= size:
        raise ValueError(f"positive_total must be in 1..{size}, got {positive_total}")
    # A list, not a range: bisecting a range builds an int object at every probe.
    ideal = RankedList("ideal", size, list(range(positive_total)))
    return gain_profile(partition_quantiles(ideal, quantile_count))


def confusion_at_cutoff(r: RankedList, k: int) -> ConfusionMatrix:
    """Predict the top k instances positive, the rest negative, and tally."""
    n = r.size
    if not 0 <= k <= n:
        raise ValueError(f"{r.name}: cutoff must be in 0..{n}, got {k}")
    tp = r.positives_above(k)
    fp = k - tp
    fn = r.positive_total - tp
    tn = n - k - fn
    return ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn, cutoff_k=k)


def _class_scores(
    role: str, hit: int, false_alarm: int, miss: int, conventions: list[str]
) -> tuple[float, float, float]:
    """One class's (precision, recall, F1) from its hits, false alarms and misses.

    A zero denominator scores 0, and the field is appended to `conventions`.
    """
    precision = hit / (hit + false_alarm) if hit + false_alarm else 0.0
    recall = hit / (hit + miss) if hit + miss else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    dens = (("precision", hit + false_alarm), ("recall", hit + miss), ("f1", precision + recall))
    conventions += [f"{role}_{measure}" for measure, den in dens if not den]
    return precision, recall, f1


def class_metrics(c: ConfusionMatrix) -> ClassMetrics:
    """Per-class P/R/F1 (negative class by role swap) plus weighted means.

    Each class is weighted by its gold support in `c`.  A class with zero
    predicted or zero gold instances scores 0 on the affected metric; every
    such convention is recorded in `conventions`.
    """
    conventions: list[str] = []
    positive = _class_scores("positive", c.tp, c.fp, c.fn, conventions)
    negative = _class_scores("negative", c.tn, c.fn, c.fp, conventions)
    positive_support, negative_support = c.tp + c.fn, c.tn + c.fp
    size = positive_support + negative_support
    weighted = [(positive_support * pos + negative_support * neg) / size
                for pos, neg in zip(positive, negative)]
    return ClassMetrics(c, *positive, *negative, *weighted, (c.tp + c.tn) / size,
                        tuple(conventions))
