"""Ordering instances by score and splitting the order into quantiles.

A ranking is a list of row indices into its dataset's columns, plus one
prefix-sum array: `cum[k]` is the number of positives among the top k rows.
Every count over a contiguous stretch of the ranking (a quantile, a cutoff)
is then a difference of two entries of `cum`.

Ties are ordered by one stable descending sort over a pre-ordered index
list: input order for `stable`, negatives before positives for
`pessimistic`, positives before negatives for `optimistic`, each group in
input order.  Equal scores (including 0.0 and -0.0) keep that pre-order.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, chain, compress
from operator import itemgetter

from .dataset import LabeledDataset

_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")
_GATHER = 1 << 12  # rows per slice: all n at once held 16 MB more at 10^6 rows


class TiePolicy(str, Enum):
    """How equal scores are ordered.

    stable keeps input-file order; pessimistic puts negatives first (a lower
    bound on gain); optimistic puts positives first (an upper bound).
    """

    STABLE = "stable"
    PESSIMISTIC = "pessimistic"
    OPTIMISTIC = "optimistic"


@dataclass(frozen=True)
class RankedList:
    """A dataset's rows in descending-score order under an explicit tie policy.

    `indices[r]` is the dataset row at rank r; `cum[k]` is the number of
    positives in ranks 0..k-1, so `cum[0] == 0` and `cum[-1]` is the total.
    """

    dataset: LabeledDataset
    indices: list[int]
    cum: array  # array('q'), length size + 1

    @property
    def positive_total(self) -> int:
        return self.cum[-1]

    @property
    def size(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class QuantilePartition:
    """The ranked order cut into Q contiguous groups of near-equal size.

    Quantile q covers order indices [boundaries[q], boundaries[q+1]) with
    boundaries[q] = floor(q * N / Q), so sizes differ by at most one.
    """

    ranked: RankedList
    boundaries: tuple[int, ...]
    per_quantile_positive: tuple[int, ...]


def rank_instances(d: LabeledDataset, policy: TiePolicy = TiePolicy.STABLE) -> RankedList:
    """Sort descending by score; ties resolved per policy, then input order."""
    n = d.size
    if not n:
        raise ValueError("cannot rank an empty dataset")
    if policy is TiePolicy.STABLE:
        pre = range(n)
    else:
        positives = list(compress(range(n), d.labels))
        negatives = list(compress(range(n), d.labels.translate(_FLIP)))
        pre = negatives + positives if policy is TiePolicy.PESSIMISTIC else positives + negatives
    # Python's sort is stable under reverse=True, so ties keep `pre` order.
    indices = sorted(pre, key=d.scores.__getitem__, reverse=True)
    # Gathered in C a slice at a time; a leading index 0, dropped, keeps one row a tuple.
    ranked = chain.from_iterable(itemgetter(0, *indices[i:i + _GATHER])(d.labels)[1:]
                                 for i in range(0, n, _GATHER))
    cum = array("q", accumulate(ranked, initial=0))
    return RankedList(dataset=d, indices=indices, cum=cum)


def partition_quantiles(r: RankedList, quantile_count: int) -> QuantilePartition:
    """Split the ranked order into `quantile_count` groups by the floor rule."""
    n = r.size
    if quantile_count < 1 or quantile_count > n:
        raise ValueError(
            f"quantile count must be between 1 and {n}, got {quantile_count}"
        )
    boundaries = tuple(q * n // quantile_count for q in range(quantile_count + 1))
    cum = r.cum
    return QuantilePartition(
        ranked=r,
        boundaries=boundaries,
        per_quantile_positive=tuple(cum[b] - cum[a] for a, b in zip(boundaries, boundaries[1:])),
    )
