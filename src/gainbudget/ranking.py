"""Ordering instances by score and splitting the order into quantiles.

A ranking is the ascending list of its positives' ranks, rank 0 being the
top.  The positives in the top k are `bisect_left(positive_ranks, k)`, so a
count over any stretch of ranks (a quantile, a cutoff) takes two bisections.

Ties are ordered as one stable descending sort over a pre-ordered row list
would order them: input order for `stable`, negatives before positives for
`pessimistic`, positives before negatives for `optimistic`, each group in
input order.  Equal scores (including 0.0 and -0.0) keep that pre-order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from enum import Enum
from itertools import compress, count, repeat
from operator import floordiv, ne, sub

from .dataset import LabeledDataset

_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


class TiePolicy(str, Enum):
    """How equal scores are ordered.

    stable keeps input-file order; pessimistic puts negatives first (a lower
    bound on gain); optimistic puts positives first (an upper bound).
    """

    STABLE = "stable"
    PESSIMISTIC = "pessimistic"
    OPTIMISTIC = "optimistic"


class RankedList(namedtuple("RankedList", "name size positive_ranks")):
    """`size` instances ranked by descending score under an explicit tie policy, held as
    the ascending ranks of their positives, a list of ints; rank 0 holds the highest score."""

    __slots__ = ()

    @property
    def positive_total(self) -> int:
        return len(self.positive_ranks)

    def positives_above(self, k: int) -> int:
        return bisect_left(self.positive_ranks, k)


class QuantilePartition(namedtuple("QuantilePartition", "ranked boundaries per_quantile_positive")):
    """The ranked order cut into Q contiguous groups of near-equal size.

    Quantile q covers order indices [boundaries[q], boundaries[q+1]) with
    boundaries[q] = floor(q * N / Q), so sizes differ by at most one.  Both
    tuples hold ints; `per_quantile_positive[q]` counts quantile q's positives.
    """

    __slots__ = ()


def rank_instances(d: LabeledDataset, policy: TiePolicy = TiePolicy.STABLE) -> RankedList:
    """Sort descending by score; ties resolved per policy, then input order."""
    if not d.size:
        raise ValueError("cannot rank an empty dataset")
    pos = sorted(compress(d.scores, d.labels))
    neg = sorted(compress(d.scores, d.labels.translate(_FLIP)))
    # The j-th highest positive has rank j plus the negatives ranked above it:
    # under optimistic those of a higher score, else those of an equal score too.
    side = bisect_right if policy is TiePolicy.OPTIMISTIC else bisect_left
    lower = list(map(side, repeat(neg), reversed(pos)))  # the negatives below each positive
    ranks = list(map(sub, count(len(neg)), lower))
    # Input order decides only where a positive and a negative share a score, which is
    # where the two bisections differ; only the rows of such a score are read again.
    if policy is TiePolicy.STABLE and (blocks := {score: bytearray() for score in compress(
            reversed(pos), map(ne, lower, map(bisect_right, repeat(neg), reversed(pos))))}):
        for score, label in compress(zip(d.scores, d.labels), map(blocks.__contains__, d.scores)):
            blocks[score].append(label)
        for score, labels in blocks.items():
            top = len(pos) - bisect_right(pos, score)  # positives of a higher score
            start = top + len(neg) - bisect_right(neg, score)
            ranks[top:top + labels.count(1)] = compress(count(start), labels)
    return RankedList(d.name, d.size, ranks)


def partition_quantiles(r: RankedList, quantile_count: int) -> QuantilePartition:
    """Split the ranked order into `quantile_count` groups by the floor rule."""
    n = r.size
    if quantile_count < 1 or quantile_count > n:
        raise ValueError(
            f"{r.name}: quantile count must be between 1 and {n}, got {quantile_count}"
        )
    boundaries = tuple(map(floordiv, range(0, n * quantile_count + 1, n), repeat(quantile_count)))
    above = list(map(bisect_left, repeat(r.positive_ranks), boundaries))
    return QuantilePartition(
        ranked=r,
        boundaries=boundaries,
        per_quantile_positive=tuple(map(sub, above[1:], above)),
    )
