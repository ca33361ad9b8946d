import random
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from gainbudget import TiePolicy, partition_quantiles, rank_instances

from conftest import (WORKED_ORDERS, make_dataset, reference_cum, reference_order,
                      worked_positive_ranks)


def numbered_dataset(labels, scores):
    """Rows from paired labels and scores."""
    pairs = list(zip(labels, scores))
    return make_dataset("t", [float(s) for _, s in pairs], [l for l, _ in pairs])


def assert_ranks_follow_scores(d, ranked):
    """The ranks are distinct and the positives' own, and each positive's rank
    lies in its score's tie block: after every higher score, before every lower."""
    ranks = ranked.positive_ranks
    assert len(set(ranks)) == len(ranks) == d.labels.count(1)
    assert all(0 <= rank < d.size for rank in ranks)
    positive_scores = sorted((s for s, label in zip(d.scores, d.labels) if label), reverse=True)
    for rank, score in zip(ranks, positive_scores):
        assert sum(s > score for s in d.scores) <= rank < sum(s >= score for s in d.scores)


def floor_edges(n, q):
    """The floor rule's quantile edges: quantile k covers ranks [edges[k], edges[k + 1])."""
    return [k * n // q for k in range(q + 1)]


@pytest.mark.parametrize("policy", list(TiePolicy))
@pytest.mark.parametrize("labels, scores", [
    *(([label], [0]) for label in (False, True)),
    *((list(labels), [1, s]) for labels in product((False, True), repeat=2) for s in (0, 1, 2)),
])
def test_cum_is_the_running_sum_of_ranked_labels(policy, labels, scores):
    # positives_above(k) is the running sum of the labels in the reference order, at k.
    d = numbered_dataset(labels, scores)
    r = rank_instances(d, policy)
    assert [r.positives_above(k) for k in range(d.size + 1)] == reference_cum(d, policy)


#: Few distinct scores, so rows tie within and across labels and across
#: quantile edges; 0.0 and -0.0 tie, and +-1e300 sit far from the rest.
tied_datasets = st.lists(
    st.tuples(st.booleans(), st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e300, -1e300])),
    min_size=1,
    max_size=40,
).map(lambda rows: numbered_dataset(*zip(*rows)))


@given(tied_datasets, st.sampled_from(list(TiePolicy)), st.integers(min_value=1, max_value=40))
@example(numbered_dataset([True] * 3, [0.0, -0.0, 0.0]), TiePolicy.STABLE, 2)
@example(numbered_dataset([False] * 3, [-0.0, 1.0, 0.0]), TiePolicy.OPTIMISTIC, 3)
@example(numbered_dataset([True, False, True, False], [-0.0, 0.0, 0.0, -0.0]), TiePolicy.STABLE, 3)
@settings(max_examples=500)
def test_ranking_law(d, policy, q):
    """The positives in the top k, for every k, and the counts of a partition
    are those of the reference order."""
    r = rank_instances(d, policy)
    cum = reference_cum(d, policy)
    assert [r.positives_above(k) for k in range(d.size + 1)] == cum
    q = min(q, d.size)
    cuts = floor_edges(d.size, q)
    expected = tuple(cum[b] - cum[a] for a, b in zip(cuts, cuts[1:]))
    assert partition_quantiles(r, q) == expected


def tie_blocks_dataset(rows=20_000, seed=11):
    """Mixed-label tie blocks of 1,000 to 5,000 rows (the last may be shorter),
    their rows scattered in input order; the first block mixes 0.0 and -0.0."""
    rng = random.Random(seed)
    scores, labels = [], []
    while len(scores) < rows:
        size = min(rng.randint(1000, 5000), rows - len(scores))
        score, rate = (rng.uniform(-1, 1) if scores else 0.0), rng.random()
        scores += [score if scores or i % 2 else -score for i in range(size)]
        labels += [rng.random() < rate for _ in range(size)]
    order = list(range(rows))
    rng.shuffle(order)
    return numbered_dataset([labels[i] for i in order], [scores[i] for i in order])


@pytest.mark.parametrize("policy", list(TiePolicy))
def test_ranking_law_on_large_tie_blocks(policy):
    d = tie_blocks_dataset()
    r = rank_instances(d, policy)
    assert [r.positives_above(k) for k in range(d.size + 1)] == reference_cum(d, policy)


class TestRankInstances:
    @pytest.mark.parametrize("key", sorted(WORKED_ORDERS))
    def test_worked_orders(self, worked_datasets, key):
        d = worked_datasets[key]
        ranked = rank_instances(d)
        assert [str(i + 1) for i in reference_order(d)] == WORKED_ORDERS[key]
        assert ranked.positive_ranks == worked_positive_ranks(key)
        assert ranked.positive_total == 3

    def test_scores_non_increasing(self, worked_datasets):
        d = worked_datasets["s2m2"]
        assert_ranks_follow_scores(d, rank_instances(d))

    def test_optimistic_ties_put_positives_first(self):
        d = numbered_dataset([False, True, False, True], [1, 1, 1, 1])
        ranked = rank_instances(d, TiePolicy.OPTIMISTIC)
        assert ranked.positive_ranks == [0, 1]

    def test_pessimistic_ties_put_positives_last(self):
        d = numbered_dataset([False, True, False, True], [1, 1, 1, 1])
        ranked = rank_instances(d, TiePolicy.PESSIMISTIC)
        assert ranked.positive_ranks == [2, 3]

    def test_stable_ties_keep_input_order(self):
        d = numbered_dataset([False, True, False, True], [1, 1, 1, 1])
        ranked = rank_instances(d, TiePolicy.STABLE)
        assert ranked.positive_ranks == [1, 3]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            rank_instances(make_dataset("e", [], []))


class TestPartition:
    def test_one_instance_per_quantile(self, worked_datasets):
        ranked = rank_instances(worked_datasets["s1m1"])
        edges = floor_edges(6, 6)
        assert [b - a for a, b in zip(edges, edges[1:])] == [1] * 6
        assert partition_quantiles(ranked, 6) == (1, 0, 0, 1, 0, 1)

    def test_single_bucket(self, worked_datasets):
        ranked = rank_instances(worked_datasets["s1m2"])
        assert floor_edges(6, 1) == [0, 6]
        assert partition_quantiles(ranked, 1) == (3,)

    def test_case_study_decile_sizes(self, case_study_profiles):
        # floor rule on 2091: the remainder lands in the final decile
        sizes = tuple(
            b - a
            for a, b in zip(
                [q * 2091 // 10 for q in range(10)],
                [q * 2091 // 10 for q in range(1, 11)],
            )
        )
        assert sizes == (209,) * 9 + (210,)
        assert sum(sizes) == 2091

    def test_boundaries_structure(self):
        # With every row positive, each quantile's count is its size between the floor-rule edges.
        d = numbered_dataset([True] * 7, range(7))
        counts = partition_quantiles(rank_instances(d), 3)
        assert floor_edges(7, 3) == [0, 2, 4, 7]
        assert counts == (2, 2, 3)
        assert sum(counts) == 7
        assert max(counts) - min(counts) <= 1

    @pytest.mark.parametrize("labels, q, expected", [
        ([0, 1, 1, 0, 0, 1, 0], 3, (1, 1, 1)),  # Q = P: bisected at each edge
        ([0, 1, 1, 0, 0, 1, 0], 4, (0, 2, 0, 1)),  # Q = P + 1: counted by quantile
        ([1, 1, 0, 1, 1, 0, 0], 7, (1, 1, 0, 1, 1, 0, 0)),  # one row per quantile
        ([0] * 5, 3, (0, 0, 0)),  # P = 0
        ([0] * 5, 5, (0,) * 5),
        ([1], 1, (1,)),  # N = 1
        ([0], 1, (0,)),
    ])
    def test_counts_either_side_of_q_equals_p(self, labels, q, expected):
        ranked = rank_instances(numbered_dataset(labels, range(len(labels), 0, -1)))
        counts = partition_quantiles(ranked, q)
        assert counts == expected
        assert type(counts) is tuple and all(type(c) is int for c in counts)

    @pytest.mark.parametrize("bad_q", [0, -1, 7])
    def test_quantile_count_bounds(self, bad_q):
        d = numbered_dataset([True] * 6, range(6))
        with pytest.raises(ValueError, match="quantile count"):
            partition_quantiles(rank_instances(d), bad_q)


small_datasets = st.builds(
    numbered_dataset,
    st.lists(st.booleans(), min_size=1, max_size=12),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=12, max_size=12),
)


@given(small_datasets, st.data())
@settings(max_examples=200)
def test_partition_reconstructs_order(d, data):
    # The quantiles tile the ranks 0..N-1, and each positive counts in the one holding its rank.
    ranked = rank_instances(d)
    q = data.draw(st.integers(min_value=1, max_value=ranked.size))
    edges = floor_edges(ranked.size, q)
    assert edges[0] == 0 and edges[-1] == ranked.size
    assert all(a <= b for a, b in zip(edges, edges[1:]))
    rebuilt = tuple(
        sum(a <= rank < b for rank in ranked.positive_ranks)
        for a, b in zip(edges, edges[1:])
    )
    assert rebuilt == partition_quantiles(ranked, q)


@given(small_datasets)
@settings(max_examples=200)
def test_order_is_permutation(d):
    assert_ranks_follow_scores(d, rank_instances(d))


@given(small_datasets)
@settings(max_examples=200)
def test_doubling_scores_keeps_stable_order(d):
    # doubling is exact in binary floating point, so relative order is intact
    doubled = make_dataset(d.name, [s * 2 for s in d.scores], d.labels)
    for policy in TiePolicy:
        before = rank_instances(d, policy).positive_ranks
        assert rank_instances(doubled, policy).positive_ranks == before


@given(small_datasets)
@settings(max_examples=200)
def test_tie_policy_prefix_bounds(d):
    # The positives in the top k; test_ranking_law checks them against the reference order.
    pes, sta, opt = (
        list(map(rank_instances(d, policy).positives_above, range(d.size + 1)))
        for policy in (TiePolicy.PESSIMISTIC, TiePolicy.STABLE, TiePolicy.OPTIMISTIC)
    )
    assert all(p <= s <= o for p, s, o in zip(pes, sta, opt))


@given(small_datasets, st.data())
@settings(max_examples=200)
def test_counts_match_brute_force(d, data):
    """Oracle: assign each rank i to quantile ceil((i+1)*Q/N) - 1 and count."""
    ranked = rank_instances(d)
    n = ranked.size
    q = data.draw(st.integers(min_value=1, max_value=n))
    expected = [0] * q
    for i, row in enumerate(reference_order(d)):
        bucket = -(-(i + 1) * q // n) - 1
        expected[bucket] += d.labels[row]
    assert partition_quantiles(ranked, q) == tuple(expected)


#: Up to 200 rows and any Q in 1..N, so Q falls on both sides of P.
rows_and_quantiles = st.lists(st.booleans(), min_size=1, max_size=200).flatmap(
    lambda labels: st.tuples(st.just(labels), st.integers(min_value=1, max_value=len(labels))))


@given(rows_and_quantiles)
@example(([False] * 200, 200))
@example(([True] + [False] * 199, 200))
@settings(max_examples=300)
def test_counts_match_a_recount_up_to_200_rows(case):
    """Both count paths (Q <= P bisects, Q > P counts by quantile) against a recount of
    the labels between the floor-rule edges; row i has rank i."""
    labels, q = case
    n = len(labels)
    ranked = rank_instances(numbered_dataset(labels, range(n, 0, -1)))
    edges = floor_edges(n, q)
    expected = tuple(sum(labels[a:b]) for a, b in zip(edges, edges[1:]))
    assert partition_quantiles(ranked, q) == expected
