from itertools import accumulate, product

import pytest
from hypothesis import given, settings, strategies as st

from gainbudget import TiePolicy, partition_quantiles, rank_instances, ranking

from conftest import WORKED_ORDERS, make_dataset


def numbered_dataset(labels, scores):
    """Rows "1", "2", ... from paired labels and scores."""
    pairs = list(zip(labels, scores))
    ids = [str(i + 1) for i in range(len(pairs))]
    return make_dataset("t", ids, [float(s) for _, s in pairs], [l for l, _ in pairs])


def quantile_sizes(part):
    return tuple(b - a for a, b in zip(part.boundaries, part.boundaries[1:]))


@pytest.mark.parametrize("policy", list(TiePolicy))
@pytest.mark.parametrize("labels, scores", [
    *(([label], [0]) for label in (False, True)),
    *((list(labels), [1, s]) for labels in product((False, True), repeat=2) for s in (0, 1, 2)),
    # Two slices, the last of one row.
    ([i % 3 == 0 for i in range(ranking._GATHER + 1)], [i % 7 for i in range(ranking._GATHER + 1)]),
])
def test_cum_is_the_running_sum_of_ranked_labels(policy, labels, scores):
    # itemgetter gives a bare int, not a tuple, for a slice of one row.
    d = numbered_dataset(labels, scores)
    r = rank_instances(d, policy)
    assert list(r.cum) == list(accumulate((d.labels[i] for i in r.indices), initial=0))


class TestRankInstances:
    @pytest.mark.parametrize("key", sorted(WORKED_ORDERS))
    def test_worked_orders(self, worked_datasets, key):
        d = worked_datasets[key]
        ranked = rank_instances(d)
        assert [d.ids[i] for i in ranked.indices] == WORKED_ORDERS[key]
        assert ranked.positive_total == 3

    def test_scores_non_increasing(self, worked_datasets):
        d = worked_datasets["s2m2"]
        ranked = rank_instances(d)
        scores = [d.scores[i] for i in ranked.indices]
        assert scores == sorted(scores, reverse=True)

    def test_optimistic_ties_put_positives_first(self):
        d = numbered_dataset([False, True, False, True], [1, 1, 1, 1])
        ranked = rank_instances(d, TiePolicy.OPTIMISTIC)
        assert [bool(d.labels[i]) for i in ranked.indices] == [True, True, False, False]

    def test_pessimistic_ties_put_positives_last(self):
        d = numbered_dataset([False, True, False, True], [1, 1, 1, 1])
        ranked = rank_instances(d, TiePolicy.PESSIMISTIC)
        assert [bool(d.labels[i]) for i in ranked.indices] == [False, False, True, True]

    def test_stable_ties_keep_input_order(self):
        d = numbered_dataset([False, True, False, True], [1, 1, 1, 1])
        ranked = rank_instances(d, TiePolicy.STABLE)
        assert [d.ids[i] for i in ranked.indices] == ["1", "2", "3", "4"]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            rank_instances(make_dataset("e", [], [], []))


class TestPartition:
    def test_one_instance_per_quantile(self, worked_datasets):
        ranked = rank_instances(worked_datasets["s1m1"])
        part = partition_quantiles(ranked, 6)
        assert quantile_sizes(part) == (1, 1, 1, 1, 1, 1)
        assert part.per_quantile_positive == (1, 0, 0, 1, 0, 1)

    def test_single_bucket(self, worked_datasets):
        ranked = rank_instances(worked_datasets["s1m2"])
        part = partition_quantiles(ranked, 1)
        assert quantile_sizes(part) == (6,)
        assert part.per_quantile_positive == (3,)

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
        d = numbered_dataset([True] * 7, range(7))
        part = partition_quantiles(rank_instances(d), 3)
        assert part.boundaries == (0, 2, 4, 7)
        assert sum(quantile_sizes(part)) == 7
        assert max(quantile_sizes(part)) - min(quantile_sizes(part)) <= 1

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
    ranked = rank_instances(d)
    q = data.draw(st.integers(min_value=1, max_value=ranked.size))
    part = partition_quantiles(ranked, q)
    rebuilt = []
    for i in range(q):
        rebuilt.extend(ranked.indices[part.boundaries[i] : part.boundaries[i + 1]])
    assert rebuilt == ranked.indices


@given(small_datasets)
@settings(max_examples=200)
def test_order_is_permutation(d):
    ranked = rank_instances(d)
    assert sorted(d.ids[i] for i in ranked.indices) == sorted(d.ids)
    scores = [d.scores[i] for i in ranked.indices]
    assert all(a >= b for a, b in zip(scores, scores[1:]))


@given(small_datasets)
@settings(max_examples=200)
def test_doubling_scores_keeps_stable_order(d):
    # doubling is exact in binary floating point, so relative order is intact
    doubled = make_dataset(d.name, d.ids, [s * 2 for s in d.scores], d.labels)
    before = [d.ids[i] for i in rank_instances(d).indices]
    after = [doubled.ids[i] for i in rank_instances(doubled).indices]
    assert before == after


@given(small_datasets)
@settings(max_examples=200)
def test_tie_policy_prefix_bounds(d):
    # cum[k] is the positives in the top k; test_columns checks it against recounts.
    pes, sta, opt = (
        rank_instances(d, policy).cum
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
    for i, row in enumerate(ranked.indices):
        bucket = -(-(i + 1) * q // n) - 1
        expected[bucket] += d.labels[row]
    part = partition_quantiles(ranked, q)
    assert part.per_quantile_positive == tuple(expected)
