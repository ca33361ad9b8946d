import pytest
from hypothesis import given, settings, strategies as st

from gainbudget import (
    LabeledDataset,
    LabeledInstance,
    TiePolicy,
    partition_quantiles,
    rank_instances,
)

from conftest import WORKED_ORDERS


def make_dataset(labels, scores, name="t"):
    instances = tuple(
        LabeledInstance(str(i + 1), float(s), bool(l))
        for i, (l, s) in enumerate(zip(labels, scores))
    )
    return LabeledDataset.from_instances(name=name, rows=instances)


def quantile_sizes(part):
    return tuple(b - a for a, b in zip(part.boundaries, part.boundaries[1:]))


class TestRankInstances:
    @pytest.mark.parametrize("key", sorted(WORKED_ORDERS))
    def test_worked_orders(self, worked_datasets, key):
        ranked = rank_instances(worked_datasets[key])
        assert [inst.id for inst in ranked.order] == WORKED_ORDERS[key]
        assert ranked.positive_total == 3

    def test_scores_non_increasing(self, worked_datasets):
        ranked = rank_instances(worked_datasets["s2m2"])
        scores = [inst.score for inst in ranked.order]
        assert scores == sorted(scores, reverse=True)

    def test_optimistic_ties_put_positives_first(self):
        d = make_dataset([False, True, False, True], [1, 1, 1, 1])
        ranked = rank_instances(d, TiePolicy.OPTIMISTIC)
        assert [inst.positive for inst in ranked.order] == [True, True, False, False]

    def test_pessimistic_ties_put_positives_last(self):
        d = make_dataset([False, True, False, True], [1, 1, 1, 1])
        ranked = rank_instances(d, TiePolicy.PESSIMISTIC)
        assert [inst.positive for inst in ranked.order] == [False, False, True, True]

    def test_stable_ties_keep_input_order(self):
        d = make_dataset([False, True, False, True], [1, 1, 1, 1])
        ranked = rank_instances(d, TiePolicy.STABLE)
        assert [inst.id for inst in ranked.order] == ["1", "2", "3", "4"]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            rank_instances(LabeledDataset.from_instances(name="e", rows=()))


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
        d = make_dataset([True] * 7, range(7))
        part = partition_quantiles(rank_instances(d), 3)
        assert part.boundaries == (0, 2, 4, 7)
        assert sum(quantile_sizes(part)) == 7
        assert max(quantile_sizes(part)) - min(quantile_sizes(part)) <= 1

    @pytest.mark.parametrize("bad_q", [0, -1, 7])
    def test_quantile_count_bounds(self, bad_q):
        d = make_dataset([True] * 6, range(6))
        with pytest.raises(ValueError, match="quantile count"):
            partition_quantiles(rank_instances(d), bad_q)


small_datasets = st.builds(
    make_dataset,
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
        rebuilt.extend(ranked.order[part.boundaries[i] : part.boundaries[i + 1]])
    assert tuple(rebuilt) == ranked.order


@given(small_datasets)
@settings(max_examples=200)
def test_order_is_permutation(d):
    ranked = rank_instances(d)
    assert sorted(inst.id for inst in ranked.order) == sorted(
        inst.id for inst in d.instances
    )
    scores = [inst.score for inst in ranked.order]
    assert all(a >= b for a, b in zip(scores, scores[1:]))


@given(small_datasets)
@settings(max_examples=200)
def test_doubling_scores_keeps_stable_order(d):
    # doubling is exact in binary floating point, so relative order is intact
    doubled = LabeledDataset.from_instances(
        name=d.name,
        rows=tuple(
            LabeledInstance(i.id, i.score * 2, i.positive) for i in d.instances
        ),
    )
    before = [i.id for i in rank_instances(d).order]
    after = [i.id for i in rank_instances(doubled).order]
    assert before == after


@given(small_datasets)
@settings(max_examples=200)
def test_tie_policy_prefix_bounds(d):
    orders = {
        policy: rank_instances(d, policy).order
        for policy in (TiePolicy.PESSIMISTIC, TiePolicy.STABLE, TiePolicy.OPTIMISTIC)
    }

    def prefix_positives(order):
        total = 0
        out = []
        for inst in order:
            total += inst.positive
            out.append(total)
        return out

    pes = prefix_positives(orders[TiePolicy.PESSIMISTIC])
    sta = prefix_positives(orders[TiePolicy.STABLE])
    opt = prefix_positives(orders[TiePolicy.OPTIMISTIC])
    assert all(p <= s <= o for p, s, o in zip(pes, sta, opt))


@given(small_datasets, st.data())
@settings(max_examples=200)
def test_counts_match_brute_force(d, data):
    """Oracle: assign each rank i to quantile ceil((i+1)*Q/N) - 1 and count."""
    ranked = rank_instances(d)
    n = ranked.size
    q = data.draw(st.integers(min_value=1, max_value=n))
    expected = [0] * q
    for i, inst in enumerate(ranked.order):
        bucket = -(-(i + 1) * q // n) - 1
        expected[bucket] += inst.positive
    part = partition_quantiles(ranked, q)
    assert part.per_quantile_positive == tuple(expected)
