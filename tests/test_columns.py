"""The columnar ranking against a row-sort oracle.

The oracle sorts plain (id, score, positive) tuples with the keys that
defined each tie policy before rankings became index sorts over score
columns.
"""

from hypothesis import given, settings, strategies as st

from gainbudget import TiePolicy, confusion_at_cutoff, partition_quantiles, rank_instances

from conftest import make_dataset

ROW_KEYS = {
    TiePolicy.STABLE: lambda row: -row[1],
    TiePolicy.PESSIMISTIC: lambda row: (-row[1], row[2]),
    TiePolicy.OPTIMISTIC: lambda row: (-row[1], not row[2]),
}

# Few distinct scores, so most rows sit in tie blocks; 0.0 and -0.0 tie.
tied_rows = st.lists(
    st.tuples(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.5]), st.booleans()),
    min_size=1,
    max_size=60,
).map(lambda rows: tuple((str(i), s, p) for i, (s, p) in enumerate(rows)))


def columns(rows):
    return make_dataset("eq", *zip(*rows))


@given(tied_rows, st.sampled_from(list(TiePolicy)))
@settings(max_examples=300)
def test_ranked_ids_match_row_sort(rows, policy):
    d = columns(rows)
    ranked = rank_instances(d, policy)
    expected = [row[0] for row in sorted(rows, key=ROW_KEYS[policy])]
    assert [d.ids[i] for i in ranked.indices] == expected


@given(tied_rows, st.sampled_from(list(TiePolicy)))
@settings(max_examples=200)
def test_prefix_sum_counts_match_recounts(rows, policy):
    ranked = rank_instances(columns(rows), policy)
    ranked_labels = [row[2] for row in sorted(rows, key=ROW_KEYS[policy])]
    n = len(rows)
    for k in range(n + 1):
        assert confusion_at_cutoff(ranked, k).tp == sum(ranked_labels[:k])
    for q in range(1, n + 1):
        cuts = [i * n // q for i in range(q + 1)]
        expected = tuple(sum(ranked_labels[a:b]) for a, b in zip(cuts, cuts[1:]))
        assert partition_quantiles(ranked, q).per_quantile_positive == expected



@given(tied_rows, st.sampled_from([TiePolicy.PESSIMISTIC, TiePolicy.OPTIMISTIC]), st.data())
@settings(max_examples=300)
def test_bound_policies_ignore_row_order(rows, policy, data):
    # Under these policies a tie block's labels, not its row order, decide
    # the ranking, so every permutation of the rows gives the same counts.
    shuffled = data.draw(st.permutations(rows))
    assert rank_instances(columns(shuffled), policy).cum == rank_instances(columns(rows), policy).cum
