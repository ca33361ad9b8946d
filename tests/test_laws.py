"""Laws of the budget answers that follow from the definitions, with no reference to compare.

Refinement: cutting one ranking into Q*k quantiles instead of Q (k >= 1, Q*k <= N) keeps every
edge of the Q cut, so the counts and prices at those edges agree, and the finer cut can only
find a cheaper route to a target or more positives within a budget.
"""

from decimal import Decimal

from hypothesis import given, settings, strategies as st

from gainbudget import (
    FULL_RECALL,
    CostModel,
    CostRule,
    TiePolicy,
    cost_to_target,
    fixed_budget_plan,
    gain_profile,
    ideal_profile,
    partition_quantiles,
    quantile_cost,
    rank_instances,
)

from conftest import make_dataset

#: Few distinct scores, so rows tie within and across labels and across quantile edges.
SCORES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5])
UNIT_COSTS = st.sampled_from([Decimal(c) for c in ("0.04", "0.015", "1", "3.333", "0.001")])


@st.composite
def refinements(draw):
    """(ranking, Q, k, cost model): 1 to 60 rows with a positive, Q*k <= N."""
    rows = draw(st.lists(st.tuples(SCORES, st.booleans()), min_size=1, max_size=60))
    if not any(label for _, label in rows):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = (rows[i][0], True)
    ranked = rank_instances(make_dataset("m", *zip(*rows)), draw(st.sampled_from(list(TiePolicy))))
    quantiles = draw(st.integers(1, ranked.size))
    k = draw(st.integers(1, ranked.size // quantiles))
    cm = CostModel(draw(UNIT_COSTS), cost_rule=draw(st.sampled_from(list(CostRule))))
    return ranked, quantiles, k, cm


def profile_at(ranked, quantiles):
    return gain_profile(ranked, partition_quantiles(ranked, quantiles))


@given(refinements())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_a_finer_cut_keeps_the_counts_and_prices_at_the_shared_edges(case):
    ranked, quantiles, k, cm = case
    coarse, fine = profile_at(ranked, quantiles), profile_at(ranked, quantiles * k)
    assert coarse.cumulative_positive_count == fine.cumulative_positive_count[k - 1::k]
    for q in range(quantiles + 1):
        assert (quantile_cost(cm, ranked.size, q, quantiles)
                == quantile_cost(cm, ranked.size, q * k, quantiles * k))


@given(refinements(), st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_a_finer_cut_costs_no_more_and_buys_no_fewer(case, data):
    ranked, quantiles, k, cm = case
    coarse, fine = profile_at(ranked, quantiles), profile_at(ranked, quantiles * k)
    # A target past the positives is not achievable: both price every quantile.
    target = data.draw(st.integers(1, ranked.positive_total + 2) | st.just(FULL_RECALL))
    assert cost_to_target(fine, cm, target).cost <= cost_to_target(coarse, cm, target).cost
    # Any budget in thousandths up to a little past the price of every quantile.
    full = quantile_cost(cm, ranked.size, quantiles, quantiles)
    budget = Decimal(data.draw(st.integers(0, 10 * full + 50))).scaleb(-3)
    assert (fixed_budget_plan(fine, cm, budget).expected_tp
            >= fixed_budget_plan(coarse, cm, budget).expected_tp)


@given(st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_ideal_profile_is_its_closed_form(data):
    # The perfect ranker's first q of Q quantiles hold min(P, floor(q*N/Q)) positives.
    size = data.draw(st.integers(1, 200))
    positives = data.draw(st.integers(1, size))
    quantiles = data.draw(st.integers(1, size))
    assert (ideal_profile(size, positives, quantiles).cumulative_positive_count
            == tuple(min(positives, q * size // quantiles) for q in range(1, quantiles + 1)))
