import math
import random
from bisect import bisect_right
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gainbudget import (
    FULL_RECALL,
    CostModel,
    CostRule,
    GainProfile,
    cost_to_target,
    fixed_budget_plan,
    gain_profile,
    ideal_profile,
    marginal_analysis,
    partition_quantiles,
    profit_ratio,
    quantile_cost,
    rank_instances,
)
from gainbudget.cli import MAX_MONEY_EXPONENT

CM = CostModel(unit_cost=Decimal("0.04"))


@pytest.fixture
def m1(case_study_profiles):
    return case_study_profiles["m1"]


@pytest.fixture
def m3(case_study_profiles):
    return case_study_profiles["m3"]


class TestQuantileCost:
    def test_whole_list(self):
        assert quantile_cost(CM, 2091, 10, 10) == 8364

    def test_two_deciles(self):
        assert quantile_cost(CM, 2091, 2, 10) == 1673

    def test_nothing(self):
        assert quantile_cost(CM, 2091, 0, 10) == 0

    def test_one_decile_rounds_half_up(self):
        # exact 8.364 rounds half-up to 8.36
        assert quantile_cost(CM, 2091, 1, 10) == 836

    def test_integer_rule_prices_actual_sizes(self):
        cm = CostModel(unit_cost=Decimal("0.04"), cost_rule=CostRule.INTEGER)
        # first two floor-rule deciles hold 418 instances
        assert quantile_cost(cm, 2091, 2, 10) == 1672
        assert quantile_cost(cm, 2091, 10, 10) == 8364

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            quantile_cost(CM, 100, 11, 10)
        with pytest.raises(ValueError):
            quantile_cost(CM, 100, -1, 10)

    def test_strictly_increasing_and_linear(self):
        costs = [quantile_cost(CM, 2091, q, 10) for q in range(11)]
        assert all(a < b for a, b in zip(costs, costs[1:]))
        for q in range(6):
            assert abs(costs[2 * q] - 2 * costs[q]) <= 1

    def test_unit_cost_must_be_positive(self):
        with pytest.raises(ValueError):
            CostModel(unit_cost=Decimal("0"))

    @pytest.mark.parametrize("unit_cost", ["0_04", "0.04", 0.04, 1])
    def test_unit_cost_must_be_a_decimal(self, unit_cost):
        # The module reads no number text: "0_04" is not taken as 4.
        with pytest.raises(TypeError, match="unit cost must be a Decimal"):
            CostModel(unit_cost=unit_cost)

    def test_quantile_count_must_be_positive(self):
        with pytest.raises(ValueError, match="quantile count must be positive, got 0"):
            quantile_cost(CM, 10, 0, 0)

    def test_full_recall_prints_its_name(self):
        assert repr(FULL_RECALL) == "FULL_RECALL"


class TestFixedBudget:
    def test_case_study_two_decile_budget(self, case_study_profiles):
        expected = {"m1": 414, "m2": 410, "m3": 394}
        for model, tp in expected.items():
            plan = fixed_budget_plan(case_study_profiles[model], CM, Decimal("16.73"))
            assert plan.affordable_quantiles == 2
            assert plan.expected_tp == tp
            assert plan.spend == 1673
            assert plan.leftover == 0

    def test_budget_below_first_quantile(self, m1):
        plan = fixed_budget_plan(m1, CM, Decimal("5.00"))
        assert plan.affordable_quantiles == 0
        assert plan.expected_tp == 0
        assert plan.spend == 0
        assert plan.leftover == 500
        assert plan.profit == 0.0

    def test_sixteen_dollars_affords_one_decile(self, m1):
        # 16.00 < 16.73, so strict affordability stops at one decile
        plan = fixed_budget_plan(m1, CM, Decimal("16"))
        assert plan.affordable_quantiles == 1
        assert plan.expected_tp == 205

    def test_exact_boundary_is_affordable(self, m1):
        plan = fixed_budget_plan(m1, CM, Decimal("8.36"))
        assert plan.affordable_quantiles == 1

    def test_prefix_rounding_to_zero_cents_is_free(self, worked_datasets):
        # Payment is in whole cents: two quantiles of two candidates at $0.001
        # cost $0.004 exactly, which rounds to 0.00, so a zero budget buys them.
        ranked = rank_instances(worked_datasets["s1m1"])
        profile = gain_profile(ranked, partition_quantiles(ranked, 3))
        plan = fixed_budget_plan(profile, CostModel(unit_cost=Decimal("0.001")), Decimal("0"))
        assert plan.affordable_quantiles == 2
        assert plan.spend == 0
        assert plan.profit == math.inf

    def test_profit_is_tp_per_unit(self, m1):
        plan = fixed_budget_plan(m1, CM, Decimal("16.73"))
        assert plan.profit == pytest.approx(414 / 16.73)

    def test_negative_budget_rejected(self, m1):
        with pytest.raises(ValueError):
            fixed_budget_plan(m1, CM, Decimal("-1"))

    @pytest.mark.parametrize("budget", ["0_16", "16.73", 16.73, 16])
    def test_budget_must_be_a_decimal(self, m1, budget):
        with pytest.raises(TypeError, match="budget must be a Decimal"):
            fixed_budget_plan(m1, CM, budget)

    def test_monotone_in_budget(self):
        rng = random.Random(7)
        for _ in range(50):
            q = rng.randint(1, 12)
            counts = [rng.randint(0, 5) for _ in range(q)]
            if not any(counts):
                counts[rng.randrange(q)] = 1
            profile = GainProfile("r", tuple(counts), sum(counts), q * 10)
            costs = [quantile_cost(CM, profile.size, k, q) for k in range(1, q + 1)]
            last_tp = 0
            for budget_cents in range(0, q * 10 * 4 + 5, 3):
                plan = fixed_budget_plan(profile, CM, Decimal(budget_cents).scaleb(-2))
                assert plan.budget == budget_cents
                assert plan.affordable_quantiles == sum(c <= budget_cents for c in costs)
                assert plan.expected_tp >= last_tp
                assert plan.spend <= plan.budget
                assert plan.leftover == plan.budget - plan.spend
                last_tp = plan.expected_tp


class TestCostToTarget:
    def test_case_study_full_recall(self, case_study_profiles):
        expected = {
            "m1": (2, 1673),
            "m2": (4, 3346),
            "m3": (5, 4182),
        }
        for model, (quantiles, cost) in expected.items():
            plan = cost_to_target(case_study_profiles[model], CM, FULL_RECALL)
            assert plan.achievable
            assert plan.target_tp == 414
            assert plan.quantiles_needed == quantiles
            assert plan.cost == cost

    def test_target_one_on_ideal(self):
        plan = cost_to_target(ideal_profile(100, 10, 10), CM, 1)
        assert plan.quantiles_needed == 1

    def test_impossible_target(self, m1):
        plan = cost_to_target(m1, CM, 415)
        assert not plan.achievable
        assert plan.quantiles_needed == 10
        assert plan.cost == 8364

    def test_target_below_one_rejected(self, m1):
        with pytest.raises(ValueError):
            cost_to_target(m1, CM, 0)

    def test_full_recall_cost_matches_first_full_quantile(self, case_study_profiles):
        for profile in case_study_profiles.values():
            plan = cost_to_target(profile, CM, FULL_RECALL)
            first_full = next(
                q + 1
                for q, c in enumerate(profile.cumulative_positive_count)
                if c == profile.positive_total
            )
            assert plan.quantiles_needed == first_full
            assert plan.cost == quantile_cost(CM, profile.size, first_full, 10)

    def test_inverse_of_fscore_ranking(self, case_study_profiles):
        # cheapest-first is m1 < m2 < m3; supplied F-scores rank m3 > m2 > m1
        costs = {
            name: cost_to_target(profile, CM, FULL_RECALL).cost
            for name, profile in case_study_profiles.items()
        }
        by_cost = sorted(costs, key=lambda name: costs[name])
        fscores = {"m1": 0.70, "m2": 0.74, "m3": 0.77}
        by_fscore = sorted(fscores, key=lambda name: -fscores[name])
        assert by_cost == ["m1", "m2", "m3"]
        assert by_fscore == ["m3", "m2", "m1"]
        assert by_cost == list(reversed(by_fscore))


class TestMarginal:
    def test_m3_third_decile(self, m3):
        report = marginal_analysis(m3, CM, 2)
        assert report.next_quantile_tp == 8
        assert report.next_quantile_cost == 836
        assert not report.exhausted

    def test_m3_fourth_decile(self, m3):
        assert marginal_analysis(m3, CM, 3).next_quantile_tp == 4

    def test_m1_exhausted_after_two(self, m1):
        report = marginal_analysis(m1, CM, 2)
        assert report.next_quantile_tp == 0
        assert report.exhausted
        assert report.tp_per_cost == 0.0

    def test_from_zero(self, m3):
        report = marginal_analysis(m3, CM, 0)
        assert report.next_quantile_tp == 200
        assert not report.exhausted

    def test_bounds(self, m1):
        for bad in (-1, 10):
            with pytest.raises(ValueError):
                marginal_analysis(m1, CM, bad)

    def test_marginals_sum_to_total(self, case_study_profiles):
        for profile in case_study_profiles.values():
            total = sum(
                marginal_analysis(profile, CM, q).next_quantile_tp
                for q in range(profile.quantile_count)
            )
            assert total == profile.positive_total

    def test_integer_rule_prices_the_actual_quantile(self):
        cm = CostModel(unit_cost=Decimal("0.04"), cost_rule=CostRule.INTEGER)
        profile = GainProfile("m", (205, 209) + (0,) * 8, 414, 2091)
        # final decile holds 210 instances under the floor rule
        assert marginal_analysis(profile, cm, 9).next_quantile_cost == 840


class TestProfitRatio:
    def test_case_study_ratios(self):
        assert profit_ratio(414, 1673) == pytest.approx(24.75, abs=0.005)
        assert profit_ratio(414, 4182) == pytest.approx(9.90, abs=0.005)

    def test_zero_tp(self):
        assert profit_ratio(0, 836) == 0.0

    def test_free_gain_is_infinite(self):
        assert profit_ratio(5, 0) == math.inf

    def test_zero_tp_takes_precedence(self):
        assert profit_ratio(0, 0) == 0.0

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            profit_ratio(1, -1)


# The money rules as budget.py computed them with Fraction, kept as the reference for its
# integer arithmetic.
def _reference_cost(cm, size, q, quantile_count):
    unit = Fraction(cm.unit_cost)
    if cm.cost_rule is CostRule.INTEGER:
        return unit * (q * size // quantile_count)
    return unit * size * q / quantile_count


def _reference_minor(value):
    return math.floor(value * 100 + Fraction(1, 2))


def _reference_plan(cm, size, quantile_count, budget):
    """(budget, affordable_quantiles, spend, leftover) of a fixed-budget plan, in cents."""
    exact = Fraction(budget)
    affordable = bisect_right(
        range(1, quantile_count + 1), math.floor(exact * 100),
        key=lambda q: _reference_minor(_reference_cost(cm, size, q, quantile_count)),
    )
    spend = _reference_minor(_reference_cost(cm, size, affordable, quantile_count))
    rounded = _reference_minor(exact)
    return rounded, affordable, spend, rounded - spend


#: Amounts across the CLI's money range: 1 to 12 significant digits, the adjusted exponent
#: from -MAX_MONEY_EXPONENT to MAX_MONEY_EXPONENT (1e-100 up to below 1e101).
AMOUNTS = st.builds(
    lambda digits, adjusted: Decimal(f"{digits}E{adjusted - len(str(digits)) + 1}"),
    st.integers(1, 10**12 - 1), st.integers(-MAX_MONEY_EXPONENT, MAX_MONEY_EXPONENT),
)
RULES = st.sampled_from(CostRule)


class TestMoneyMatchesTheFractionReference:
    @settings(max_examples=400, derandomize=True)
    @given(unit=AMOUNTS, rule=RULES, data=st.data())
    def test_prefix_cost(self, unit, rule, data):
        size = data.draw(st.integers(1, 10**7), label="N")
        quantile_count = data.draw(st.integers(1, size), label="Q")
        q = data.draw(st.integers(0, quantile_count), label="q")
        cm = CostModel(unit, cost_rule=rule)
        expected = _reference_minor(_reference_cost(cm, size, q, quantile_count))
        assert quantile_cost(cm, size, q, quantile_count) == expected

    # A profile holds one count per quantile, so Q stays at 10^4 here to keep it small.
    @settings(max_examples=300, derandomize=True)
    @given(unit=AMOUNTS, budget=st.just(Decimal(0)) | AMOUNTS, rule=RULES, data=st.data())
    def test_plans(self, unit, budget, rule, data):
        size = data.draw(st.integers(1, 10**7), label="N")
        quantile_count = data.draw(st.integers(1, min(size, 10**4)), label="Q")
        annotated = data.draw(st.integers(0, quantile_count - 1), label="annotated")
        cm = CostModel(unit, cost_rule=rule)
        profile = GainProfile("r", (1,) * quantile_count, quantile_count, size)
        plan = fixed_budget_plan(profile, cm, budget)
        assert (plan.budget, plan.affordable_quantiles, plan.spend, plan.leftover) == \
            _reference_plan(cm, size, quantile_count, budget)
        expected = _reference_minor(_reference_cost(cm, size, annotated + 1, quantile_count)
                                    - _reference_cost(cm, size, annotated, quantile_count))
        assert marginal_analysis(profile, cm, annotated).next_quantile_cost == expected

    @settings(max_examples=400, derandomize=True)
    @given(tp=st.integers(1, 10**7), cost=st.integers(1, 10**112))
    def test_profit_ratio_is_the_float_nearest_the_exact_ratio(self, tp, cost):
        assert profit_ratio(tp, cost) == float(Fraction(tp * 100, cost))
