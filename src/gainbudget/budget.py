"""Annotation-cost planning over gain profiles.

Three decisions are covered: how many positives a fixed budget buys, the
cheapest route to a target number of positives, and whether one more
quantile of annotation is worth paying for.

All money is exact: a decimal amount (a unit cost or a budget) is read once as
integers a/b, and a/b times units/per leaves this module as an int of minor
units (whole cents), (200*a*units + b*per) // (2*b*per), rounded half-up once
from the exact rational; renderers only format it.  Under the default
fractional rule q of Q quantiles cost unit_cost * N * q / Q; the `integer`
rule prices the instances in the first q floor-rule quantiles.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from decimal import Decimal
from enum import Enum

from .metrics import GainProfile


class CostRule(str, Enum):
    FRACTIONAL = "fractional"
    INTEGER = "integer"


class _FullRecall:
    def __repr__(self) -> str:
        return "FULL_RECALL"


#: Target marker meaning "recover every positive instance".
FULL_RECALL = _FullRecall()


class CostModel(namedtuple("CostModel", "unit_cost currency_label cost_rule")):
    """Per-candidate annotation price (a Decimal) plus the pricing rule for quantiles."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too

    def __new__(cls, unit_cost: Decimal, currency_label: str = "$",
                cost_rule: CostRule = CostRule.FRACTIONAL) -> CostModel:
        if not isinstance(unit_cost, Decimal):
            raise TypeError(f"unit cost must be a Decimal, got {unit_cost!r}")
        if unit_cost <= 0:
            raise ValueError(f"unit cost must be positive, got {unit_cost}")
        return super().__new__(cls, unit_cost, currency_label, cost_rule)


#: The plan fields that hold an amount of money, as an int of minor units.
_MONEY = frozenset({"budget", "spend", "leftover", "cost", "next_quantile_cost"})


class BudgetPlan(namedtuple("BudgetPlan", "budget affordable_quantiles expected_tp spend "
                                          "leftover profit")):
    """What a fixed budget buys: the affordable prefix and its yield."""

    __slots__ = ()


class TargetPlan(namedtuple("TargetPlan", "target_tp achievable quantiles_needed cost")):
    """Cheapest quantile prefix that reaches a target positive count."""

    __slots__ = ()


class MarginalReport(namedtuple("MarginalReport", "annotated_quantiles next_quantile_tp "
                                                  "next_quantile_cost tp_per_cost exhausted")):
    """Yield and price of annotating one more quantile."""

    __slots__ = ()


def _to_minor(amount: Decimal, units: int = 1, per: int = 1) -> int:
    """amount * units / per, rounded half-up to whole minor units (cents)."""
    a, b = amount.as_integer_ratio()
    return (200 * a * units + b * per) // (2 * b * per)


def _span_cost(cm: CostModel, size: int, done: int, q: int, quantile_count: int) -> int:
    """Price in minor units of quantiles done+1 to q: their exact price, rounded once."""
    if cm.cost_rule is CostRule.INTEGER:
        return _to_minor(cm.unit_cost, q * size // quantile_count - done * size // quantile_count)
    return _to_minor(cm.unit_cost, size * (q - done), quantile_count)


def quantile_cost(cm: CostModel, size: int, q: int, quantile_count: int) -> int:
    """Price in minor units of annotating the first q of `quantile_count` quantiles."""
    if quantile_count < 1:
        raise ValueError(f"quantile count must be positive, got {quantile_count}")
    if not 0 <= q <= quantile_count:
        raise ValueError(f"q must be in 0..{quantile_count}, got {q}")
    return _span_cost(cm, size, 0, q, quantile_count)


def profit_ratio(tp: int, cost: int) -> float:
    """Positive instances gained per currency unit spent; `cost` is in minor units.

    0 when nothing was gained; +inf when something was gained for free.
    """
    if cost < 0:
        raise ValueError(f"cost must be non-negative, got {cost}")
    if tp == 0:
        return 0.0
    if cost == 0:
        return math.inf
    return tp * 100 / cost  # int / int is the float nearest the exact ratio


def fixed_budget_plan(g: GainProfile, cm: CostModel, budget: Decimal) -> BudgetPlan:
    """Fixed-budget plan: maximize positives the budget can buy.

    A budget exactly equal to a prefix cost affords that prefix.  The
    rounded prefix cost is compared with the exact, unrounded budget.
    """
    if not isinstance(budget, Decimal):
        raise TypeError(f"budget must be a Decimal, got {budget!r}")
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    a, b = budget.as_integer_ratio()
    # A whole-cent cost is within the budget iff it is at most this many cents.
    limit = 100 * a // b
    quantile_count = g.quantile_count
    # Prefix costs never decrease with q, so the affordable prefix is a bisection.
    affordable = bisect_right(
        range(1, quantile_count + 1),
        limit,
        key=lambda q: quantile_cost(cm, g.size, q, quantile_count),
    )
    expected_tp = g.cumulative_positive_count[affordable - 1] if affordable else 0
    spend = quantile_cost(cm, g.size, affordable, quantile_count)
    # Rounding the budget and subtracting whole cents equals rounding the
    # exact leftover, so the leftover is rounded once as well.
    rounded = _to_minor(budget)
    return BudgetPlan(
        budget=rounded,
        affordable_quantiles=affordable,
        expected_tp=expected_tp,
        spend=spend,
        leftover=rounded - spend,
        profit=profit_ratio(expected_tp, spend),
    )


def cost_to_target(
    g: GainProfile, cm: CostModel, target: int | _FullRecall
) -> TargetPlan:
    """Target plan: cheapest quantile prefix yielding `target` positives.

    FULL_RECALL targets every positive.  An impossible target reports
    achievable=False with the cost of annotating everything.
    """
    goal = g.positive_total if isinstance(target, _FullRecall) else target
    if goal < 1:  # never so for FULL_RECALL: a profile has a positive
        raise ValueError(f"target must be at least 1, got {target}")
    quantile_count = g.quantile_count
    # Cumulative counts never decrease, so the first prefix reaching the goal
    # is a bisection; an unreachable goal prices every quantile.
    needed = min(bisect_left(g.cumulative_positive_count, goal) + 1, quantile_count)
    return TargetPlan(
        target_tp=goal,
        achievable=goal <= g.positive_total,
        quantiles_needed=needed,
        cost=quantile_cost(cm, g.size, needed, quantile_count),
    )


def marginal_analysis(g: GainProfile, cm: CostModel, annotated: int) -> MarginalReport:
    """Stop-or-continue: yield of the next quantile after `annotated` are done."""
    quantile_count = g.quantile_count
    if not 0 <= annotated < quantile_count:
        raise ValueError(f"annotated must be in 0..{quantile_count - 1}, got {annotated}")
    cumulative = g.cumulative_positive_count
    done = cumulative[annotated - 1] if annotated else 0
    next_tp = cumulative[annotated] - done
    next_cost = _span_cost(cm, g.size, annotated, annotated + 1, quantile_count)
    return MarginalReport(
        annotated_quantiles=annotated,
        next_quantile_tp=next_tp,
        next_quantile_cost=next_cost,
        tp_per_cost=profit_ratio(next_tp, next_cost),
        exhausted=done == g.positive_total,
    )
