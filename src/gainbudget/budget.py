"""Annotation-cost planning over gain profiles.

Three decisions are covered: how many positives a fixed budget buys, the
cheapest route to a target number of positives, and whether one more
quantile of annotation is worth paying for.

All money is exact: unit costs and budgets are decimals, intermediate
arithmetic uses rationals, and every amount leaves this module as an int of
minor units (whole cents), rounded half-up once from the exact rational;
renderers only format it.  The default cost of annotating q of Q quantiles
is the fractional rule unit_cost * N * q / Q; the `integer` rule instead
prices the instances actually contained in the first q floor-rule quantiles.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum
from fractions import Fraction

from .metrics import GainProfile


class CostRule(str, Enum):
    FRACTIONAL = "fractional"
    INTEGER = "integer"


class _FullRecall:
    def __repr__(self) -> str:
        return "FULL_RECALL"


#: Target marker meaning "recover every positive instance".
FULL_RECALL = _FullRecall()

#: Field metadata marking an amount of money, held as integer minor units.
_MONEY = {"money": True}


@dataclass(frozen=True)
class CostModel:
    """Per-candidate annotation price plus the pricing rule for quantiles."""

    unit_cost: Decimal
    currency_label: str = "$"
    cost_rule: CostRule = CostRule.FRACTIONAL

    def __post_init__(self) -> None:
        if not isinstance(self.unit_cost, Decimal):
            object.__setattr__(self, "unit_cost", Decimal(str(self.unit_cost)))
        if self.unit_cost <= 0:
            raise ValueError(f"unit cost must be positive, got {self.unit_cost}")


@dataclass(frozen=True)
class BudgetPlan:
    """What a fixed budget buys: the affordable prefix and its yield."""

    budget: int = field(metadata=_MONEY)
    affordable_quantiles: int
    expected_tp: int
    spend: int = field(metadata=_MONEY)
    leftover: int = field(metadata=_MONEY)
    profit: float


@dataclass(frozen=True)
class TargetPlan:
    """Cheapest quantile prefix that reaches a target positive count."""

    target_tp: int
    achievable: bool
    quantiles_needed: int
    cost: int = field(metadata=_MONEY)


@dataclass(frozen=True)
class MarginalReport:
    """Yield and price of annotating one more quantile."""

    annotated_quantiles: int
    next_quantile_tp: int
    next_quantile_cost: int = field(metadata=_MONEY)
    tp_per_cost: float
    exhausted: bool


def _exact_cost(cm: CostModel, size: int, q: int, quantile_count: int) -> Fraction:
    unit = Fraction(cm.unit_cost)
    if cm.cost_rule is CostRule.INTEGER:
        return unit * (q * size // quantile_count)
    return unit * size * q / quantile_count


def _to_minor(value: Fraction) -> int:
    """Round an exact amount half-up to whole minor units (cents)."""
    return math.floor(value * 100 + Fraction(1, 2))


def quantile_cost(cm: CostModel, size: int, q: int, quantile_count: int) -> int:
    """Price in minor units of annotating the first q of `quantile_count` quantiles."""
    if quantile_count < 1:
        raise ValueError(f"quantile count must be positive, got {quantile_count}")
    if not 0 <= q <= quantile_count:
        raise ValueError(f"q must be in 0..{quantile_count}, got {q}")
    return _to_minor(_exact_cost(cm, size, q, quantile_count))


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
    return float(Decimal(tp * 100) / Decimal(cost))


def fixed_budget_plan(g: GainProfile, cm: CostModel, budget: Decimal) -> BudgetPlan:
    """Fixed-budget plan: maximize positives the budget can buy.

    A budget exactly equal to a prefix cost affords that prefix.  The
    rounded prefix cost is compared with the exact, unrounded budget.
    """
    if not isinstance(budget, Decimal):
        budget = Decimal(str(budget))
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    exact = Fraction(budget)
    # A whole-cent cost is within the budget iff it is at most this many cents.
    limit = math.floor(exact * 100)
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
    rounded = _to_minor(exact)
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
    next_cost = _to_minor(
        _exact_cost(cm, g.size, annotated + 1, quantile_count)
        - _exact_cost(cm, g.size, annotated, quantile_count)
    )
    return MarginalReport(
        annotated_quantiles=annotated,
        next_quantile_tp=next_tp,
        next_quantile_cost=next_cost,
        tp_per_cost=profit_ratio(next_tp, next_cost),
        exhausted=done == g.positive_total,
    )
