"""Budget-aware evaluation of binary-classifier rankings.

Rank scored predictions, split the ranking into quantiles, compute gain and
cumulative gain, and answer annotation-budget questions: what a fixed budget
yields, the cheapest route to a target number of positives, and whether
annotating one more quantile is worth the money.
"""

from .budget import (
    FULL_RECALL,
    BudgetPlan,
    CostModel,
    CostRule,
    MarginalReport,
    TargetPlan,
    cost_to_target,
    fixed_budget_plan,
    marginal_analysis,
    profit_ratio,
    quantile_cost,
)
from .dataset import (
    ColumnSchema,
    DatasetError,
    LabeledDataset,
    parse_dataset,
    read_dataset_file,
)
from .metrics import (
    ClassMetrics,
    ConfusionMatrix,
    GainProfile,
    class_metrics,
    confusion_at_cutoff,
    gain_profile,
    ideal_profile,
)
from .ranking import (
    QuantilePartition,
    RankedList,
    TiePolicy,
    partition_quantiles,
    rank_instances,
)
from .report import (
    EvaluationReport,
    ModelResult,
    render_chart,
    render_json,
    render_table,
)

__version__ = "0.1.0"

__all__ = [
    "FULL_RECALL",
    "BudgetPlan",
    "ClassMetrics",
    "ColumnSchema",
    "ConfusionMatrix",
    "CostModel",
    "CostRule",
    "DatasetError",
    "EvaluationReport",
    "GainProfile",
    "LabeledDataset",
    "MarginalReport",
    "ModelResult",
    "QuantilePartition",
    "RankedList",
    "TargetPlan",
    "TiePolicy",
    "class_metrics",
    "confusion_at_cutoff",
    "cost_to_target",
    "fixed_budget_plan",
    "gain_profile",
    "ideal_profile",
    "marginal_analysis",
    "parse_dataset",
    "partition_quantiles",
    "profit_ratio",
    "quantile_cost",
    "rank_instances",
    "read_dataset_file",
    "render_chart",
    "render_json",
    "render_table",
]
