"""Budget-aware evaluation of binary-classifier rankings.

Rank scored predictions, split the ranking into quantiles, compute gain and
cumulative gain, and answer annotation-budget questions: what a fixed budget
yields, the cheapest route to a target number of positives, and whether
annotating one more quantile is worth the money.
"""

from types import ModuleType as _Module

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

#: Every name imported above, each written once; the submodules are not among them.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _Module))
