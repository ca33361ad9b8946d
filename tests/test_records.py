"""What every result record promises, however it is built: keyword construction with its
defaults, a `Name(field=value, ...)` repr in field order, equality by value, no writes, and
an equal record back from pickle and from copy.copy."""

import copy
import pickle
from array import array
from decimal import Decimal

import pytest

from gainbudget import (
    BudgetPlan,
    ClassMetrics,
    ColumnSchema,
    ConfusionMatrix,
    CostModel,
    CostRule,
    EvaluationReport,
    GainProfile,
    LabeledDataset,
    MarginalReport,
    ModelResult,
    RankedList,
    TargetPlan,
    TiePolicy,
)

PROFILE = GainProfile(model_name="m", per_quantile_positive=(1, 1), positive_total=2, size=4)
CONFUSION = ConfusionMatrix(tp=1, fp=1, tn=1, fn=1, cutoff_k=2)

#: (record, the arguments given, the defaults and derived fields it fills in), each dict in
#: field order.
RECORDS = [
    (ColumnSchema, {}, {
        "id_col": "id", "score_col": "score", "label_col": "label",
        "positive_tokens": frozenset({"1", "true"}), "negative_tokens": frozenset({"0", "false"}),
        "delimiter": ",",
    }),
    (LabeledDataset, {"name": "m", "scores": array("d", [0.5, -1.0]),
                      "labels": bytearray(b"\1\0")}, {}),
    (RankedList, {"name": "m", "size": 4, "positive_ranks": [0, 2]}, {}),
    (GainProfile, {"model_name": "m", "per_quantile_positive": (1, 1), "positive_total": 2,
                   "size": 4}, {"cumulative_positive_count": (1, 2)}),
    (ConfusionMatrix, {"tp": 1, "fp": 1, "tn": 1, "fn": 1, "cutoff_k": 2}, {}),
    (ClassMetrics, {
        "confusion": CONFUSION, "positive_precision": 0.5, "positive_recall": 0.5,
        "positive_f1": 0.5, "negative_precision": 0.5, "negative_recall": 0.5,
        "negative_f1": 0.5, "weighted_precision": 0.5, "weighted_recall": 0.5,
        "weighted_f1": 0.5, "accuracy": 0.5,
    }, {"conventions": ()}),
    (CostModel, {"unit_cost": Decimal("0.04")},
     {"currency_label": "$", "cost_rule": CostRule.FRACTIONAL}),
    (BudgetPlan, {"budget": 1673, "affordable_quantiles": 4, "expected_tp": 394, "spend": 1673,
                  "leftover": 0, "profit": 23.55}, {}),
    (TargetPlan, {"target_tp": 414, "achievable": True, "quantiles_needed": 10, "cost": 4182}, {}),
    (MarginalReport, {"annotated_quantiles": 4, "next_quantile_tp": 8,
                      "next_quantile_cost": 418, "tp_per_cost": 1.91, "exhausted": False}, {}),
    (ModelResult, {"profile": PROFILE}, {
        "class_metrics": None, "budget_plan": None, "target_plan": None, "marginal": None,
        "supplied_fscore": None, "path": None, "sha256": None,
    }),
    (EvaluationReport, {"models": (ModelResult(profile=PROFILE),), "tie_policy": TiePolicy.STABLE},
     {"cost_model": None}),
]
IDS = [record.__name__ for record, _, _ in RECORDS]


def build(record, given):
    return record(**copy.deepcopy(given))


@pytest.mark.parametrize("record,given,filled", RECORDS, ids=IDS)
def test_keyword_construction_fills_in_the_defaults(record, given, filled):
    made = build(record, given)
    assert type(made) is record
    assert {name: getattr(made, name) for name in {**given, **filled}} == {**given, **filled}


@pytest.mark.parametrize("record,given,filled", RECORDS, ids=IDS)
def test_repr_names_every_field_in_order(record, given, filled):
    fields = ", ".join(f"{name}={value!r}" for name, value in {**given, **filled}.items())
    assert repr(build(record, given)) == f"{record.__name__}({fields})"


@pytest.mark.parametrize("record,given,filled", RECORDS, ids=IDS)
def test_equal_values_compare_equal(record, given, filled):
    assert build(record, given) == build(record, given)
    assert not build(record, given) != build(record, given)


@pytest.mark.parametrize("record,given,filled", RECORDS, ids=IDS)
def test_fields_cannot_be_set_nor_attributes_added(record, given, filled):
    made = build(record, given)
    for name, value in {**given, **filled}.items():
        with pytest.raises(AttributeError):
            setattr(made, name, value)
    with pytest.raises(AttributeError):
        made.extra = 1
    assert repr(made) == repr(build(record, given))


@pytest.mark.parametrize("record,given,filled", RECORDS, ids=IDS)
def test_pickle_and_copy_give_an_equal_record(record, given, filled):
    made = build(record, given)
    for twin in (pickle.loads(pickle.dumps(made)), copy.copy(made)):
        assert type(twin) is record
        assert twin == made


def test_gain_profile_derives_its_cumulative_counts_and_refuses_them_as_an_argument():
    with pytest.raises(TypeError):
        GainProfile(model_name="m", per_quantile_positive=(1, 1), positive_total=2, size=4,
                    cumulative_positive_count=(1, 2))
    with pytest.raises(TypeError):
        GainProfile("m", (1, 1), 2, 4, (1, 2))
    assert GainProfile("m", (2, 0, 1), 3, 6).cumulative_positive_count == (2, 2, 3)


def test_replace_checks_and_derives_as_construction_does():
    with pytest.raises(ValueError, match="delimiter: '\"' is the quote character"):
        ColumnSchema()._replace(delimiter='"')
    assert PROFILE._replace(per_quantile_positive=(2, 0)).cumulative_positive_count == (2, 2)
    with pytest.raises(ValueError, match="must sum to positive_total"):
        PROFILE._replace(positive_total=3)
    with pytest.raises(TypeError, match="unit cost must be a Decimal, got 0.5"):
        CostModel(Decimal(1))._replace(unit_cost=0.5)
    with pytest.raises(ValueError, match="report needs at least one model"):
        EvaluationReport((ModelResult(PROFILE),), TiePolicy.STABLE)._replace(models=())


def test_records_are_named_tuples():
    # They iterate and compare as the tuple of their fields, in field order.
    assert CONFUSION == (1, 1, 1, 1, 2)
    assert list(CONFUSION._asdict().items()) == [
        ("tp", 1), ("fp", 1), ("tn", 1), ("fn", 1), ("cutoff_k", 2)]
    assert tuple(PROFILE) == ("m", (1, 1), 2, 4, (1, 2))
