import json
import re
import xml.etree.ElementTree as ET
from decimal import Decimal
from xml.sax.saxutils import escape, quoteattr

import pytest
from hypothesis import given, settings, strategies as st

from gainbudget import (
    FULL_RECALL,
    ConfusionMatrix,
    CostModel,
    EvaluationReport,
    GainProfile,
    ModelResult,
    TargetPlan,
    TiePolicy,
    class_metrics,
    confusion_at_cutoff,
    cost_to_target,
    fixed_budget_plan,
    gain_profile,
    ideal_profile,
    marginal_analysis,
    partition_quantiles,
    rank_instances,
    render_chart,
    render_json,
    render_table,
)
from gainbudget.report import _escape, _json

CM = CostModel(unit_cost=Decimal("0.04"))
SVG = "{http://www.w3.org/2000/svg}"


def worked_profile(worked_datasets, key="s1m1", quantiles=6):
    ranked = rank_instances(worked_datasets[key])
    return ranked, gain_profile(ranked, partition_quantiles(ranked, quantiles))


def uniform_profile(quantile_count):
    """One positive per quantile: the random ranker's diagonal."""
    return GainProfile("random", (1,) * quantile_count, quantile_count, quantile_count)


def single_model_report(worked_datasets):
    _, profile = worked_profile(worked_datasets)
    return EvaluationReport(
        models=(ModelResult(profile=profile),),
        tie_policy=TiePolicy.STABLE,
    )


def case_study_report(case_study_profiles, fscores=None):
    models = []
    for name in ("m1", "m2", "m3"):
        profile = case_study_profiles[name]
        models.append(
            ModelResult(
                profile=profile,
                target_plan=cost_to_target(profile, CM, FULL_RECALL),
                supplied_fscore=(fscores or {}).get(name),
                # Only m1 names its input file, so run.inputs lists m1 alone.
                path="m1.csv" if name == "m1" else None,
                sha256="0" * 64 if name == "m1" else None,
            )
        )
    return EvaluationReport(models=tuple(models), tie_policy=TiePolicy.STABLE, cost_model=CM)


def parse_series(svg: str) -> dict[str, list[tuple[float, float]]]:
    root = ET.fromstring(svg)
    series = {}
    for poly in root.iter(f"{SVG}polyline"):
        name = poly.get("data-name")
        points = [
            tuple(float(v) for v in pair.split(","))
            for pair in poly.get("points").split()
        ]
        series[name] = points
    return series


def xgrid_positions(svg: str) -> list[float]:
    root = ET.fromstring(svg)
    xs = [
        float(line.get("x1"))
        for line in root.iter(f"{SVG}line")
        if line.get("class") == "xgrid"
    ]
    return sorted(xs)


class TestTable:
    def test_cost_column(self, case_study_profiles):
        text = render_table(case_study_report(case_study_profiles))
        assert "Cost to target" in text
        for value in ("16.73", "33.46", "41.82"):
            assert value in text

    def test_minimal_report_has_no_budget_sections(self, worked_datasets):
        text = render_table(single_model_report(worked_datasets))
        assert "Gain" in text and "Cumulative gain" in text
        for absent in ("Cost to target", "Fixed budget", "Marginal", "Classification"):
            assert absent not in text

    def test_identical_models_identical_rows(self, worked_datasets):
        _, profile = worked_profile(worked_datasets)
        report = EvaluationReport(
            models=(ModelResult(profile=profile), ModelResult(profile=profile)),
            tie_policy=TiePolicy.STABLE,
        )
        lines = render_table(report).splitlines()
        rows = [l for l in lines if l.startswith(profile.model_name)]
        assert len(rows) >= 2
        assert len(set(rows)) == len(rows) // 2

    def test_two_decimal_gain(self, worked_datasets):
        text = render_table(single_model_report(worked_datasets))
        assert "0.33" in text
        assert "1.00" in text

    def test_markdown_variant(self, case_study_profiles):
        md = render_table(case_study_report(case_study_profiles), style="md")
        assert md.startswith("# gainbudget report")
        assert "| Model |" in md
        assert "| 16.73 |" in md

    def test_markdown_pipe_in_name_is_escaped(self, worked_datasets):
        ranked, profile = worked_profile(worked_datasets, quantiles=3)
        piped = GainProfile("a|b", profile.per_quantile_positive, profile.positive_total, 6)
        model = ModelResult(
            profile=piped,
            class_metrics=class_metrics(confusion_at_cutoff(ranked, 2)),
            budget_plan=fixed_budget_plan(piped, CM, Decimal("0.1")),
            target_plan=cost_to_target(piped, CM, FULL_RECALL),
            marginal=marginal_analysis(piped, CM, 1),
            supplied_fscore=0.5,
        )
        report = EvaluationReport(models=(model,), tie_policy=TiePolicy.STABLE)
        tables = re.findall(r"(?m)(?:^\|.*\n)+", render_table(report, style="md"))
        assert len(tables) == 9  # every table has a row for the model
        for table in tables:
            header, *rows = table.splitlines()
            assert "a\\|b" in rows[-1]
            for row in rows:
                assert len(re.findall(r"(?<!\\)\|", row)) == header.count("|"), row

    def test_mismatched_quantile_counts_rejected(self, worked_datasets):
        # The quantile count is read from the models, so they must agree on it.
        models = tuple(
            ModelResult(profile=gain_profile(r, partition_quantiles(r, q)))
            for r, q in ((rank_instances(worked_datasets["s1m1"]), 3),
                         (rank_instances(worked_datasets["s1m2"]), 2))
        )
        with pytest.raises(ValueError, match="mismatched quantile counts across models"):
            EvaluationReport(models=models, tie_policy=TiePolicy.STABLE)

    def test_unknown_style_rejected(self, worked_datasets):
        with pytest.raises(ValueError):
            render_table(single_model_report(worked_datasets), style="html")

    def test_rankings_footer(self, case_study_profiles):
        report = case_study_report(
            case_study_profiles, fscores={"m1": 0.70, "m2": 0.74, "m3": 0.77}
        )
        text = render_table(report)
        assert "by cost to target (cheapest first): m1 < m2 < m3" in text
        assert "by supplied F-score (highest first): m3 > m2 > m1" in text

    def test_classification_section(self, worked_datasets):
        ranked, profile = worked_profile(worked_datasets, "s2m1")
        confusion = confusion_at_cutoff(ranked, 4)
        metrics = class_metrics(confusion)
        report = EvaluationReport(
            models=(ModelResult(profile=profile, class_metrics=metrics),),
            tie_policy=TiePolicy.STABLE,
        )
        text = render_table(report)
        assert "Classification at cutoff" in text
        assert "0.17" in text  # accuracy 1/6 shown to two decimals

    def test_deterministic(self, case_study_profiles):
        report = case_study_report(case_study_profiles)
        assert render_table(report) == render_table(report)


class TestJson:
    def test_worked_example_counts(self, worked_datasets):
        doc = json.loads(render_json(single_model_report(worked_datasets)))
        model = doc["models"][0]
        assert model["cumulative_positive_count"] == [1, 1, 1, 2, 2, 3]
        assert model["per_quantile_positive"] == [1, 0, 0, 1, 0, 1]
        assert doc["schema_version"] == 1

    def test_gains_are_12_digit_strings(self, worked_datasets):
        doc = json.loads(render_json(single_model_report(worked_datasets)))
        model = doc["models"][0]
        assert model["gain"][0] == "0.333333333333"
        assert model["cumulative"][-1] == "1"

    def test_optional_sections_null(self, worked_datasets):
        doc = json.loads(render_json(single_model_report(worked_datasets)))
        model = doc["models"][0]
        for key in ("classification", "budget_plan", "target_plan", "marginal", "supplied_fscore"):
            assert key in model and model[key] is None
        assert doc["rankings"]["by_cost_to_target"] is None

    def test_money_as_minor_units(self, case_study_profiles):
        doc = json.loads(render_json(case_study_report(case_study_profiles)))
        costs = [m["target_plan"]["cost"] for m in doc["models"]]
        assert [c["minor_units"] for c in costs] == [1673, 3346, 4182]
        assert costs[0]["currency"] == "$"

    def test_free_gain_is_inf(self, case_study_profiles):
        # At $0.00002 a candidate the first decile (209.1 candidates) costs
        # $0.004182, which rounds to 0 cents: its 205 positives come free.
        cm = CostModel(unit_cost=Decimal("0.00002"))
        profile = case_study_profiles["m1"]
        report = EvaluationReport(
            models=(ModelResult(profile=profile, marginal=marginal_analysis(profile, cm, 0)),),
            tie_policy=TiePolicy.STABLE,
        )
        marginal = json.loads(render_json(report))["models"][0]["marginal"]
        assert marginal["next_quantile_cost"] == {"minor_units": 0, "currency": None}
        assert marginal["tp_per_cost"] == "inf"
        assert list(marginal) == [
            "annotated_quantiles", "next_quantile_tp", "next_quantile_cost",
            "tp_per_cost", "exhausted",
        ]

    def test_run_metadata(self, case_study_profiles):
        doc = json.loads(render_json(case_study_report(case_study_profiles)))
        run = doc["run"]
        assert run["quantiles"] == 10
        assert run["tie_policy"] == "stable"
        assert run["cost_rule"] == "fractional"
        assert run["inputs"] == [{"name": "m1", "path": "m1.csv", "sha256": "0" * 64}]

    def test_round_trip_counts_exact(self, case_study_profiles):
        report = case_study_report(case_study_profiles)
        doc = json.loads(render_json(report))
        for entry, model in zip(doc["models"], report.models):
            assert entry["per_quantile_positive"] == list(model.profile.per_quantile_positive)
            assert entry["cumulative_positive_count"] == list(model.profile.cumulative_positive_count)
            assert entry["positive_total"] == model.profile.positive_total
            assert entry["instances"] == model.profile.size

    def test_deterministic(self, case_study_profiles):
        report = case_study_report(case_study_profiles)
        assert render_json(report) == render_json(report)


def chart_of(*profiles, **kwargs):
    """The chart of a report that holds only these profiles."""
    return render_chart(EvaluationReport(tuple(map(ModelResult, profiles)), TiePolicy.STABLE),
                        **kwargs)


class TestChart:
    def chart(self, case_study_profiles, **kwargs):
        return chart_of(*(case_study_profiles[m] for m in ("m1", "m2", "m3")), **kwargs)

    def test_full_recall_gridline_anchors(self, case_study_profiles):
        svg = self.chart(case_study_profiles)
        series = parse_series(svg)
        grid = xgrid_positions(svg)
        top_y = min(y for _, y in series["m1"])
        anchors = {"m1": 2, "m2": 4, "m3": 5}
        for model, gridline in anchors.items():
            first_full = next(p for p in series[model] if abs(p[1] - top_y) < 0.01)
            assert first_full[0] == pytest.approx(grid[gridline], abs=0.011)

    def test_polyline_starts_at_origin(self, case_study_profiles):
        svg = self.chart(case_study_profiles)
        series = parse_series(svg)
        grid = xgrid_positions(svg)
        bottom = max(y for _, y in series["m1"])
        assert series["m1"][0] == (pytest.approx(grid[0]), pytest.approx(bottom))

    def test_y_values_scale_cumulative(self, case_study_profiles):
        svg = self.chart(case_study_profiles)
        points = parse_series(svg)["m3"][1:]
        profile = case_study_profiles["m3"]
        cumulative = [c / profile.positive_total for c in profile.cumulative_positive_count]
        y0, y1 = min(y for _, y in points), max(p[1] for p in parse_series(svg)["m3"])
        for (x, y), c in zip(points, cumulative):
            expected = y1 - c * (y1 - y0)
            assert y == pytest.approx(expected, abs=0.011)

    def test_baseline_only_diagonal(self):
        series = parse_series(chart_of(uniform_profile(10), include_baseline=True))
        baseline = series["random baseline"]
        assert len(baseline) == 2
        (x0, y0), (x1, y1) = baseline
        assert x0 < x1 and y0 > y1
        # the random profile's own polyline lies on the same diagonal
        profile_points = series["random"]
        slope = (y1 - y0) / (x1 - x0)
        for x, y in profile_points:
            assert y == pytest.approx(y0 + slope * (x - x0), abs=0.02)

    def test_ideal_reaches_top_at_second_gridline(self, case_study_profiles):
        svg = self.chart(case_study_profiles, include_ideal=True)
        series = parse_series(svg)
        grid = xgrid_positions(svg)
        top_y = min(y for _, y in series["ideal"])
        first_full = next(p for p in series["ideal"] if abs(p[1] - top_y) < 0.01)
        assert first_full[0] == pytest.approx(grid[2], abs=0.011)

    def test_legend_names_present(self, case_study_profiles):
        svg = self.chart(case_study_profiles, include_baseline=True, include_ideal=True)
        for name in ("m1", "m2", "m3", "ideal", "random baseline"):
            assert f">{name}</text>" in svg

    @pytest.mark.parametrize("width,height", [(159, 480), (640, 119)])
    def test_too_small_rejected(self, width, height):
        with pytest.raises(ValueError, match="too small"):
            chart_of(uniform_profile(10), width=width, height=height)

    @pytest.mark.parametrize("width,height", [(10**6 + 1, 480), (640, 10**400)])
    def test_too_large_rejected(self, width, height):
        with pytest.raises(ValueError, match="too large"):
            chart_of(uniform_profile(10), width=width, height=height)

    def test_deterministic(self, case_study_profiles):
        assert self.chart(case_study_profiles) == self.chart(case_study_profiles)

    def test_name_escaping(self):
        profile = ideal_profile(4, 2, 2)
        for name, attr, body in (
            ("a<b&c", '"a&lt;b&amp;c"', "a&lt;b&amp;c"),
            # Both quote characters: the attribute keeps '"' and writes each '"' as &quot;.
            ("say \"hi\"\tit's & go", '"say &quot;hi&quot;&#9;it\'s &amp; go"',
             "say \"hi\"\tit's &amp; go"),
        ):
            renamed = type(profile)(
                model_name=name, per_quantile_positive=profile.per_quantile_positive,
                positive_total=profile.positive_total, size=profile.size,
            )
            svg = chart_of(renamed)
            assert name not in svg
            assert f"data-name={attr} " in svg and f">{body}</text>" in svg
            root = ET.fromstring(svg)
            assert root.find(f"{SVG}polyline").get("data-name") == name
            assert root.find(f"{SVG}text[@class='legend']").text == name


#: Text with non-ASCII characters and lone surrogates, which json escapes as \uXXXX.
ANY_TEXT = st.text(st.characters(exclude_categories=()))
JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | ANY_TEXT
#: Lists and dicts of any values; tuples, which `_json` encodes in one call, of scalars.
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.dictionaries(ANY_TEXT, inner, max_size=4)
                   | st.lists(JSON_SCALARS, max_size=4).map(tuple)),
    max_leaves=12,
)


@given(JSON_VALUES)
@settings(max_examples=300)
def test_json_lays_out_as_indent_2(value):
    assert "".join(_json(value)) == json.dumps(value, indent=2)


@given(st.text(st.sampled_from("&<>\"'\n\r\t") | st.characters()))
@settings(max_examples=300)
def test_escape_is_saxutils(text):
    assert _escape(text) == escape(text)
    assert _escape(text, attr=True) == quoteattr(text)


@st.composite
def ranked_reports(draw):
    """Reports whose models repeat names and tie on cost and F-score, some with no value."""
    supplied = draw(st.booleans())
    models = []
    for _ in range(draw(st.integers(1, 6))):
        name = draw(st.sampled_from("abc"))
        cost = draw(st.none() | st.integers(0, 3))
        fscore = draw(st.none() | st.sampled_from([0.0, 0.5, 0.75])) if supplied else None
        counts = draw(st.none() | st.tuples(*[st.integers(0, 2)] * 4).filter(any))
        models.append(ModelResult(
            profile=GainProfile(name, (1,), 1, 1),
            class_metrics=None if counts is None else class_metrics(
                ConfusionMatrix(*counts, cutoff_k=counts[0] + counts[1])),
            target_plan=None if cost is None else TargetPlan(1, True, 1, cost),
            supplied_fscore=fscore,
        ))
    return EvaluationReport(models=tuple(models), tie_policy=TiePolicy.STABLE)


@given(ranked_reports())
@settings(max_examples=300)
def test_rankings_sort_names_by_key_then_run_index(report):
    def order(keys):
        ranked = sorted((key, i) for i, key in enumerate(keys) if key is not None)
        return tuple(report.models[i].name for _, i in ranked) if len(ranked) > 1 else None

    models = report.models
    by_cost = order([m.target_plan and m.target_plan.cost for m in models])
    if any(m.supplied_fscore is not None for m in models):
        source = "supplied"
        keys = [None if m.supplied_fscore is None else -m.supplied_fscore for m in models]
    else:
        source = "weighted_f1"
        keys = [m.class_metrics and -m.class_metrics.weighted_f1 for m in models]
    by_fscore = order(keys)
    assert report.rankings() == (by_cost, by_fscore, source if by_fscore else None)
    # The JSON document and the text table print those same orders.
    assert json.loads(render_json(report))["rankings"] == {
        "by_cost_to_target": list(by_cost) if by_cost else None,
        "by_fscore": list(by_fscore) if by_fscore else None,
        "fscore_source": source if by_fscore else None,
    }
    label = "supplied F-score" if source == "supplied" else "weighted F1"
    lines = ([f"by cost to target (cheapest first): {' < '.join(by_cost)}"] if by_cost else [])
    lines += [f"by {label} (highest first): {' > '.join(by_fscore)}"] if by_fscore else []
    assert render_table(report).partition("\nRankings\n")[2].splitlines() == lines
