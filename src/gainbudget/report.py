"""Rendering evaluation results: tables, a JSON document, and an SVG chart.

Renderers are pure functions of the report value; identical inputs produce
byte-identical output.  The chart is standalone SVG with no fonts or scripts
embedded, so it can be archived and diffed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from decimal import Decimal, localcontext
from typing import Any, Sequence
from xml.sax.saxutils import escape, quoteattr

from .budget import BudgetPlan, CostRule, MarginalReport, TargetPlan
from .metrics import ClassMetrics, GainProfile, ideal_profile
from .ranking import TiePolicy

_SERIES_COLORS = (
    "#d62728",  # red
    "#2ca02c",  # green
    "#1f77b4",  # blue
    "#ff7f0e",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
)

#: Smallest chart, in pixels, that leaves room for the axes and the legend.
MIN_CHART_WIDTH = 160
MIN_CHART_HEIGHT = 120

#: The plan tables: (title, ModelResult field, ((column header, plan field), ...)).
#: A plan's JSON keeps its field order; these columns need not follow it.
_PLAN_TABLES = (
    ("Fixed budget plan", "budget_plan", (
        ("Budget", "budget"), ("Quantiles", "affordable_quantiles"),
        ("ExpectedTP", "expected_tp"), ("Spend", "spend"), ("Leftover", "leftover"),
        ("TPPerUnit", "profit"),
    )),
    ("Cost to target", "target_plan", (
        ("TargetTP", "target_tp"), ("Quantiles", "quantiles_needed"), ("Cost", "cost"),
        ("Achievable", "achievable"),
    )),
    ("Marginal analysis", "marginal", (
        ("Annotated", "annotated_quantiles"), ("NextTP", "next_quantile_tp"),
        ("NextCost", "next_quantile_cost"), ("TPPerUnit", "tp_per_cost"),
        ("Exhausted", "exhausted"),
    )),
)

#: Per-class metric groups and measures; ClassMetrics names them `{group}_{measure}`.
_CLASS_GROUPS = ("positive", "negative", "weighted")
_CLASS_MEASURES = ("precision", "recall", "f1")


@dataclass(frozen=True)
class InputDigest:
    name: str
    path: str
    sha256: str


@dataclass(frozen=True)
class ModelResult:
    """Everything computed for one model; optional sections stay None."""

    profile: GainProfile
    class_metrics: ClassMetrics | None = None
    budget_plan: BudgetPlan | None = None
    target_plan: TargetPlan | None = None
    marginal: MarginalReport | None = None
    supplied_fscore: float | None = None

    @property
    def name(self) -> str:
        return self.profile.model_name


@dataclass(frozen=True)
class EvaluationReport:
    """Per-model results plus the run metadata that produced them."""

    models: tuple[ModelResult, ...]
    quantile_count: int
    tie_policy: TiePolicy
    cost_rule: CostRule | None = None
    currency_label: str | None = None
    inputs: tuple[InputDigest, ...] = ()

    def __post_init__(self) -> None:
        if not self.models:
            raise ValueError("report needs at least one model")

    def rankings(self) -> tuple[tuple[str, ...] | None, tuple[str, ...] | None, str | None]:
        """Model names by cost to target and by F-score: (by_cost, by_fscore, source).

        Cost order is cheapest first.  F-score order is highest first, by the
        supplied F-score if any model has one (source "supplied"), else by
        weighted F1 ("weighted_f1").  Ties keep run order.  An order is None
        when fewer than two models have its value, and so is the source when
        the F-score order is.
        """
        costed = [
            (m.target_plan.cost, i, m.name)
            for i, m in enumerate(self.models)
            if m.target_plan is not None
        ]
        by_cost = tuple(name for *_, name in sorted(costed)) if len(costed) > 1 else None
        if any(m.supplied_fscore is not None for m in self.models):
            source = "supplied"
            scored = [
                (-m.supplied_fscore, i, m.name)
                for i, m in enumerate(self.models)
                if m.supplied_fscore is not None
            ]
        else:
            source = "weighted_f1"
            scored = [
                (-m.class_metrics.weighted_f1, i, m.name)
                for i, m in enumerate(self.models)
                if m.class_metrics is not None
            ]
        if len(scored) < 2:
            return by_cost, None, None
        return by_cost, tuple(name for *_, name in sorted(scored)), source


def _fmt_money(units: int) -> str:
    """Minor units (cents) as a decimal amount with two places."""
    return f"{units // 100}.{units % 100:02d}"


def _fmt_ratio(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value:.2f}"


def _plan_cell(plan: BudgetPlan | TargetPlan | MarginalReport, name: str) -> str:
    """One plan field as table text: money, yes/no, a ratio, or an integer."""
    f = next(f for f in fields(plan) if f.name == name)
    value = getattr(plan, name)
    if f.metadata.get("money"):
        return _fmt_money(value)
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return _fmt_ratio(value)
    return str(value)


def _gain_cells(counts: Sequence[int], total: int) -> list[str]:
    return [f"{c / total:.2f}" for c in counts]


def _count_cells(counts: Sequence[int], total: int) -> list[str]:
    return [str(c) for c in counts]


def _sig12(counts: Sequence[int], total: int) -> list[str]:
    """Each count / total as a decimal string with 12 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 12
        divisor = Decimal(total)
        return [str(Decimal(c) / divisor) for c in counts]


def _text_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> list[str]:
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]

    def fmt(cells: Sequence[str]) -> str:
        parts = [cells[0].ljust(widths[0])]
        parts += [cells[i].rjust(widths[i]) for i in range(1, len(cells))]
        return "  ".join(parts).rstrip()

    return [fmt(headers)] + [fmt(row) for row in rows]


def _md_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> list[str]:
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join(" --- " for _ in headers) + "|")
    # A bare "|" in a cell (a model name) would end the cell early.
    lines += ["| " + " | ".join(cell.replace("|", "\\|") for cell in row) + " |" for row in rows]
    return lines


def render_table(r: EvaluationReport, style: str = "text") -> str:
    """Render the report as fixed-layout text or markdown tables."""
    if style not in ("text", "md"):
        raise ValueError(f"unknown table style {style!r}")
    md = style == "md"
    table = _md_table if md else _text_table

    meta = [f"quantiles={r.quantile_count}", f"tie-policy={r.tie_policy.value}"]
    if r.cost_rule is not None:
        meta.append(f"cost-rule={r.cost_rule.value}")
    if r.currency_label is not None:
        meta.append(f"currency={r.currency_label}")

    lines: list[str] = []
    if md:
        lines += ["# gainbudget report", "", " | ".join(meta)]
    else:
        lines.append("gainbudget report | " + " | ".join(meta))

    def heading(title: str) -> None:
        lines.extend(["", f"## {title}", ""] if md else ["", title])

    def section(title: str, headers: Sequence[str], rows: list[Sequence[str]]) -> None:
        heading(title)
        lines.extend(table(headers, rows))

    qcols = [f"Q{q + 1}" for q in range(r.quantile_count)]

    section(
        "Models",
        ["Model", "Instances", "Positives"],
        [[m.name, str(m.profile.size), str(m.profile.positive_total)] for m in r.models],
    )
    profiles = [m.profile for m in r.models]
    for title, attr, cells in (
        ("Gain", "per_quantile_positive", _gain_cells),
        ("Cumulative gain", "cumulative_positive_count", _gain_cells),
        ("Cumulative positives", "cumulative_positive_count", _count_cells),
    ):
        section(
            title,
            ["Model"] + qcols,
            [[p.model_name] + cells(getattr(p, attr), p.positive_total) for p in profiles],
        )

    classified = [m for m in r.models if m.class_metrics is not None]
    if classified:
        names = ["accuracy"] + [f"{g}_{x}" for g in _CLASS_GROUPS for x in _CLASS_MEASURES]
        section(
            "Classification at cutoff",
            ["Model", "k", "Acc", "P+", "R+", "F1+", "P-", "R-", "F1-", "wP", "wR", "wF1"],
            [
                [m.name, str(m.class_metrics.confusion.cutoff_k)]
                + [f"{getattr(m.class_metrics, name):.2f}" for name in names]
                for m in classified
            ],
        )
        flagged = [
            f"{m.name}: {', '.join(m.class_metrics.conventions)}"
            for m in classified
            if m.class_metrics.conventions
        ]
        if flagged:
            lines.append("zero-denominator convention (value set to 0): " + "; ".join(flagged))

    supplied = [m for m in r.models if m.supplied_fscore is not None]
    if supplied:
        section(
            "Supplied F-scores",
            ["Model", "F-score"],
            [[m.name, f"{m.supplied_fscore:.2f}"] for m in supplied],
        )

    for title, attr, columns in _PLAN_TABLES:
        plans = [(m.name, getattr(m, attr)) for m in r.models if getattr(m, attr) is not None]
        if plans:
            section(
                title,
                ["Model"] + [header for header, _ in columns],
                [
                    [name] + [_plan_cell(plan, field_name) for _, field_name in columns]
                    for name, plan in plans
                ],
            )

    by_cost, by_fscore, source = r.rankings()
    if by_cost or by_fscore:
        heading("Rankings")
        if by_cost:
            lines.append("by cost to target (cheapest first): " + " < ".join(by_cost))
        if by_fscore:
            label = "supplied F-score" if source == "supplied" else "weighted F1"
            lines.append(f"by {label} (highest first): " + " > ".join(by_fscore))

    return "\n".join(lines) + "\n"


def _plan_doc(
    plan: BudgetPlan | TargetPlan | MarginalReport | None, currency: str | None
) -> dict[str, Any] | None:
    """A plan's fields in declaration order; money as minor units, inf as "inf"."""
    if plan is None:
        return None
    doc: dict[str, Any] = {}
    for f in fields(plan):
        value = getattr(plan, f.name)
        if f.metadata.get("money"):
            value = {"minor_units": value, "currency": currency}
        elif isinstance(value, float) and not math.isfinite(value):
            value = "inf"
        doc[f.name] = value
    return doc


def render_json(r: EvaluationReport) -> str:
    """Render the report as a stable, versioned JSON document.

    Counts are integers, gains are decimal strings with 12 significant
    digits, money is minor-unit integers with the currency label.  Optional
    sections are always present, null when not requested.
    """
    currency = r.currency_label
    by_cost, by_fscore, source = r.rankings()
    models: list[dict[str, Any]] = []
    for m in r.models:
        profile = m.profile
        classification: dict[str, Any] | None = None
        if m.class_metrics is not None:
            cm = m.class_metrics
            classification = {
                "cutoff_k": cm.confusion.cutoff_k,
                "tp": cm.confusion.tp,
                "fp": cm.confusion.fp,
                "tn": cm.confusion.tn,
                "fn": cm.confusion.fn,
                "accuracy": cm.accuracy,
                **{
                    group: {name: getattr(cm, f"{group}_{name}") for name in _CLASS_MEASURES}
                    for group in _CLASS_GROUPS
                },
                "conventions": list(cm.conventions),
            }
        models.append(
            {
                "name": m.name,
                "instances": profile.size,
                "positive_total": profile.positive_total,
                "per_quantile_positive": list(profile.per_quantile_positive),
                "cumulative_positive_count": list(profile.cumulative_positive_count),
                "gain": _sig12(profile.per_quantile_positive, profile.positive_total),
                "cumulative": _sig12(profile.cumulative_positive_count, profile.positive_total),
                "classification": classification,
                "supplied_fscore": m.supplied_fscore,
                "budget_plan": _plan_doc(m.budget_plan, currency),
                "target_plan": _plan_doc(m.target_plan, currency),
                "marginal": _plan_doc(m.marginal, currency),
            }
        )

    doc = {
        "schema_version": 1,
        "run": {
            "quantiles": r.quantile_count,
            "tie_policy": r.tie_policy.value,
            "cost_rule": r.cost_rule.value if r.cost_rule is not None else None,
            "currency": currency,
            "inputs": [
                {"name": d.name, "path": d.path, "sha256": d.sha256} for d in r.inputs
            ],
        },
        "models": models,
        "rankings": {
            "by_cost_to_target": list(by_cost) if by_cost else None,
            "by_fscore": list(by_fscore) if by_fscore else None,
            "fscore_source": source,
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def render_chart(
    series: Sequence[GainProfile], include_baseline: bool = False, include_ideal: bool = False,
    width: int = 640, height: int = 480,
) -> str:
    """Render the cumulative-gain chart as a standalone SVG document.

    One curve per profile in `series`, plus the optional references.  Curves
    plot cumulative gain at quantile right edges with a (0, 0) origin point
    prepended; the x axis is the fraction of the ranked list reviewed.
    """
    if not series:
        raise ValueError("chart needs at least one series")
    counts = {p.quantile_count for p in series}
    if len(counts) > 1:
        raise ValueError(f"mismatched quantile counts across series: {sorted(counts)}")
    if width < MIN_CHART_WIDTH or height < MIN_CHART_HEIGHT:
        raise ValueError("chart dimensions too small")
    quantile_count = series[0].quantile_count
    left, right, top, bottom = 62, 18, 18, 50
    x0, y0 = left, top
    x1, y1 = width - right, height - bottom
    pw, ph = x1 - x0, y1 - y0

    def px(frac: float) -> float:
        return x0 + frac * pw

    def py(frac: float) -> float:
        return y0 + (1.0 - frac) * ph

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">'
    )
    out.append(f'<rect width="{width}" height="{height}" fill="#ffffff"/>')

    # Gridlines: vertical at every quantile boundary, horizontal every 25%.
    for q in range(quantile_count + 1):
        x = px(q / quantile_count)
        out.append(
            f'<line class="xgrid" x1="{x:.2f}" y1="{y0:.2f}" x2="{x:.2f}" y2="{y1:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
    for i in range(5):
        y = py(i / 4)
        out.append(
            f'<line class="ygrid" x1="{x0:.2f}" y1="{y:.2f}" x2="{x1:.2f}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )

    # Axes.
    out.append(
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x0:.2f}" y2="{y1:.2f}" '
        f'stroke="#333333" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{x0:.2f}" y1="{y1:.2f}" x2="{x1:.2f}" y2="{y1:.2f}" '
        f'stroke="#333333" stroke-width="1"/>'
    )

    # Tick labels.
    step = 1 if quantile_count <= 12 else -(-quantile_count // 10)
    for q in range(quantile_count + 1):
        if q % step and q != quantile_count:
            continue
        x = px(q / quantile_count)
        label = f"{100 * q / quantile_count:g}"
        out.append(
            f'<text class="xtick" x="{x:.2f}" y="{y1 + 16:.2f}" '
            f'text-anchor="middle" fill="#333333">{label}</text>'
        )
    for i in range(5):
        y = py(i / 4)
        out.append(
            f'<text class="ytick" x="{x0 - 6:.2f}" y="{y + 4:.2f}" '
            f'text-anchor="end" fill="#333333">{25 * i}</text>'
        )
    out.append(
        f'<text class="xlabel" x="{(x0 + x1) / 2:.2f}" y="{height - 12:.2f}" '
        f'text-anchor="middle" fill="#333333">% of candidates annotated</text>'
    )
    out.append(
        f'<text class="ylabel" x="14" y="{(y0 + y1) / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {(y0 + y1) / 2:.2f})" fill="#333333">'
        "% of positives found</text>"
    )

    def cumulative_points(profile: GainProfile) -> list[tuple[float, float]]:
        return [(0.0, 0.0)] + [
            ((q + 1) / quantile_count, c / profile.positive_total)
            for q, c in enumerate(profile.cumulative_positive_count)
        ]

    # (name, color, stroke width, dasharray or "", points as fractions)
    curves: list[tuple[str, str, str, str, list[tuple[float, float]]]] = []
    if include_baseline:
        curves.append(("random baseline", "#999999", "1.5", "6 4", [(0, 0), (1, 1)]))
    if include_ideal:
        first = series[0]
        ideal = ideal_profile(first.size, first.positive_total, quantile_count)
        curves.append(("ideal", "#333333", "1.5", "2 3", cumulative_points(ideal)))
    for i, profile in enumerate(series):
        color = _SERIES_COLORS[i % len(_SERIES_COLORS)]
        curves.append((profile.model_name, color, "2", "", cumulative_points(profile)))

    legend: list[str] = []  # drawn after every curve, so it stays on top
    for i, (name, color, stroke_width, dash, points) in enumerate(curves):
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        coords = " ".join(f"{px(fx):.2f},{py(fy):.2f}" for fx, fy in points)
        out.append(
            f'<polyline class="series" data-name={quoteattr(name)} fill="none" '
            f'stroke="{color}" stroke-width="{stroke_width}"{dash_attr} points="{coords}"/>'
        )
        y = y0 + 14 + i * 16
        legend.append(
            f'<line x1="{x0 + 12:.2f}" y1="{y - 4:.2f}" x2="{x0 + 34:.2f}" '
            f'y2="{y - 4:.2f}" stroke="{color}" stroke-width="2"{dash_attr}/>'
        )
        legend.append(
            f'<text class="legend" x="{x0 + 40:.2f}" y="{y:.2f}" '
            f'fill="#333333">{escape(name)}</text>'
        )
    out += legend
    out.append("</svg>")
    return "\n".join(out) + "\n"
