"""Rendering evaluation results: tables, a JSON document, and an SVG chart.

Renderers are pure functions of the report value; identical inputs produce
byte-identical output.  The chart is standalone SVG with no fonts or scripts
embedded, so it can be archived and diffed.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from collections.abc import Callable, Sequence
from decimal import Context
from itertools import chain, repeat

from .budget import _MONEY, BudgetPlan, CostModel, MarginalReport, TargetPlan
from .metrics import GainProfile, ideal_profile
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
#: Largest chart, in pixels: far past any screen, and inside float range for the coordinates.
MAX_CHART_WIDTH = MAX_CHART_HEIGHT = 10**6

#: The plan tables: (title, key of a model's document, ((column header, plan field), ...)).
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


def _shared_quantile_count(profiles: Sequence[GainProfile], across: str) -> int:
    counts = {p.quantile_count for p in profiles}
    if len(counts) > 1:
        raise ValueError(f"mismatched quantile counts across {across}: {sorted(counts)}")
    return profiles[0].quantile_count


class ModelResult(namedtuple("ModelResult", "profile class_metrics budget_plan target_plan "
                                            "marginal supplied_fscore path sha256",
                             defaults=[None] * 7)):
    """Everything computed for one model, and its input file; optional parts stay None."""

    __slots__ = ()

    @property
    def name(self) -> str:
        return self.profile.model_name


class EvaluationReport(namedtuple("EvaluationReport", "models tie_policy cost_model")):
    """Per-model results plus the run settings they share; the quantile count is theirs."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too

    def __new__(cls, models: tuple[ModelResult, ...], tie_policy: TiePolicy,
                cost_model: CostModel | None = None) -> EvaluationReport:
        if not models:
            raise ValueError("report needs at least one model")
        _shared_quantile_count([m.profile for m in models], "models")
        return super().__new__(cls, models, tie_policy, cost_model)

    @property
    def quantile_count(self) -> int:
        return self.models[0].profile.quantile_count

    def rankings(self) -> tuple[tuple[str, ...] | None, tuple[str, ...] | None, str | None]:
        """Model names by cost to target and by F-score: (by_cost, by_fscore, source).

        Cost order is cheapest first.  F-score order is highest first, by the
        supplied F-score if any model has one (source "supplied"), else by
        weighted F1 ("weighted_f1").  Ties keep run order.  An order is None
        when fewer than two models have its value, and so is the source when
        the F-score order is.
        """
        costs = [None if m.target_plan is None else m.target_plan.cost for m in self.models]
        if any(m.supplied_fscore is not None for m in self.models):
            source, fscores = "supplied", [m.supplied_fscore for m in self.models]
        else:
            source = "weighted_f1"
            fscores = [None if m.class_metrics is None else m.class_metrics.weighted_f1
                       for m in self.models]
        by_fscore = self._order(fscores, highest_first=True)
        return self._order(costs, highest_first=False), by_fscore, source if by_fscore else None

    def _order(self, keys: list[float | None], highest_first: bool) -> tuple[str, ...] | None:
        """Names of the models with a key, sorted on it with equal keys in run order
        (a stable sort keeps them so, reversed too); None when under two have one."""
        held = [i for i, key in enumerate(keys) if key is not None]
        if len(held) < 2:
            return None
        held.sort(key=keys.__getitem__, reverse=highest_first)
        return tuple(self.models[i].name for i in held)


def _plan_cell(value: object) -> str:
    """One `_plan_doc` value as table text: money, yes/no, a ratio, "inf" or an integer."""
    if isinstance(value, dict):  # minor units (cents) as a decimal amount with two places
        return f"{value['minor_units'] // 100}.{value['minor_units'] % 100:02d}"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _each_once(fmt: Callable[[int], str], counts: Sequence[int]) -> tuple[str, ...]:
    """`fmt(c)` for each count, once per distinct count: P positives give at most P + 1."""
    text = {c: fmt(c) for c in set(counts)}
    return tuple(map(text.__getitem__, counts))


def _sig12(counts: Sequence[int], total: int) -> tuple[str, ...]:
    """Each count / total as a decimal string with 12 significant digits."""
    divide = Context(prec=12).divide
    return _each_once(lambda c: str(divide(c, total)), counts)


def _escape(text: str, attr: bool = False) -> str:
    """As `xml.sax.saxutils.escape`, or `quoteattr` with `attr`; that import pulls in urllib."""
    text = text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
    if not attr:
        return text
    text = text.replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' in text and "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


def _text_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> list[str]:
    """Rows under their headers, each column as wide as its widest cell; `rows` is not empty."""
    widths = list(map(max, *(map(len, cells) for cells in (headers, *rows))))
    return ["  ".join([cells[0].ljust(widths[0]), *map(str.rjust, cells[1:], widths[1:])]).rstrip()
            for cells in (headers, *rows)]


def _md_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> list[str]:
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + " --- |" * len(headers))
    # A bare "|" in a cell (a model name) would end the cell early.
    lines += ["| " + " | ".join(map(str.replace, row, repeat("|"), repeat("\\|"))) + " |"
              for row in rows]
    return lines


def render_table(r: EvaluationReport, style: str = "text") -> str:
    """Render the report as fixed-layout text or markdown tables of the JSON document."""
    if style not in ("text", "md"):
        raise ValueError(f"unknown table style {style!r}")
    md = style == "md"
    table = _md_table if md else _text_table
    doc = _document(r, gains=False)
    run, models = doc["run"], doc["models"]

    meta = [f"quantiles={run['quantiles']}", f"tie-policy={run['tie_policy']}"]
    if run["cost_rule"] is not None:
        meta += [f"cost-rule={run['cost_rule']}", f"currency={run['currency']}"]

    lines: list[str] = []
    if md:
        lines += ["# gainbudget report", "", " | ".join(meta)]
    else:
        lines.append("gainbudget report | " + " | ".join(meta))

    def heading(title: str) -> None:
        lines.extend(["", f"## {title}", ""] if md else ["", title])

    def section(title: str, headers: Sequence[str], rows: list[Sequence[str]]) -> None:
        if rows:  # an optional section that no model has is left out
            heading(title)
            lines.extend(table(headers, rows))

    section(
        "Models",
        ["Model", "Instances", "Positives"],
        [[m["name"], str(m["instances"]), str(m["positive_total"])] for m in models],
    )
    qcols = [f"Q{q + 1}" for q in range(run["quantiles"])]
    for title, key, as_gain in (
        ("Gain", "per_quantile_positive", True),
        ("Cumulative gain", "cumulative_positive_count", True),
        ("Cumulative positives", "cumulative_positive_count", False),
    ):
        rows = []
        for m in models:
            total = m["positive_total"]
            cells = _each_once(lambda c: f"{c / total:.2f}" if as_gain else str(c), m[key])
            rows.append([m["name"], *cells])
        section(title, ["Model"] + qcols, rows)

    classified = [(m["name"], m["classification"]) for m in models if m["classification"]]
    section(
        "Classification at cutoff",
        ["Model", "k", "Acc", "P+", "R+", "F1+", "P-", "R-", "F1-", "wP", "wR", "wF1"],
        [[name, str(c["cutoff_k"]), f"{c['accuracy']:.2f}"]
         + [f"{c[g][x]:.2f}" for g in _CLASS_GROUPS for x in _CLASS_MEASURES]
         for name, c in classified],
    )
    flagged = [f"{name}: {', '.join(c['conventions'])}"
               for name, c in classified if c["conventions"]]
    if flagged:
        lines.append("zero-denominator convention (value set to 0): " + "; ".join(flagged))

    supplied = [[m["name"], f"{m['supplied_fscore']:.2f}"]
                for m in models if m["supplied_fscore"] is not None]
    section("Supplied F-scores", ["Model", "F-score"], supplied)

    for title, key, columns in _PLAN_TABLES:
        rows = [[m["name"]] + [_plan_cell(m[key][field]) for _, field in columns]
                for m in models if m[key]]
        section(title, ["Model"] + [header for header, _ in columns], rows)

    by_cost, by_fscore, source = doc["rankings"].values()
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
) -> dict[str, object] | None:
    """A plan's fields in declaration order; money as minor units, inf as "inf"."""
    if plan is None:
        return None
    doc: dict[str, object] = plan._asdict()
    for field, value in doc.items():
        if field in _MONEY:
            doc[field] = {"minor_units": value, "currency": currency}
        elif isinstance(value, float) and not math.isfinite(value):
            doc[field] = "inf"
    return doc


def _document(r: EvaluationReport, gains: bool) -> dict[str, object]:
    """The report as the JSON document's value; every renderer but the chart prints it.

    Counts are integers, gains are decimal strings with 12 significant digits (only
    with `gains`: no table prints them), money is minor-unit integers with the
    currency label.  Optional sections are always present, null when not requested.
    A list of scalars is a tuple, which `_json` encodes in one call.
    """
    currency = r.cost_model.currency_label if r.cost_model is not None else None
    by_cost, by_fscore, source = r.rankings()
    models: list[dict[str, object]] = []
    for m in r.models:
        profile = m.profile
        cm = m.class_metrics
        classification = None if cm is None else {
            **{k: getattr(cm.confusion, k) for k in ("cutoff_k", "tp", "fp", "tn", "fn")},
            "accuracy": cm.accuracy,
            **{group: {name: getattr(cm, f"{group}_{name}") for name in _CLASS_MEASURES}
               for group in _CLASS_GROUPS},
            "conventions": cm.conventions,
        }
        models.append({
            "name": m.name,
            "instances": profile.size,
            "positive_total": profile.positive_total,
            "per_quantile_positive": profile.per_quantile_positive,
            "cumulative_positive_count": profile.cumulative_positive_count,
            **({"gain": _sig12(profile.per_quantile_positive, profile.positive_total),
                "cumulative": _sig12(profile.cumulative_positive_count, profile.positive_total)}
               if gains else {}),
            "classification": classification,
            "supplied_fscore": m.supplied_fscore,
            "budget_plan": _plan_doc(m.budget_plan, currency),
            "target_plan": _plan_doc(m.target_plan, currency),
            "marginal": _plan_doc(m.marginal, currency),
        })

    return {
        "schema_version": 1,
        "run": {
            "quantiles": r.quantile_count,
            "tie_policy": r.tie_policy.value,
            "cost_rule": r.cost_model.cost_rule.value if r.cost_model is not None else None,
            "currency": currency,
            "inputs": [{"name": m.name, "path": m.path, "sha256": m.sha256}
                       for m in r.models if m.path is not None],
        },
        "models": models,
        "rankings": {
            "by_cost_to_target": by_cost,
            "by_fscore": by_fscore,
            "fscore_source": source,
        },
    }


def _json(value: object, newline: str) -> str:
    """`json.dumps(value, indent=2)` at the indent `newline` ends with, for str-keyed dicts,
    lists, tuples of scalars and scalars.  A tuple is one C encoder call, with no scan of
    its items; a list is laid out item by item.  `indent` would encode all of it in Python."""
    inner = newline + "  "
    if isinstance(value, dict) and value:
        items = [json.dumps(key) + ": " + _json(item, inner) for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)) and value:
        body = (json.dumps(value, separators=("," + inner, ": "))[1:-1] if isinstance(value, tuple)
                else ("," + inner).join([_json(item, inner) for item in value]))
        return "[" + inner + body + newline + "]"
    return json.dumps(value)


def render_json(r: EvaluationReport) -> str:
    """Render the report as a stable, versioned JSON document (see `_document`), indent 2."""
    return _json(_document(r, gains=True), "\n") + "\n"


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
    quantile_count = _shared_quantile_count(series, "series")
    if width < MIN_CHART_WIDTH or height < MIN_CHART_HEIGHT:
        raise ValueError("chart dimensions too small")
    if width > MAX_CHART_WIDTH or height > MAX_CHART_HEIGHT:
        raise ValueError("chart dimensions too large")
    left, right, top, bottom = 62, 18, 18, 50
    x0, y0 = left, top
    x1, y1 = width - right, height - bottom
    pw, ph = x1 - x0, y1 - y0

    def py(frac: float) -> float:
        return y0 + (1.0 - frac) * ph

    # Every quantile edge and every 25% step: the grid lines, ticks and curves share them.
    xs = [x0 + q / quantile_count * pw for q in range(quantile_count + 1)]
    xtext = [f"{x:.2f}" for x in xs]
    ys = [py(i / 4) for i in range(5)]

    def line(cls: str, xa: float, ya: float, xb: float, yb: float, stroke: str,
             stroke_width: str = "1", dash_attr: str = "") -> str:
        cls_attr = f' class="{cls}"' if cls else ""
        return (f'<line{cls_attr} x1="{xa:.2f}" y1="{ya:.2f}" x2="{xb:.2f}" y2="{yb:.2f}" '
                f'stroke="{stroke}" stroke-width="{stroke_width}"{dash_attr}/>')

    def text(cls: str, x: float, y: float, body: object, anchor: str = "") -> str:
        anchor_attr = f' text-anchor="{anchor}"' if anchor else ""
        return (f'<text class="{cls}" x="{x:.2f}" y="{y:.2f}"{anchor_attr} '
                f'fill="#333333">{body}</text>')

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]

    # Gridlines: vertical at every quantile boundary (one string), horizontal every 25%.
    head, tail = '<line class="xgrid" x1="', f'" y2="{y1:.2f}" stroke="#dddddd" stroke-width="1"/>'
    out.append(head + (tail + "\n" + head).join(
        map(f'" y1="{y0:.2f}" x2="'.join, zip(xtext, xtext))) + tail)
    out += [line("ygrid", x0, y, x1, y, "#dddddd") for y in ys]

    out.append(line("", x0, y0, x0, y1, "#333333"))
    out.append(line("", x0, y1, x1, y1, "#333333"))

    # Tick labels; past 12 quantiles, every step-th edge and the last one.
    step = 1 if quantile_count <= 12 else -(-quantile_count // 10)
    out += [text("xtick", xs[q], y1 + 16, f"{100 * q / quantile_count:g}", "middle")
            for q in (*range(0, quantile_count, step), quantile_count)]
    out += [text("ytick", x0 - 6, y + 4, 25 * i, "end") for i, y in enumerate(ys)]
    out.append(text("xlabel", (x0 + x1) / 2, height - 12, "% of candidates annotated", "middle"))
    out.append(
        f'<text class="ylabel" x="14" y="{(y0 + y1) / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {(y0 + y1) / 2:.2f})" fill="#333333">'
        "% of positives found</text>"
    )

    def points(profile: GainProfile) -> str:
        total = profile.positive_total
        ytext = _each_once(lambda c: f",{py(c / total):.2f} ",
                           (0, *profile.cumulative_positive_count))
        return "".join(chain.from_iterable(zip(xtext, ytext)))[:-1]  # no string per point

    # (name, color, stroke width, dasharray or "", polyline points)
    curves: list[tuple[str, str, str, str, str]] = []
    if include_baseline:
        curves.append(("random baseline", "#999999", "1.5", "6 4",
                       f"{x0:.2f},{y1:.2f} {x1:.2f},{y0:.2f}"))
    if include_ideal:
        first = series[0]
        ideal = ideal_profile(first.size, first.positive_total, quantile_count)
        curves.append(("ideal", "#333333", "1.5", "2 3", points(ideal)))
    for i, profile in enumerate(series):
        color = _SERIES_COLORS[i % len(_SERIES_COLORS)]
        curves.append((profile.model_name, color, "2", "", points(profile)))

    legend: list[str] = []  # drawn after every curve, so it stays on top
    for i, (name, color, stroke_width, dash, coords) in enumerate(curves):
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        out.append(
            f'<polyline class="series" data-name={_escape(name, attr=True)} fill="none" '
            f'stroke="{color}" stroke-width="{stroke_width}"{dash_attr} points="{coords}"/>'
        )
        y = y0 + 14 + i * 16
        legend.append(line("", x0 + 12, y - 4, x0 + 34, y - 4, color, "2", dash_attr))
        legend.append(text("legend", x0 + 40, y, _escape(name)))
    out += legend
    out.append("</svg>")
    return "\n".join(out) + "\n"
