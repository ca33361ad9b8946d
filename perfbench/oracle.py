"""Output oracle: checks each CLI invocation against the planted answer.

Counts come from the generator; plan quantiles and minor-unit money are
recomputed here in integer arithmetic, independently of the program's
Fraction/Decimal code.  `Tally` checks the first pass of a run this way and
requires every later pass to repeat its output byte for byte.
"""

from __future__ import annotations

import json
import math
import sys

from workloads import UNIT_COST_MINOR, Invocation, Model, Workload, floor_boundaries


class Tally:
    """Invocations attempted and failed in one run of the benchmark.

    The first output of each invocation is checked against the planted
    answer; every later pass must repeat it byte for byte.
    """

    def __init__(self, w: Workload) -> None:
        self.w = w
        self.first: dict[int, bytes] = {}
        self.attempted = 0
        self.failed = 0

    def invocation(self, index: int, code: int, out: bytes) -> None:
        inv = self.w.invocations[index]
        if index not in self.first:
            self.first[index] = out
            problems = check(self.w, inv, code, out)
        elif code != 0:
            problems = [f"{inv.argv[0]}: exit code {code}"]
        elif out != self.first[index]:
            problems = [f"{inv.argv[0]}: output differs from the first pass"]
        else:
            problems = []
        self.count(problems)

    def count(self, problems: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        for p in problems:
            print(f"perfbench: {p}", file=sys.stderr)


def cost_minor(rule: str, n: int, q: int, quantiles: int) -> int:
    """Cents to annotate the first q quantiles, rounded half-up once."""
    if rule == "integer":
        return UNIT_COST_MINOR * (q * n // quantiles)
    return (2 * UNIT_COST_MINOR * n * q + quantiles) // (2 * quantiles)


def next_cost_minor(rule: str, n: int, done: int, quantiles: int) -> int:
    """Cents for quantile done+1 alone: the exact difference, rounded half-up."""
    if rule == "integer":
        return cost_minor(rule, n, done + 1, quantiles) - cost_minor(rule, n, done, quantiles)
    return (2 * UNIT_COST_MINOR * n + quantiles) // (2 * quantiles)


def _rule(argv: tuple[str, ...]) -> str:
    return argv[argv.index("--cost-rule") + 1] if "--cost-rule" in argv else "fractional"


def expected_budget(m: Model, rule: str, quantiles: int, budget: int) -> dict[str, int]:
    affordable = 0
    for q in range(1, quantiles + 1):
        if cost_minor(rule, m.rows, q, quantiles) > budget:
            break
        affordable = q
    spend = cost_minor(rule, m.rows, affordable, quantiles)
    return {
        "affordable_quantiles": affordable,
        "expected_tp": m.cumulative_positive[affordable - 1] if affordable else 0,
        "spend": spend,
        "leftover": budget - spend,
    }


def expected_target(m: Model, rule: str, quantiles: int) -> dict[str, int]:
    needed = next(q + 1 for q, c in enumerate(m.cumulative_positive) if c >= m.positive_total)
    return {"quantiles_needed": needed, "cost": cost_minor(rule, m.rows, needed, quantiles)}


def expected_marginal(m: Model, rule: str, quantiles: int, done: int) -> dict[str, int | bool]:
    found = m.cumulative_positive[done - 1] if done else 0
    return {
        "next_tp": m.per_quantile_positive[done],
        "next_cost": next_cost_minor(rule, m.rows, done, quantiles),
        "exhausted": found == m.positive_total,
    }


def expected_confusion(m: Model, w: Workload) -> dict[str, int]:
    """Confusion at the cutoff, which every workload puts on a quantile boundary."""
    k = math.floor(float(w.spec.cutoff_frac) * m.rows + 0.5)
    boundaries = floor_boundaries(m.rows, w.spec.quantiles)
    if k not in boundaries:
        raise ValueError(f"cutoff {k} is not a quantile boundary; the oracle cannot price it")
    q = boundaries.index(k)
    tp = m.cumulative_positive[q - 1] if q else 0
    fn = m.positive_total - tp
    return {"cutoff_k": k, "tp": tp, "fp": k - tp, "fn": fn, "tn": m.rows - k - fn}


def _money(minor: int) -> str:
    return f"{minor // 100}.{minor % 100:02d}"


def _compare(problems: list[str], where: str, got, want) -> None:
    if got != want:
        problems.append(f"{where}: got {got!r}, expected {want!r}")


def check(w: Workload, inv: Invocation, code: int, out: bytes) -> list[str]:
    """Problems found in one invocation's exit code and output; empty if none."""
    if code != 0:
        return [f"{inv.argv[0]}: exit code {code}"]
    try:
        text = out.decode("utf-8")
        if inv.format == "json":
            return check_json(w, inv, json.loads(text))
        if inv.format == "svg":
            return check_svg(w, inv, text)
        return check_table(w, inv, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{inv.argv[0]}: unreadable {inv.format} output ({exc!r})"]


def check_json(w: Workload, inv: Invocation, doc: dict) -> list[str]:
    argv, rule, quantiles = inv.argv, _rule(inv.argv), w.spec.quantiles
    problems: list[str] = []
    _compare(problems, "schema_version", doc["schema_version"], 1)
    _compare(problems, "run.quantiles", doc["run"]["quantiles"], quantiles)
    _compare(problems, "run.tie_policy", doc["run"]["tie_policy"], w.spec.policy)
    _compare(problems, "run.inputs", [(d["name"], d["sha256"]) for d in doc["run"]["inputs"]],
             [(m.name, m.sha256) for m in w.models])
    _compare(problems, "model count", len(doc["models"]), len(w.models))
    fscores = dict(w.fscores)
    costs = []
    for m, got in zip(w.models, doc["models"]):
        where = f"{argv[0]} {m.name}"
        _compare(problems, f"{where} name", got["name"], m.name)
        _compare(problems, f"{where} instances", got["instances"], m.rows)
        _compare(problems, f"{where} positive_total", got["positive_total"], m.positive_total)
        _compare(problems, f"{where} per_quantile_positive",
                 got["per_quantile_positive"], list(m.per_quantile_positive))
        _compare(problems, f"{where} cumulative_positive_count",
                 got["cumulative_positive_count"], list(m.cumulative_positive))
        if "--cutoff-frac" in argv:
            c = got["classification"] or {}
            _compare(problems, f"{where} classification",
                     {key: c.get(key) for key in ("cutoff_k", "tp", "fp", "fn", "tn")},
                     expected_confusion(m, w))
        else:
            _compare(problems, f"{where} classification", got["classification"], None)
        _compare(problems, f"{where} supplied_fscore", got["supplied_fscore"],
                 float(fscores[m.name]) if m.name in fscores else None)
        if "--budget" in argv:
            want = expected_budget(m, rule, quantiles, w.budget_minor)
            p = got["budget_plan"] or {}
            _compare(problems, f"{where} budget_plan", {
                "affordable_quantiles": p.get("affordable_quantiles"),
                "expected_tp": p.get("expected_tp"),
                "spend": (p.get("spend") or {}).get("minor_units"),
                "leftover": (p.get("leftover") or {}).get("minor_units"),
            }, want)
            _compare(problems, f"{where} budget", (p.get("budget") or {}).get("minor_units"),
                     w.budget_minor)
        else:
            _compare(problems, f"{where} budget_plan", got["budget_plan"], None)
        if "--full-recall" in argv:
            want = expected_target(m, rule, quantiles)
            p = got["target_plan"] or {}
            _compare(problems, f"{where} target_plan", {
                "target_tp": p.get("target_tp"),
                "achievable": p.get("achievable"),
                "quantiles_needed": p.get("quantiles_needed"),
                "cost": (p.get("cost") or {}).get("minor_units"),
            }, {"target_tp": m.positive_total, "achievable": True, **want})
            costs.append((want["cost"], len(costs), m.name))
        else:
            _compare(problems, f"{where} target_plan", got["target_plan"], None)
    by_cost = [name for _, _, name in sorted(costs)] if len(costs) > 1 else None
    _compare(problems, f"{argv[0]} rankings.by_cost_to_target",
             doc["rankings"]["by_cost_to_target"], by_cost)
    return problems


def table_sections(text: str, md: bool) -> dict[str, list[dict[str, str]]]:
    """Section title -> rows (header -> cell) of a text or markdown report."""
    sections: dict[str, list[dict[str, str]]] = {}
    blocks = [b.split("\n") for b in text.rstrip("\n").split("\n\n")]
    if md:
        titled = [
            (blocks[i][0][3:], blocks[i + 1])
            for i in range(len(blocks) - 1)
            if blocks[i][0].startswith("## ")
        ]
    else:
        titled = [(b[0], b[1:]) for b in blocks[1:] if len(b) > 1]
    for title, lines in titled:
        if md:
            cells = [[c.strip() for c in line.strip().strip("|").split("|")] for line in lines]
            cells = cells[:1] + cells[2:]
        else:
            cells = [line.split() for line in lines]
        header = cells[0]
        sections[title] = [dict(zip(header, row)) for row in cells[1:] if len(row) == len(header)]
    return sections


def check_table(w: Workload, inv: Invocation, text: str) -> list[str]:
    argv, rule, quantiles = inv.argv, _rule(inv.argv), w.spec.quantiles
    problems: list[str] = []
    sections = table_sections(text, md=inv.format == "md")
    cumulative = {row["Model"]: row for row in sections["Cumulative positives"]}
    models = {row["Model"]: row for row in sections["Models"]}
    for m in w.models:
        where = f"{argv[0]} {m.name}"
        _compare(problems, f"{where} Models", (models[m.name]["Instances"], models[m.name]["Positives"]),
                 (str(m.rows), str(m.positive_total)))
        _compare(problems, f"{where} Cumulative positives",
                 [cumulative[m.name][f"Q{q + 1}"] for q in range(quantiles)],
                 [str(c) for c in m.cumulative_positive])
    if argv[0] == "budget":
        plans = {row["Model"]: row for row in sections["Fixed budget plan"]}
        targets = {row["Model"]: row for row in sections["Cost to target"]}
        for m in w.models:
            want = expected_budget(m, rule, quantiles, w.budget_minor)
            row = plans[m.name]
            _compare(problems, f"budget {m.name} Fixed budget plan",
                     [row["Budget"], row["Quantiles"], row["ExpectedTP"], row["Spend"], row["Leftover"]],
                     [_money(w.budget_minor), str(want["affordable_quantiles"]),
                      str(want["expected_tp"]), _money(want["spend"]), _money(want["leftover"])])
            want = expected_target(m, rule, quantiles)
            row = targets[m.name]
            _compare(problems, f"budget {m.name} Cost to target",
                     [row["TargetTP"], row["Quantiles"], row["Cost"], row["Achievable"]],
                     [str(m.positive_total), str(want["quantiles_needed"]), _money(want["cost"]), "yes"])
    if argv[0] == "stop":
        rows = {row["Model"]: row for row in sections["Marginal analysis"]}
        for m in w.models:
            want = expected_marginal(m, rule, quantiles, w.annotated)
            row = rows[m.name]
            _compare(problems, f"stop {m.name} Marginal analysis",
                     [row["Annotated"], row["NextTP"], row["NextCost"], row["Exhausted"]],
                     [str(w.annotated), str(want["next_tp"]), _money(want["next_cost"]),
                      "yes" if want["exhausted"] else "no"])
    return problems


def check_svg(w: Workload, inv: Invocation, text: str) -> list[str]:
    problems: list[str] = []
    _compare(problems, "chart framing", (text.startswith("<svg "), text.endswith("</svg>\n")), (True, True))
    references = ("--baseline" in inv.argv) + ("--ideal" in inv.argv)
    _compare(problems, "chart series", text.count('class="series"'), len(w.models) + references)
    for m in w.models:
        _compare(problems, f"chart {m.name}", f'data-name="{m.name}"' in text, True)
    return problems
