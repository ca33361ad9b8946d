"""Command-line front end.

Subcommands: eval (one model), compare (many models side by side), budget
(fixed-budget and cost-to-target plans), stop (marginal next-quantile
analysis), chart (cumulative-gain SVG).  Exit codes: 0 success, 1 input or
validation error, 2 usage error.

Usage errors come before any input is opened; the inputs are then evaluated
one at a time, in argv order.  A check that spans flags or inputs calls
`args.usage_error`, the subcommand parser's `error`, as argparse's checks do.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation, localcontext
from pathlib import Path

from .budget import (FULL_RECALL, CostModel, CostRule, cost_to_target, fixed_budget_plan,
                     marginal_analysis)
from .dataset import (DEFAULT_NEGATIVE_TOKENS, DEFAULT_POSITIVE_TOKENS, ColumnSchema,
                      read_dataset_file)
from .metrics import class_metrics, confusion_at_cutoff, gain_profile
from .ranking import RankedList, TiePolicy, partition_quantiles, rank_instances
from .report import (
    MAX_CHART_HEIGHT, MAX_CHART_WIDTH, MIN_CHART_HEIGHT, MIN_CHART_WIDTH, EvaluationReport,
    ModelResult, render_chart, render_json, render_table,
)


#: A control character (category Cc) or a line or paragraph separator (U+2028, U+2029) in a
#: model name or currency label would split a table row or the metadata line, or break the SVG.
_CONTROL = re.compile(r"[\x00-\x1f\x7f-\x9f\u2028\u2029]")

#: Largest decimal exponent a nonzero money flag may have, either sign.
#: Exact arithmetic on 1e-999999999 would build a 10^999999999 denominator.
MAX_MONEY_EXPONENT = 100


def _money(positive: bool):
    """An argparse type: a finite decimal amount, positive or else not negative."""

    def parse(text: str) -> Decimal:
        try:
            value = Decimal(text)
        except InvalidOperation:
            raise argparse.ArgumentTypeError(f"not a decimal number: {text!r}")
        if not value.is_finite():
            raise argparse.ArgumentTypeError(f"not a finite decimal number: {text!r}")
        if value < 0 or (positive and not value):
            sign = "positive" if positive else "non-negative"
            raise argparse.ArgumentTypeError(f"must be {sign}, got {text!r}")
        if value and not -MAX_MONEY_EXPONENT <= value.adjusted() <= MAX_MONEY_EXPONENT:
            bounds = f"1e-{MAX_MONEY_EXPONENT} and 1e{MAX_MONEY_EXPONENT + 1}"
            raise argparse.ArgumentTypeError(f"magnitude not between {bounds}: {text!r}")
        return value

    return parse


def _int_at_least(minimum: int, maximum: int | None = None):
    """An argparse type: an integer no smaller than `minimum`, nor larger than any `maximum`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            # int() refuses more digits than sys.get_int_max_str_digits(), leading zeros included.
            if not (match := re.fullmatch(r"\s*([+-]?)(\d(?:_?\d)*)\s*", text)):
                raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
            significant = match[2].replace("_", "").lstrip("0") or "0"
            try:
                value = int(match[1] + significant)
            except ValueError:  # too many significant digits: out of any bound here
                bound = (f"must be at least {minimum}" if match[1] == "-" else
                         f"must be at most {maximum}" if maximum is not None else "too large")
                raise argparse.ArgumentTypeError(f"{bound}, got {len(significant)} digits")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value

    return parse


def _fraction(text: str) -> Decimal:
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not (value.is_finite() and 0 <= value <= 1):
        raise argparse.ArgumentTypeError(f"must be between 0 and 1, got {text!r}")
    return value


def _fscore(entry: str) -> tuple[str, float]:
    """An argparse type: NAME=VALUE with a finite VALUE, as (name, value)."""
    # The last "=" splits, so a model named from a stem such as "a=b" can be scored.
    name, sep, text = entry.rpartition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expects NAME=VALUE, got {entry!r}")
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"value for {name!r} is not a number: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"value for {name!r} is not finite: {text!r}")
    return name, value


def _add_io_flags(p: argparse.ArgumentParser, many: bool) -> None:
    p.add_argument("inputs", nargs="+" if many else 1, metavar="FILE",
                   help="delimited prediction file(s) with a header row")
    p.add_argument("--name", action="append", default=None, metavar="NAME",
                   help="model name for the matching input (repeatable; default: file stem)")
    p.add_argument("--quantiles", type=_int_at_least(1), default=10, metavar="Q",
                   help="number of quantiles (default: 10, i.e. deciles)")
    p.add_argument("--tie-policy", choices=[t.value for t in TiePolicy],
                   default=TiePolicy.STABLE.value,
                   help="ordering of equal scores (default: stable)")
    p.add_argument("--id-col", default="id", help="id column name (default: id)")
    p.add_argument("--score-col", default="score", help="score column name (default: score)")
    p.add_argument("--label-col", default="label", help="label column name (default: label)")
    p.add_argument("--positive-token", type=lambda token: frozenset({token}),
                   default=DEFAULT_POSITIVE_TOKENS, metavar="TOKEN",
                   help="label token for the positive class (default: 1 or true)")
    p.add_argument("--negative-token", type=lambda token: frozenset({token}),
                   default=DEFAULT_NEGATIVE_TOKENS, metavar="TOKEN",
                   help="label token for the negative class (default: 0 or false)")
    p.add_argument("--delimiter", type=lambda text: "\t" if text in ("tab", "\\t") else text,
                   default=",", metavar="CHAR",
                   help="field delimiter; use 'tab' or '\\t' for tabs (default: ,)")


def _add_format_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["text", "md", "json"], default="text",
                   help="output format (default: text)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the report to PATH instead of standard output")


def _add_cutoff_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--cutoff-k", type=_int_at_least(0), default=None, metavar="K",
                       help="treat the top K ranked instances as positive predictions")
    group.add_argument("--cutoff-frac", type=_fraction, default=None, metavar="F",
                       help="cutoff as a fraction of the dataset (k = F*N rounded half up)")


def _add_cost_flags(p: argparse.ArgumentParser, with_plans: bool, required: bool) -> None:
    p.add_argument("--unit-cost", type=_money(positive=True), default=None, metavar="MONEY",
                   required=required, help="annotation cost per candidate")
    p.add_argument("--currency", default="$", metavar="LABEL",
                   help="currency label for display (default: $)")
    p.add_argument("--cost-rule", choices=[c.value for c in CostRule],
                   default=CostRule.FRACTIONAL.value,
                   help="price quantiles by N*q/Q (fractional) or actual sizes (integer)")
    if with_plans:
        p.add_argument("--budget", type=_money(positive=False), default=None, metavar="MONEY",
                       help="fixed budget to plan annotation around")
        target = p.add_mutually_exclusive_group()
        target.add_argument("--target", type=_int_at_least(1), default=None, metavar="TP",
                            help="positive-instance target to price")
        target.add_argument("--full-recall", action="store_true",
                            help="target every positive instance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gainbudget", description="Budget-aware evaluation "
                                     "of ranking models via gain and cumulative gain.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="gain profile (and cutoff metrics) for one model")
    _add_io_flags(p_eval, many=False)
    _add_cutoff_flags(p_eval)
    _add_format_flags(p_eval)

    p_cmp = sub.add_parser("compare", help="side-by-side profiles for several models")
    _add_io_flags(p_cmp, many=True)
    _add_cutoff_flags(p_cmp)
    _add_cost_flags(p_cmp, with_plans=True, required=False)
    p_cmp.add_argument("--fscore", action="append", type=_fscore, default=[], metavar="NAME=VALUE",
                       help="externally supplied F-score for a model (repeatable)")
    _add_format_flags(p_cmp)

    p_budget = sub.add_parser("budget", help="fixed-budget and cost-to-target plans")
    _add_io_flags(p_budget, many=True)
    _add_cost_flags(p_budget, with_plans=True, required=True)
    _add_format_flags(p_budget)

    p_stop = sub.add_parser("stop", help="is one more quantile of annotation worth it?")
    _add_io_flags(p_stop, many=True)
    _add_cost_flags(p_stop, with_plans=False, required=True)
    p_stop.add_argument("--annotated-quantiles", type=_int_at_least(0), required=True, metavar="Q",
                        help="quantiles already annotated")
    _add_format_flags(p_stop)

    p_chart = sub.add_parser("chart", help="cumulative-gain chart as standalone SVG")
    _add_io_flags(p_chart, many=True)
    p_chart.add_argument("--svg-out", default=None, metavar="PATH",
                         help="write the SVG to PATH instead of standard output")
    p_chart.add_argument("--width", type=_int_at_least(MIN_CHART_WIDTH, MAX_CHART_WIDTH),
                         default=640, help="chart width in pixels")
    p_chart.add_argument("--height", type=_int_at_least(MIN_CHART_HEIGHT, MAX_CHART_HEIGHT),
                         default=480, help="chart height in pixels")
    p_chart.add_argument("--baseline", action="store_true",
                         help="draw the diagonal random baseline")
    p_chart.add_argument("--ideal", action="store_true",
                         help="draw the ideal (perfect ranker) curve")
    for p in sub.choices.values():
        p.set_defaults(usage_error=p.error)
    return parser


def _model_names(args: argparse.Namespace) -> list[str]:
    """Each input's model name: its --name, else its file stem; checked with every --fscore."""
    given = args.name or []
    if len(given) > len(args.inputs):
        args.usage_error(f"{len(given)} --name values for {len(args.inputs)} input file(s)")
    names = given + [Path(path).stem for path in args.inputs[len(given):]]
    scored = [name for name, _ in getattr(args, "fscore", ())]
    for flag, listed, fix in (("--name", names, "give each input a distinct --name"),
                              ("--fscore", scored, "give each model one --fscore")):
        if repeated := sorted({name for name in listed if listed.count(name) > 1}):
            args.usage_error(f"argument {flag}: repeated model name(s) "
                             f"{', '.join(map(repr, repeated))}; {fix}")
    for problem, bad in (("blank", [n for n in names if not n.strip()]),
                         ("control character in", list(filter(_CONTROL.search, names)))):
        if bad:
            args.usage_error(f"argument --name: {problem} model name(s) "
                             f"{', '.join(map(repr, bad))}; give each a printable --name")
    for name in scored:
        if name not in names:
            args.usage_error(
                f"argument --fscore: unknown model {name!r} (models: {', '.join(names)})")
    return names


def _cutoff_for(args: argparse.Namespace, ranked: RankedList) -> int | None:
    if getattr(args, "cutoff_k", None) is not None:
        return args.cutoff_k
    if getattr(args, "cutoff_frac", None) is not None:
        # F*N has at most as many digits as F and N together, so this precision keeps it
        # exact; a tiny F such as 1e-999999999 costs no more than any other.
        with localcontext() as ctx:
            ctx.prec = len(args.cutoff_frac.as_tuple().digits) + len(str(ranked.size))
            return int((args.cutoff_frac * ranked.size).to_integral_value(ROUND_HALF_UP))
    return None


def _emit(content: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(content)
    else:
        Path(out).write_bytes(content.encode("utf-8"))


def run(argv: list[str] | None = None) -> int:
    try:
        args, unrecognized = build_parser().parse_known_args(argv)
        if unrecognized:  # parse_args would report these under the top-level usage
            args.usage_error(f"unrecognized arguments: {' '.join(unrecognized)}")
        return _dispatch(args)
    except SystemExit as exc:  # --help, or a usage error from argparse or _dispatch
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 2
    except (ValueError, OSError) as exc:  # DatasetError is a ValueError
        print(f"gainbudget: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    policy = TiePolicy(args.tie_policy)

    # A section is computed only when its flag exists on the subcommand and
    # was given; argparse itself enforces the flags a subcommand requires.
    unit_cost = getattr(args, "unit_cost", None)
    budget = getattr(args, "budget", None)
    target = FULL_RECALL if getattr(args, "full_recall", False) else getattr(args, "target", None)
    annotated = getattr(args, "annotated_quantiles", None)
    if budget is None and target is None:
        if args.command == "budget":
            args.usage_error("budget requires --budget, --target, or --full-recall")
    elif unit_cost is None:
        args.usage_error("--budget/--target/--full-recall require --unit-cost")
    if annotated is not None and annotated >= args.quantiles:
        args.usage_error(f"argument --annotated-quantiles: must be below --quantiles "
                         f"({args.quantiles}), got {annotated}")

    if _CONTROL.search(getattr(args, "currency", "")):
        args.usage_error(f"argument --currency: control character in {args.currency!r}")
    names = _model_names(args)
    fscores = dict(getattr(args, "fscore", ()))
    try:
        schema = ColumnSchema(args.id_col, args.score_col, args.label_col,
                              args.positive_token, args.negative_token, args.delimiter)
    except ValueError as exc:  # "field: problem"; positive_tokens is --positive-token
        field, _, problem = str(exc).partition(": ")
        args.usage_error(f"argument --{field.rstrip('s').replace('_', '-')}: {problem}")
    cm = None if unit_cost is None else CostModel(unit_cost, args.currency,
                                                  CostRule(args.cost_rule))

    # One input at a time: its dataset and ranking are freed before the next read.  The first
    # input's ids are kept until the last read: later inputs that repeat them build no id set.
    results, ids = [], bytearray() if len(args.inputs) > 1 else None
    for count, (path, name) in enumerate(zip(args.inputs, names), 1):
        dataset, sha = read_dataset_file(path, schema, name=name, ids=ids)
        ids = None if count == len(args.inputs) else ids
        ranked = rank_instances(dataset, policy)
        profile = gain_profile(partition_quantiles(ranked, args.quantiles))
        k = _cutoff_for(args, ranked)
        results.append(
            ModelResult(
                profile=profile,
                class_metrics=None if k is None else class_metrics(confusion_at_cutoff(ranked, k)),
                budget_plan=None if budget is None else fixed_budget_plan(profile, cm, budget),
                target_plan=None if target is None else cost_to_target(profile, cm, target),
                marginal=None if annotated is None else marginal_analysis(profile, cm, annotated),
                supplied_fscore=fscores.get(name),
                path=str(path),
                sha256=sha,
            )
        )
        del dataset, ranked

    if args.command == "chart":
        _emit(render_chart([m.profile for m in results], args.baseline, args.ideal,
                           args.width, args.height), args.svg_out)
        return 0

    report = EvaluationReport(models=tuple(results), tie_policy=policy, cost_model=cm)
    if args.format == "json":
        _emit(render_json(report), args.out)
    else:
        _emit(render_table(report, style=args.format), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(run())
