"""Byte-for-byte golden outputs of every subcommand and format.

Each case runs the CLI from the directory holding its input files, with
relative paths, so the `path` field of the JSON report is stable.  The
expected bytes live in tests/golden/<case>.<ext>.  To rewrite them after an
intended output change, run `PYTHONPATH=src python tests/test_golden.py`
from the repository root and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

import pytest

from gainbudget.cli import run

from casestudy import DECILE_POSITIVES, case_study_csv

GOLDEN_DIR = Path(__file__).parent / "golden"
DATA_DIR = Path(__file__).parent / "data"

WORKED = [f"worked_{key}.csv" for key in ("s1m1", "s1m2", "s2m1", "s2m2")]
CASE = [f"{model}.csv" for model in DECILE_POSITIVES]
FORMATS = ("text", "md", "json")
EXT = {"text": "txt", "md": "md", "json": "json"}


def _cases() -> dict[str, tuple[str, list[str]]]:
    """Golden file name -> (fixture directory key, argv)."""
    cases: dict[str, tuple[str, list[str]]] = {}

    def add(name: str, fixtures: str, argv: list[str]) -> None:
        for fmt in FORMATS:
            cases[f"{name}.{EXT[fmt]}"] = (fixtures, argv + ["--format", fmt])

    for path in WORKED:
        add(f"worked-eval-{path[7:11]}", "data",
            ["eval", path, "--quantiles", "6", "--cutoff-k", "4"])
    add("worked-compare", "data",
        ["compare", *WORKED, "--quantiles", "3", "--cutoff-frac", "0.5",
         "--unit-cost", "0.04", "--budget", "0.12", "--full-recall",
         "--fscore", "worked_s1m1=0.61", "--fscore", "worked_s2m2=0.58"])
    add("worked-budget", "data",
        ["budget", *WORKED, "--quantiles", "3", "--unit-cost", "0.04",
         "--budget", "0.10", "--target", "2"])
    add("worked-stop", "data",
        ["stop", *WORKED, "--quantiles", "3", "--annotated-quantiles", "1",
         "--unit-cost", "0.04"])
    cases["worked-chart.svg"] = (
        "data", ["chart", *WORKED, "--quantiles", "6", "--baseline", "--ideal"])

    add("case-eval", "case", ["eval", "m1.csv", "--cutoff-k", "414"])
    add("case-compare", "case",
        ["compare", *CASE, "--full-recall", "--unit-cost", "0.04", "--budget", "16.73",
         "--cutoff-k", "414", "--fscore", "m1=0.70", "--fscore", "m2=0.74",
         "--fscore", "m3=0.77"])
    add("case-budget", "case",
        ["budget", *CASE, "--unit-cost", "0.04", "--budget", "16.73", "--full-recall"])
    add("case-budget-integer", "case",
        ["budget", *CASE, "--unit-cost", "0.04", "--target", "410", "--cost-rule", "integer"])
    add("case-stop", "case",
        ["stop", *CASE, "--annotated-quantiles", "2", "--unit-cost", "0.04"])
    # Sub-cent money: the 2-quantile cost 16.728 prints as 16.73 but is above
    # the exact budget 16.725, so only one quantile is affordable.
    add("case-budget-subcent", "case",
        ["budget", *CASE, "--unit-cost", "0.04", "--budget", "16.725", "--full-recall"])
    # The next-quantile cost is the exact difference rounded once (7.00), not
    # the difference of two rounded prefix costs (14.01 - 7.00).
    add("case-stop-subcent", "case",
        ["stop", *CASE, "--unit-cost", "0.0335", "--annotated-quantiles", "1"])
    cases["case-chart.svg"] = ("case", ["chart", *CASE, "--baseline", "--ideal"])
    # Over 12 quantiles only every ceil(Q/10)-th x tick is labelled, and the
    # last one always: 47 quantiles label 0, 5, ..., 45 and 47.
    cases["case-chart-q47.svg"] = (
        "case", ["chart", *CASE, "--quantiles", "47", "--baseline", "--ideal"])
    # More quantiles (500) than positives (414): the quantile counts are taken
    # from the positives' side, and the rows and the x grid are 500 wide.
    add("case-eval-q500", "case", ["eval", "m1.csv", "--quantiles", "500", "--cutoff-k", "414"])
    cases["case-chart-q500.svg"] = (
        "case", ["chart", *CASE, "--quantiles", "500", "--baseline", "--ideal"])

    # One positive in each of 8 quantiles: the gains 1/8, 3/8, 5/8 and 7/8 lie halfway
    # between two hundredths, so these files show how a two-place cell rounds a half.
    add("halves-eval", "data", ["eval", "halves.csv", "--quantiles", "8"])
    for policy in ("stable", "pessimistic", "optimistic"):
        add(f"tied-eval-{policy}", "data",
            ["eval", "tied.csv", "--quantiles", "4", "--cutoff-k", "5", "--tie-policy", policy])
        cases[f"tied-chart-{policy}.svg"] = (
            "data", ["chart", "tied.csv", "--quantiles", "4", "--tie-policy", policy])
    return cases


CASES = _cases()


def render(case: str, fixture_dirs: dict[str, Path]) -> bytes:
    """Run one case from its fixture directory; return its stdout as UTF-8."""
    fixtures, argv = CASES[case]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(fixture_dirs[fixtures])
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        os.chdir(cwd)
    if code != 0 or err.getvalue():
        raise AssertionError(f"{case}: exit {code}, stderr {err.getvalue()!r}")
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_bytes(case, case_study_dir):
    got = render(case, {"data": DATA_DIR, "case": case_study_dir})
    assert got == (GOLDEN_DIR / case).read_bytes()


def test_golden_dir_has_no_stale_files():
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(CASES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for model in DECILE_POSITIVES:
            (Path(tmp) / f"{model}.csv").write_text(case_study_csv(model), encoding="utf-8")
        GOLDEN_DIR.mkdir(exist_ok=True)
        for case in CASES:
            (GOLDEN_DIR / case).write_bytes(render(case, {"data": DATA_DIR, "case": Path(tmp)}))
    sys.stdout.write(f"wrote {len(CASES)} golden files to {GOLDEN_DIR}\n")
