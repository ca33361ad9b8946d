import errno
import gc
import json
import os
import shutil
import subprocess
import sys
import weakref
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import gainbudget
from gainbudget import cli
from gainbudget.cli import run

from conftest import DATA_DIR, worked_path


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_usage_error(err, command):
    """The error names the subcommand, as argparse's own usage errors do."""
    assert err.startswith(f"usage: gainbudget {command} ")
    assert f"gainbudget {command}: error:" in err


def invoke_child(*argv):
    """Run the CLI in a child process, so a runaway computation is cut off."""
    env = dict(os.environ, PYTHONPATH=str(Path(gainbudget.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "gainbudget.cli", *argv],
        env=env, capture_output=True, text=True, timeout=30,
    )
    return done.returncode, done.stdout, done.stderr


class TestEval:
    def test_accuracy_from_table(self, capsys):
        code, out, err = invoke(
            capsys, "eval", str(worked_path("s2m1")), "--quantiles", "6", "--cutoff-k", "4"
        )
        assert code == 0
        assert err == ""
        assert "0.17" in out

    def test_json_format(self, capsys):
        code, out, _ = invoke(
            capsys, "eval", str(worked_path("s1m1")), "--quantiles", "6", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["models"][0]["cumulative_positive_count"] == [1, 1, 1, 2, 2, 3]
        assert doc["models"][0]["name"] == "worked_s1m1"

    def test_cutoff_frac(self, capsys):
        code, out, _ = invoke(
            capsys, "eval", str(worked_path("s2m1")), "--quantiles", "6",
            "--cutoff-frac", "0.667", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["models"][0]["classification"]["cutoff_k"] == 4

    # F*N is rounded half up exactly: as binary floats 0.145*100 is 14.499999999999998.
    # A child process, so that exact arithmetic on 1e-999999999 would be cut off.
    @pytest.mark.parametrize("frac,k", [
        ("0.125", 13), ("0.145", 15), ("0.285", 29), ("0", 0), ("1", 100), ("1e-999999999", 0),
    ])
    def test_cutoff_frac_rounds_half_up_exactly(self, tmp_path, frac, k):
        path = tmp_path / "hundred.csv"
        path.write_text("id,score,label\n" + "".join(f"r{i},{i},{i % 2}\n" for i in range(100)))
        code, out, err = invoke_child("eval", str(path), "--cutoff-frac", frac, "--format", "json")
        assert code == 0, err
        assert json.loads(out)["models"][0]["classification"]["cutoff_k"] == k

    def test_name_override(self, capsys):
        code, out, _ = invoke(
            capsys, "eval", str(worked_path("s1m1")), "--quantiles", "6", "--name", "fixedness",
        )
        assert code == 0
        assert "fixedness" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        code, out, _ = invoke(
            capsys, "eval", str(worked_path("s1m1")), "--quantiles", "6", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert "Cumulative gain" in target.read_text()

    def test_tie_policy_changes_tied_profile(self, capsys, tmp_path):
        tied = tmp_path / "tied.csv"
        tied.write_text("id,score,label\na,1,0\nb,1,1\nc,1,0\nd,1,1\n")
        gains = {}
        for policy in ("optimistic", "pessimistic"):
            code, out, _ = invoke(
                capsys, "eval", str(tied), "--quantiles", "4",
                "--tie-policy", policy, "--format", "json",
            )
            assert code == 0
            gains[policy] = json.loads(out)["models"][0]["per_quantile_positive"]
        assert gains["optimistic"] == [1, 1, 0, 0]
        assert gains["pessimistic"] == [0, 0, 1, 1]


class TestCompare:
    def test_case_study_costs_and_rankings(self, capsys, case_study_dir):
        code, out, err = invoke(
            capsys, "compare",
            str(case_study_dir / "m1.csv"),
            str(case_study_dir / "m2.csv"),
            str(case_study_dir / "m3.csv"),
            "--quantiles", "10", "--full-recall", "--unit-cost", "0.04",
            "--fscore", "m1=0.70", "--fscore", "m2=0.74", "--fscore", "m3=0.77",
        )
        assert code == 0, err
        for value in ("16.73", "33.46", "41.82"):
            assert value in out
        assert "by cost to target (cheapest first): m1 < m2 < m3" in out
        assert "by supplied F-score (highest first): m3 > m2 > m1" in out

    def test_budget_plan_column(self, capsys, case_study_dir):
        code, out, _ = invoke(
            capsys, "compare",
            str(case_study_dir / "m1.csv"), str(case_study_dir / "m3.csv"),
            "--budget", "16.73", "--unit-cost", "0.04", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert [m["budget_plan"]["expected_tp"] for m in doc["models"]] == [414, 394]

    def test_plan_without_unit_cost_is_usage_error(self, capsys, case_study_dir):
        code, _, err = invoke(
            capsys, "compare", str(case_study_dir / "m1.csv"), "--full-recall"
        )
        assert code == 2
        assert "--unit-cost" in err
        assert_usage_error(err, "compare")

    def test_unknown_fscore_model(self, capsys, case_study_dir):
        code, _, err = invoke(
            capsys, "compare", str(case_study_dir / "m1.csv"), "--fscore", "zz=0.5"
        )
        assert code == 2
        assert "unknown model" in err
        assert_usage_error(err, "compare")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_fscore_is_usage_error(self, capsys, value):
        code, out, err = invoke(
            capsys, "compare", str(worked_path("s1m1")), str(worked_path("s1m2")),
            "--quantiles", "3", "--fscore", f"worked_s1m1={value}", "--format", "json",
        )
        assert code == 2
        assert out == ""
        assert "not finite" in err

    def test_repeated_fscore_is_usage_error(self, capsys):
        # A second value for one model is refused, not kept in place of the first.
        code, out, err = invoke(
            capsys, "compare", str(worked_path("s1m1")), str(worked_path("s1m2")),
            "--quantiles", "3", "--fscore", "worked_s1m1=0.1", "--fscore", "worked_s1m2=0.5",
            "--fscore", "worked_s1m1=0.9",
        )
        assert code == 2
        assert out == ""
        assert "argument --fscore: repeated model name(s) 'worked_s1m1';" in err
        assert_usage_error(err, "compare")

    def test_fscore_splits_at_the_last_equals_sign(self, capsys, tmp_path):
        shutil.copy(worked_path("s1m1"), tmp_path / "a=b.csv")
        code, out, err = invoke(
            capsys, "compare", str(tmp_path / "a=b.csv"), "--quantiles", "3",
            "--fscore", "a=b=0.5", "--format", "json",
        )
        assert code == 0, err
        assert json.loads(out)["models"][0]["supplied_fscore"] == 0.5


class TestOnePass:
    @pytest.mark.parametrize("command", ["compare", "chart"])
    def test_one_input_held_at_a_time(self, capsys, monkeypatch, case_study_dir, command):
        """No earlier input's dataset or ranking is alive when the next file is read.

        A record is a tuple, which takes no weak reference, so each is followed by its
        column of scores or of ranks: while a record lives, so does that column."""
        refs = []
        alive_at_read = []
        read, rank = cli.read_dataset_file, cli.rank_instances

        class Ranks(list):  # a list subclass takes a weak reference
            pass

        def traced_read(*args, **kwargs):
            alive_at_read.append(sum(ref() is not None for ref in refs))
            dataset, sha = read(*args, **kwargs)
            refs.append(weakref.ref(dataset.scores))
            return dataset, sha

        def traced_rank(*args, **kwargs):
            ranked = rank(*args, **kwargs)
            ranked = ranked._replace(positive_ranks=Ranks(ranked.positive_ranks))
            refs.append(weakref.ref(ranked.positive_ranks))
            return ranked

        monkeypatch.setattr(cli, "read_dataset_file", traced_read)
        monkeypatch.setattr(cli, "rank_instances", traced_rank)
        paths = [str(case_study_dir / f"{m}.csv") for m in ("m1", "m2", "m3")]
        code, _, err = invoke(capsys, command, *paths)
        assert code == 0, err
        assert len(refs) == 6
        assert alive_at_read == [0, 0, 0]

    @pytest.mark.parametrize("command, models, flags", [
        ("eval", ["m1"], []), ("compare", ["m1"], []), ("chart", ["m1"], []),
        ("budget", ["m1"], ["--unit-cost", "0.04", "--full-recall"]),
        ("compare", ["m1", "m2", "m3"], []),
        ("chart", ["m3", "m3"], ["--name", "a", "--name", "b"]),
        ("stop", ["m1", "m2"], ["--unit-cost", "0.04", "--annotated-quantiles", "1"]),
    ])
    def test_only_a_run_of_two_or_more_inputs_keeps_the_first_ones_ids(
            self, capsys, monkeypatch, case_study_dir, command, models, flags):
        """The first read fills an empty buffer that each later read follows; a run of one
        input passes none."""
        buffers, read = [], cli.read_dataset_file

        def traced_read(*args, ids=None, **kwargs):
            buffers.append((ids, None if ids is None else bytes(ids)))
            return read(*args, ids=ids, **kwargs)

        monkeypatch.setattr(cli, "read_dataset_file", traced_read)
        paths = [str(case_study_dir / f"{model}.csv") for model in models]
        code, _, err = invoke(capsys, command, *paths, *flags)
        assert code == 0, err
        if len(buffers) == 1:
            assert buffers == [(None, None)]
            return
        (first, before), *later = buffers
        assert before == b""
        ids = "".join(f"vnic{i:04d}\n" for i in range(1, 415))
        ids += "".join(f"pair{i:04d}\n" for i in range(415, 2092))
        assert sorted(first.splitlines()) == sorted(ids.encode().splitlines())
        assert later == [(first, bytes(first))] * len(later)

    @pytest.mark.parametrize("command, models, flags", [
        ("compare", ["m1", "m2", "m3"], []), ("chart", ["m1"], ["--ideal"]),
    ])
    def test_each_input_is_partitioned_and_profiled_through_the_cli_globals(
            self, capsys, monkeypatch, case_study_dir, command, models, flags):
        """`cli.partition_quantiles` and `cli.gain_profile` are called once per input, in argv
        order; the benchmark's layer timers wrap these two names.  The chart's ideal curve is
        partitioned through `metrics`, so the `cli` global does not see it."""
        calls = []

        def counted(module, name):
            function = getattr(module, name)

            def wrapper(ranked, *args):
                calls.append((module.__name__, name, ranked.name))
                return function(ranked, *args)
            monkeypatch.setattr(module, name, wrapper)

        for name in ("partition_quantiles", "gain_profile"):
            counted(cli, name)
        counted(gainbudget.metrics, "partition_quantiles")
        paths = [str(case_study_dir / f"{model}.csv") for model in models]
        code, _, err = invoke(capsys, command, *paths, *flags)
        assert code == 0, err
        per_input = [("gainbudget.cli", name, model)
                     for model in models for name in ("partition_quantiles", "gain_profile")]
        ideal = [("gainbudget.metrics", "partition_quantiles", "ideal")] if flags else []
        assert calls == per_input + ideal


class TestBudget:
    def test_fixed_budget_plan(self, capsys, case_study_dir):
        code, out, _ = invoke(
            capsys, "budget", str(case_study_dir / "m3.csv"),
            "--unit-cost", "0.04", "--budget", "16.73", "--format", "json",
        )
        assert code == 0
        plan = json.loads(out)["models"][0]["budget_plan"]
        assert plan["affordable_quantiles"] == 2
        assert plan["expected_tp"] == 394
        assert plan["spend"]["minor_units"] == 1673

    def test_target_plan(self, capsys, case_study_dir):
        code, out, _ = invoke(
            capsys, "budget", str(case_study_dir / "m2.csv"),
            "--unit-cost", "0.04", "--target", "410", "--format", "json",
        )
        assert code == 0
        plan = json.loads(out)["models"][0]["target_plan"]
        assert plan["quantiles_needed"] == 2
        assert plan["achievable"] is True

    def test_missing_plan_flags(self, capsys, case_study_dir):
        code, _, err = invoke(
            capsys, "budget", str(case_study_dir / "m1.csv"), "--unit-cost", "0.04"
        )
        assert code == 2
        assert "--budget" in err

    def test_integer_cost_rule(self, capsys, case_study_dir):
        code, out, _ = invoke(
            capsys, "budget", str(case_study_dir / "m1.csv"),
            "--unit-cost", "0.04", "--full-recall", "--cost-rule", "integer",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["models"][0]["target_plan"]["cost"]["minor_units"] == 1672


class TestStop:
    def test_marginal_tp(self, capsys, case_study_dir):
        code, out, _ = invoke(
            capsys, "stop", str(case_study_dir / "m3.csv"),
            "--annotated-quantiles", "2", "--unit-cost", "0.04", "--format", "json",
        )
        assert code == 0
        marginal = json.loads(out)["models"][0]["marginal"]
        assert marginal["next_quantile_tp"] == 8
        assert marginal["next_quantile_cost"]["minor_units"] == 836

    def test_requires_annotated(self, capsys, case_study_dir):
        code, _, err = invoke(
            capsys, "stop", str(case_study_dir / "m3.csv"), "--unit-cost", "0.04"
        )
        assert code == 2
        assert "--annotated-quantiles" in err


class TestChart:
    def test_svg_to_file(self, capsys, case_study_dir, tmp_path):
        target = tmp_path / "chart.svg"
        code, out, _ = invoke(
            capsys, "chart",
            str(case_study_dir / "m1.csv"), str(case_study_dir / "m2.csv"),
            "--baseline", "--ideal", "--svg-out", str(target),
        )
        assert code == 0
        assert out == ""
        root = ET.fromstring(target.read_text())
        names = {
            el.get("data-name")
            for el in root.iter("{http://www.w3.org/2000/svg}polyline")
        }
        assert names == {"m1", "m2", "ideal", "random baseline"}

    def test_svg_to_stdout(self, capsys, case_study_dir):
        code, out, _ = invoke(capsys, "chart", str(case_study_dir / "m1.csv"))
        assert code == 0
        assert out.startswith("<svg")


#: Flags each subcommand needs to get past argparse; the flag under test comes after.
REQUIRED_FLAGS = {
    "eval": [],
    "compare": ["--unit-cost", "0.04", "--full-recall"],
    "budget": ["--unit-cost", "0.04", "--budget", "1"],
    "stop": ["--unit-cost", "0.04", "--annotated-quantiles", "1"],
    "chart": [],
}

#: (subcommand, flag, value) that no input file can make valid.
BAD_FLAG_VALUES = [
    ("compare", "--budget", "NaN"),
    ("compare", "--budget", "sNaN"),
    ("compare", "--unit-cost", "Infinity"),
    ("compare", "--unit-cost", "-Infinity"),
    ("compare", "--quantiles", "0"),
    ("compare", "--quantiles", "-2"),
    ("compare", "--cutoff-frac", "2"),
    ("compare", "--cutoff-frac", "-0.1"),
    ("compare", "--cutoff-frac", "nan"),
    # Exact arithmetic on these would run for minutes or overflow.
    ("compare", "--unit-cost", "1e-999999999"),
    ("compare", "--budget", "1e999999999"),
    ("compare", "--budget", "-1e-101"),
    ("eval", "--cutoff-k", "-1"),
    ("stop", "--annotated-quantiles", "-1"),
    ("stop", "--annotated-quantiles", "10"),  # not below the default --quantiles 10
    ("budget", "--target", "0"),
    ("budget", "--budget", "-0.01"),
    ("budget", "--unit-cost", "0"),
    ("stop", "--unit-cost", "-1"),
    ("chart", "--width", "159"),
    ("chart", "--height", "119"),
    # Past float range, the chart's coordinates would overflow.
    ("chart", "--width", "1" + "0" * 400),
    ("chart", "--height", "1" + "0" * 400),
    # Past int()'s 4,300-digit limit, so int() refuses them.
    ("chart", "--quantiles", "1" + "0" * 5000),
    ("chart", "--quantiles", "-1" + "0" * 5000),
    # A `_` digit group is refused in every number flag, as in a score: 0_04 is not 4.
    ("compare", "--unit-cost", "0_04"),
    ("compare", "--budget", "16_73"),
    ("compare", "--cutoff-frac", "0_5"),
    ("compare", "--cutoff-frac", "0.0_5"),  # read as 0.05, inside [0, 1], without the rule
    ("compare", "--fscore", "other=0_7"),
    ("compare", "--quantiles", "1_0"),
    ("chart", "--width", "1_000"),
    # So is a non-ASCII digit, which int() and Decimal() read: Arabic-Indic and fullwidth.
    ("eval", "--quantiles", "\u0663"),
    ("eval", "--quantiles", "\uff11"),
    ("budget", "--unit-cost", "0.0\u0664"),
    ("compare", "--fscore", "other=0.\u0667"),
    ("chart", "--quantiles", "\u0660" * 5001 + "3"),  # was "too large", where ASCII zeros read 3
    # The models are named before any read: no-such-file and other.
    ("compare", "--fscore", "other"),
    ("compare", "--fscore", "zz=0.5"),
    ("compare", "--fscore", "other=x"),
    ("compare", "--fscore", "other=nan"),
    ("compare", "--name", "other"),
    ("budget", "--name", "other"),
    ("stop", "--name", "other"),
    ("chart", "--name", "other"),
    # A control character would split a table row or break the SVG.
    ("chart", "--name", "a\x01b"),
    ("eval", "--name", "a\nb"),
    ("stop", "--name", "a\x85b"),  # NEL, from the C1 range U+0080-U+009F
    # The currency label is printed in the metadata line, so the same holds.
    ("compare", "--currency", "E\nUR"),
    ("budget", "--currency", "\x1b[31m$"),
    ("stop", "--currency", "\x9f"),
    # A line or paragraph separator is no control character, but str.splitlines splits there.
    ("eval", "--name", "a\u2028b"),
    ("budget", "--currency", "\u2029"),
    # A blank name would print an empty Model cell.
    ("compare", "--name", ""),
    ("eval", "--name", "   "),
    ("chart", "--name", "\u3000"),  # ideographic space, which str.strip removes
    # A schema no input can match as meant: cells and header names are stripped,
    # and label tokens are matched ignoring case.
    ("eval", "--negative-token", ""),
    ("eval", "--positive-token", " 1 "),
    ("compare", "--negative-token", "TRUE"),  # a default positive token
    ("budget", "--positive-token", "0"),  # a default negative token
    ("eval", "--id-col", "score"),
    ("stop", "--label-col", "id"),
    ("chart", "--id-col", " id "),
    ("eval", "--delimiter", "\r"),
    ("compare", "--delimiter", "\n"),
    ("eval", "--delimiter", '"'),  # csv's quote character, which Python 3.13's reader refuses
]


class TestErrorsAndHelp:
    def test_missing_file(self, capsys):
        code, out, err = invoke(capsys, "eval", "no-such-file.csv")
        assert code == 1
        assert out == ""
        assert "cannot read" in err

    def test_validation_error_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,score,label\na,oops,1\n")
        code, _, err = invoke(capsys, "eval", str(bad))
        assert code == 1
        assert "non-numeric score" in err

    def test_quantiles_larger_than_n(self, capsys):
        code, _, err = invoke(capsys, "eval", str(worked_path("s1m1")))
        assert code == 1  # default Q=10 exceeds the 6-row fixture
        assert "quantile count" in err

    def test_cutoff_beyond_n_is_input_error(self, capsys):
        # Whether K fits depends on the file, so it stays an input error.
        code, out, err = invoke(
            capsys, "eval", str(worked_path("s1m1")), "--quantiles", "3", "--cutoff-k", "7"
        )
        assert code == 1
        assert out == ""
        assert "cutoff must be in 0..6" in err

    @pytest.mark.parametrize("flag, value", [("--quantiles", "8"), ("--cutoff-k", "7")])
    def test_bound_error_names_the_input(self, capsys, flag, value):
        # 8 quantiles and a cutoff of 7 fit the 12-row tied.csv, not the 6-row second input.
        code, out, err = invoke(capsys, "compare", str(DATA_DIR / "tied.csv"),
                                str(worked_path("s1m1")), "--quantiles", "3", flag, value)
        assert (code, out) == (1, "")
        assert err.startswith("gainbudget: worked_s1m1: "), err

    def test_negative_zero_budget_accepted(self, capsys):
        code, out, err = invoke(
            capsys, "budget", str(worked_path("s1m1")), "--quantiles", "3",
            "--unit-cost", "0.04", "--budget", "-0",
        )
        assert code == 0, err
        assert "Fixed budget plan" in out

    def test_unknown_flag(self, capsys):
        code, _, err = invoke(capsys, "eval", str(worked_path("s1m1")), "--nope")
        assert code == 2
        assert "unrecognized arguments: --nope" in err
        assert_usage_error(err, "eval")

    @pytest.mark.parametrize(
        "command,flag,value",
        BAD_FLAG_VALUES,
        # compare's cases keep the ids they had before other subcommands joined.
        ids=[
            f"{flag}-{value}" if command == "compare" else f"{command}-{flag}-{value}"
            for command, flag, value in BAD_FLAG_VALUES
        ],
    )
    def test_bad_flag_value_is_usage_error(self, command, flag, value):
        # The inputs do not exist: a usage error must come before any read.
        inputs = ["no-such-file.csv"] + ([] if command == "eval" else ["other.csv"])
        code, out, err = invoke_child(
            command, *inputs, *REQUIRED_FLAGS[command], f"{flag}={value}"
        )
        assert code == 2
        assert out == ""
        assert f"argument {flag}" in err
        assert "Traceback" not in err
        assert_usage_error(err, command)

    @pytest.mark.parametrize("command, flag, value, message", [
        ("chart", "--quantiles", "1" + "0" * 5000, "too large, got 5001 digits"),
        ("eval", "--cutoff-k", " -1" + "0" * 5000, "must be at least 0, got 5001 digits"),
        ("chart", "--width", "+1" + "0" * 5000, "must be at most 1000000, got 5001 digits"),
        # Leading zeros are no digits of the value: the bound is judged on what follows them.
        ("eval", "--cutoff-k", "-" + "0" * 5001 + "5", "must be at least 0, got -5"),
        ("chart", "--quantiles", "0" * 5001 + "1" + "0" * 5000, "too large, got 5001 digits"),
    ], ids=["unbounded", "negative", "bounded", "padded-negative", "padded-unbounded"])
    def test_integer_past_the_digit_limit_is_named_by_its_bound(
        self, capsys, command, flag, value, message
    ):
        code, out, err = invoke(capsys, command, "no-such-file.csv", *REQUIRED_FLAGS[command],
                                f"{flag}={value}")
        assert (code, out) == (2, "")
        assert f"argument {flag}: {message}\n" in err

    def test_out_of_memory_is_one_line_and_exit_one(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError  # as a failed allocation raises it: str() of it is empty

        monkeypatch.setattr(cli, "read_dataset_file", exhausted)
        code, out, err = invoke(capsys, "eval", str(worked_path("s1m1")), "--quantiles", "3")
        assert (code, out, err) == (1, "", "gainbudget: out of memory\n")

    def test_zero_padded_integer_is_read_by_its_significant_digits(self, capsys):
        padded = invoke(capsys, "eval", str(worked_path("s1m1")), "--quantiles", "0" * 5001 + "5")
        assert padded == invoke(capsys, "eval", str(worked_path("s1m1")), "--quantiles", "5")
        assert padded[0] == 0

    def test_unknown_subcommand(self, capsys):
        code, _, _ = invoke(capsys, "frobnicate")
        assert code == 2

    def test_top_level_help(self, capsys):
        code, out, _ = invoke(capsys, "--help")
        assert code == 0
        for sub in ("eval", "compare", "budget", "stop", "chart"):
            assert sub in out

    @pytest.mark.parametrize(
        "sub,flags",
        [
            ("eval", ["--quantiles", "--tie-policy", "--id-col", "--score-col",
                      "--label-col", "--positive-token", "--negative-token",
                      "--cutoff-k", "--cutoff-frac", "--format", "--out"]),
            ("compare", ["--unit-cost", "--currency", "--budget", "--target",
                         "--full-recall", "--cost-rule", "--fscore"]),
            ("budget", ["--unit-cost", "--currency", "--budget", "--target",
                        "--full-recall", "--cost-rule"]),
            ("stop", ["--unit-cost", "--annotated-quantiles", "--cost-rule"]),
            ("chart", ["--svg-out", "--width", "--height", "--baseline", "--ideal"]),
        ],
    )
    def test_subcommand_help_lists_flags(self, capsys, sub, flags):
        code, out, _ = invoke(capsys, sub, "--help")
        assert code == 0
        for flag in flags:
            assert flag in out


class TestLargeMoney:
    """Money flags near the top of their range keep every digit."""

    DOLLARS = 10**30  # the flag value 1e30

    def run_case(self, capsys, case_study_dir, fmt, *argv):
        code, out, err = invoke(
            capsys, argv[0], str(case_study_dir / "m1.csv"), *argv[1:], "--format", fmt
        )
        assert code == 0, err
        return json.loads(out)["models"][0] if fmt == "json" else out

    @pytest.mark.parametrize("sub", ["budget", "compare"])
    def test_huge_budget(self, capsys, case_study_dir, sub):
        argv = (sub, "--unit-cost", "0.04", "--budget", "1e30", "--full-recall")
        plan = self.run_case(capsys, case_study_dir, "json", *argv)["budget_plan"]
        assert plan["budget"]["minor_units"] == self.DOLLARS * 100
        assert plan["affordable_quantiles"] == 10
        assert plan["spend"]["minor_units"] == 8364
        assert plan["leftover"]["minor_units"] == self.DOLLARS * 100 - 8364
        out = self.run_case(capsys, case_study_dir, "text", *argv)
        assert f" {self.DOLLARS}.00 " in out
        assert f" {self.DOLLARS - 84}.36 " in out

    @pytest.mark.parametrize("sub", ["budget", "compare"])
    def test_huge_unit_cost(self, capsys, case_study_dir, sub):
        argv = (sub, "--unit-cost", "1e30", "--budget", "16.73", "--full-recall")
        model = self.run_case(capsys, case_study_dir, "json", *argv)
        # Two deciles are 418.2 candidates at 10^30 each.
        assert model["target_plan"]["cost"]["minor_units"] == 41820 * self.DOLLARS
        assert model["budget_plan"]["affordable_quantiles"] == 0
        assert model["budget_plan"]["leftover"]["minor_units"] == 1673
        out = self.run_case(capsys, case_study_dir, "text", *argv)
        assert f" {418 * self.DOLLARS + 2 * self.DOLLARS // 10}.00 " in out

    def test_huge_unit_cost_stop(self, capsys, case_study_dir):
        argv = ("stop", "--unit-cost", "1e30", "--annotated-quantiles", "1")
        marginal = self.run_case(capsys, case_study_dir, "json", *argv)["marginal"]
        # The second decile is 209.1 candidates at 10^30 each.
        assert marginal["next_quantile_cost"]["minor_units"] == 20910 * self.DOLLARS
        assert marginal["next_quantile_tp"] == 209
        out = self.run_case(capsys, case_study_dir, "text", *argv)
        assert f" {209 * self.DOLLARS + self.DOLLARS // 10}.00 " in out


class TestDeterminism:
    def test_same_argv_same_bytes(self, capsys, case_study_dir, tmp_path):
        argv = [
            "compare",
            str(case_study_dir / "m1.csv"), str(case_study_dir / "m3.csv"),
            "--full-recall", "--unit-cost", "0.04",
        ]
        first = invoke(capsys, *argv)
        second = invoke(capsys, *argv)
        assert first == second
        assert first[1].encode() == second[1].encode()

    def test_rename_keeps_content_stable(self, capsys, case_study_dir, tmp_path):
        # the same file under a copied path yields identical numbers
        copy = tmp_path / "renamed.csv"
        shutil.copy(case_study_dir / "m1.csv", copy)
        code, out, _ = invoke(
            capsys, "eval", str(copy), "--name", "m1", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["models"][0]["cumulative_positive_count"][1] == 414


def test_cli_import_loads_no_xml_or_network_package():
    # Every run and every --help pays for these imports; xml.sax.saxutils alone pulled in
    # urllib.request, http, email and ssl, dataclasses pulled in inspect, ast, dis and
    # tokenize, typing.NamedTuple pulled in typing, and Fraction money pulled in fractions.
    # -S keeps a site .pth file's imports out of the check.
    names = ("{'xml', 'urllib.request', 'http', 'email', 'ssl', "
             "'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'typing', 'fractions'}")
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import gainbudget.cli; "
             f"print(*sorted({names} & set(sys.modules)))")
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(Path(gainbudget.__file__).parents[1])],
        capture_output=True, text=True, timeout=30,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "\n", "")


GOLDEN_DIR = Path(__file__).parent / "golden"
SRC_DIR = str(Path(gainbudget.__file__).parents[1])
#: The program's stdout as a user gets it: PYTHONUNBUFFERED left out, so it is buffered.
BUFFERED_ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
                "PYTHONPATH": SRC_DIR}
#: A program run as `python -m gainbudget.cli` (through runpy, as -m does) and as the
#: installed `gainbudget` script runs it, with a spy on the table renderer that prints the
#: collector's state inside the run.  The spy goes in before `cli` imports the renderer.
PROCESS_PROBE = """
import gc, sys
import gainbudget.report as report
render = report.render_table
def spy(*args, **kwargs):
    print(gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr)
    return render(*args, **kwargs)
report.render_table = spy
route = sys.argv[1]
sys.argv[1:] = ["eval", "worked_s1m1.csv", "--quantiles", "6", "--cutoff-k", "4"]
if route == "-m":
    import runpy
    runpy.run_module("gainbudget.cli", run_name="__main__", alter_sys=True)
from gainbudget.cli import main
sys.exit(main())
"""


class TestProgramProcess:
    @pytest.mark.parametrize("route", ["-m", "script"])
    def test_program_entry_turns_the_collector_off_and_freezes_the_imports(self, route):
        done = subprocess.run(
            [sys.executable, "-c", PROCESS_PROBE, route],
            cwd=DATA_DIR, env=BUFFERED_ENV, capture_output=True, text=True, timeout=30,
        )
        assert (done.returncode, done.stderr) == (0, "False True\n")
        assert done.stdout == (GOLDEN_DIR / "worked-eval-s1m1.txt").read_text(encoding="utf-8")

    def test_the_installed_script_is_the_program_entry(self):
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        assert 'gainbudget = "gainbudget.cli:main"\n' in pyproject.read_text(encoding="utf-8")

    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_in_process_leaves_the_collector_as_it_was(self, capsys, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            before = gc.isenabled(), gc.get_freeze_count()
            assert invoke(capsys, "eval", str(worked_path("s1m1")), "--quantiles", "6")[0] == 0
            assert invoke(capsys, "eval", "--help")[0] == 0
            assert (gc.isenabled(), gc.get_freeze_count()) == before
        finally:
            (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_json_is_loaded_by_the_json_renderer_alone(self, fmt):
        # -S keeps a site .pth file's imports out of the check.
        probe = ("import sys; sys.path.insert(0, sys.argv[1]); import gainbudget.cli; "
                 "loaded = 'json' in sys.modules; code = gainbudget.cli.run(sys.argv[2:]); "
                 "print(loaded, 'json' in sys.modules, file=sys.stderr); sys.exit(code)")
        argv = ["eval", "worked_s1m1.csv", "--quantiles", "6", "--cutoff-k", "4", "--format", fmt]
        done = subprocess.run([sys.executable, "-S", "-c", probe, SRC_DIR, *argv],
                              cwd=DATA_DIR, capture_output=True, timeout=30)
        assert (done.returncode, done.stderr) == (0, f"False {fmt == 'json'}\n".encode())
        ext = {"text": "txt", "json": "json"}[fmt]
        assert done.stdout == (GOLDEN_DIR / f"worked-eval-s1m1.{ext}").read_bytes()


#: A report that fits in stdout's 8 KiB buffer, one of 29 KB that does not (read from the
#: case-study files), and --help's text.
UNTAKEN_OUTPUT = {
    "small report": ["eval", "worked_s1m1.csv", "--quantiles", "6"],
    "large report": ["eval", "m1.csv", "--quantiles", "500", "--format", "json"],
    "help": ["compare", "--help"],
}


@pytest.fixture(params=UNTAKEN_OUTPUT.values(), ids=UNTAKEN_OUTPUT)
def untaken(request, case_study_dir):
    """Exit code and stderr of a program run that writes to a given stdout, buffered as by
    default."""
    argv = request.param
    cwd = case_study_dir if "m1.csv" in argv else DATA_DIR

    def run_to(stdout):
        done = subprocess.run([sys.executable, "-m", "gainbudget.cli", *argv], stdout=stdout,
                              stderr=subprocess.PIPE, cwd=cwd, env=BUFFERED_ENV, text=True,
                              timeout=30)
        return done.returncode, done.stderr

    return run_to


class TestOutputStdoutDoesNotTake:
    """Output that stdout does not take is one input/output error, exit 1, under the default
    buffering too: the interpreter's own flush at exit neither fails nor prints."""

    def test_closed_pipe(self, untaken):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = untaken(write_end)
        finally:
            os.close(write_end)
        assert result == (1, f"gainbudget: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device(self, untaken):
        with open("/dev/full", "wb") as full:
            result = untaken(full)
        assert result == (1, f"gainbudget: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")

    @pytest.mark.parametrize("argv, out_flag, golden", [
        (["eval", "worked_s1m1.csv", "--quantiles", "6", "--cutoff-k", "4"], "--out",
         "worked-eval-s1m1.txt"),
        (["chart", *(f"worked_{case}.csv" for case in ("s1m1", "s1m2", "s2m1", "s2m2")),
          "--quantiles", "6", "--baseline", "--ideal"], "--svg-out", "worked-chart.svg"),
    ], ids=["report", "chart"])
    def test_closed_stdout(self, tmp_path, argv, out_flag, golden):
        assert run_with_stdout_closed(*argv) == (1, CLOSED_STDOUT)
        assert run_with_stdout_closed(*argv, out_flag, str(tmp_path / golden)) == (0, "")
        assert (tmp_path / golden).read_bytes() == (GOLDEN_DIR / golden).read_bytes()

    @pytest.mark.parametrize("argv", [["--help"], ["eval", "--help"], ["chart", "-h"]],
                             ids=["program", "eval", "chart"])
    def test_closed_stdout_help(self, argv):
        # argparse would print the help on stderr, where sys.stdout is None, and exit 0.
        assert run_with_stdout_closed(*argv) == (1, CLOSED_STDOUT)

    def test_help_to_a_closed_pipe_unbuffered(self):
        # Unbuffered, the write itself fails, which argparse would pass over and exit 0.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "gainbudget.cli", "eval", "--help"],
                                  stdout=write_end, stderr=subprocess.PIPE, cwd=DATA_DIR,
                                  env={**BUFFERED_ENV, "PYTHONUNBUFFERED": "1"}, text=True,
                                  timeout=30)
        finally:
            os.close(write_end)
        broken = f"gainbudget: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n"
        assert (done.returncode, done.stderr) == (1, broken)


CLOSED_STDOUT = f"gainbudget: [Errno {errno.EBADF}] {os.strerror(errno.EBADF)}: '<stdout>'\n"


def run_with_stdout_closed(*argv: str) -> tuple[int, str]:
    """Exit code and stderr of the program run with fd 1 closed before it starts, so that
    sys.stdout is None."""
    done = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "gainbudget.cli", *argv],
        stderr=subprocess.PIPE, cwd=DATA_DIR, env=BUFFERED_ENV, text=True, timeout=30,
    )
    return done.returncode, done.stderr
