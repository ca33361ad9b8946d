"""The exit-code contract under random argv and random input bytes.

Every run of `cli.run` must return 0, 1 or 2 without letting an exception
escape, and every JSON report from a successful run must be strict JSON
(no NaN or Infinity tokens).  Runs are in process and write no files:
no `--out` or `--svg-out` is generated, and free tokens never start with
"-", so they cannot become flags.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from gainbudget import cli, dataset

#: flag -> (values some input makes valid, values no input makes valid).
FLAG_VALUES = {
    "--quantiles": (["1", "2", "3", "10"], ["0", "-2", "1.5", "x", ""]),
    "--cutoff-k": (["0", "1", "2", "7"], ["-1", "nan", "x"]),
    "--cutoff-frac": (["0", "0.5", "1"], ["2", "-0.1", "nan"]),
    "--unit-cost": (["0.04", "16.73", "0.001", "1e30", "1e-100"], ["0", "-1", "nan", "inf", "1e-101"]),
    "--budget": (["0", "-0", "0.04", "16.73", "1e30"], ["-0.01", "sNaN", "1e999999999", "x"]),
    "--target": (["1", "2", "7", "1000"], ["0", "-1", "x"]),
    "--annotated-quantiles": (["0", "1"], ["-1", "10", "x"]),
    # Non-finite F-scores are here so that a JSON run which accepts one is caught.
    "--fscore": (
        [f"{name}={value}" for name in ("m0", "m1", "m2") for value in ("0.7", "1", "nan", "inf", "-inf")],
        ["zz=0.5", "m0", "m0=x", "=1"],
    ),
    "--cost-rule": (["fractional", "integer"], ["x"]),
    "--currency": (["$", "EUR", "", "<&>", '"'], ["E\nUR"]),
    "--tie-policy": (["stable", "pessimistic", "optimistic"], ["random"]),
    "--width": (["160", "640"], ["159", "-5", "x", "1" + "0" * 400]),
    "--height": (["120", "480"], ["119", "0", "1" + "0" * 400]),
    "--format": (["text", "md", "json"], ["xml"]),
    "--delimiter": ([",", "tab", "\\t"], [";;", "", "\r", "\n", '"']),
    "--positive-token": (["1", "true"], ["yes", "", " 1 ", "0"]),
    "--negative-token": (["0", "false"], ["no", "", "0 ", "TRUE"]),
    "--id-col": (["id"], ["x", " id", "score"]),
    "--score-col": (["score"], ["label", "score\t"]),
    "--label-col": (["label"], ["id", " label "]),
    "--name": (["m0", "m1", "m2", "zz"], ["", " ", "a\tb"]),
}
SWITCHES = ("--full-recall", "--baseline", "--ideal")

_IO = ["--quantiles", "--tie-policy", "--id-col", "--score-col", "--label-col",
       "--positive-token", "--negative-token", "--delimiter", "--name"]
_COST = ["--unit-cost", "--currency", "--cost-rule"]
_PLANS = ["--budget", "--target", "--full-recall"]
_CUTOFF = ["--cutoff-k", "--cutoff-frac"]
#: The flags each subcommand accepts (no --out or --svg-out: runs write no files).
ACCEPTED = {
    "eval": _IO + _CUTOFF + ["--format"],
    "compare": _IO + _CUTOFF + _COST + _PLANS + ["--fscore", "--format"],
    "budget": _IO + _COST + _PLANS + ["--format"],
    "stop": _IO + _COST + ["--annotated-quantiles", "--format"],
    "chart": _IO + ["--width", "--height", "--baseline", "--ideal"],
}
#: Flags that change how a file is read; the JSON test keeps them at their defaults.
_READING = {"--quantiles", "--format", "--delimiter", "--id-col", "--score-col", "--label-col",
            "--positive-token", "--negative-token"}
#: Flags each subcommand requires, with values that some input makes valid.
REQUIRED = {
    "eval": [],
    "compare": [],
    "budget": ["--unit-cost", "0.04", "--full-recall"],
    "stop": ["--unit-cost", "0.04", "--annotated-quantiles", "1"],
    "chart": [],
}


def flag_tokens(names, valid_only: bool) -> st.SearchStrategy[list[str]]:
    def tokens(flag: str) -> st.SearchStrategy[list[str]]:
        if flag in SWITCHES:
            return st.just([flag])
        valid, invalid = FLAG_VALUES[flag]
        return st.sampled_from(valid if valid_only else valid + invalid).map(lambda v: [flag, v])

    return st.sampled_from(sorted(names)).flatmap(tokens)


def any_tokens(command: str) -> st.SearchStrategy[list[str]]:
    """Mostly the subcommand's own flags; sometimes another's, or a stray positional."""
    own = flag_tokens(ACCEPTED[command], valid_only=False)
    return st.one_of(
        own, own, own,
        flag_tokens([*FLAG_VALUES, *SWITCHES], valid_only=False),
        st.text(alphabet="ab01.=, ", min_size=1, max_size=5).map(lambda text: [text]),
    )

GOOD_SCORES = st.one_of(
    st.integers(-3, 3).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
GOOD_LABELS = st.sampled_from(["1", "0", "true", "FALSE"])
COLUMN_ORDERS = st.sampled_from([("id", "score", "label"), ("label", "score", "id")])


@st.composite
def csv_bytes(draw, well_formed: bool, with_positive: bool = False, delimiter: str = ","):
    """A delimited file; unless well formed, any row or the header may be bad."""
    scores, labels, order = GOOD_SCORES, GOOD_LABELS, draw(COLUMN_ORDERS)
    header = draw(st.sampled_from(["", "\ufeff"])) + ",".join(order)
    if not well_formed:
        scores = st.one_of(scores, scores, st.sampled_from(["-0", "1_0", "abc", "", "1e400", "nan"]))
        labels = st.one_of(labels, labels, labels, st.sampled_from(["yes", "", "2"]))
        header = draw(st.sampled_from([header] * 3 + ["id,score", "id,id,score,label"]))
    rows = draw(st.lists(st.tuples(scores, labels), min_size=2, max_size=12))
    if with_positive:
        at = draw(st.integers(0, len(rows) - 1))
        rows[at] = (rows[at][0], "1")
    lines = [header] + [
        ",".join({"id": str(i), "score": score, "label": label}[col] for col in order)
        for i, (score, label) in enumerate(rows)
    ]
    if not well_formed and draw(st.booleans()):
        lines.append(draw(st.sampled_from(["0,1,1", ",1,1", "a b,1", '"q,1,1'])))
    lines = [line.replace(",", delimiter) for line in lines]  # no drawn cell holds a comma
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return (ending.join(lines) + draw(st.sampled_from(["", ending]))).encode("utf-8")


any_bytes = st.one_of(csv_bytes(True), csv_bytes(False), st.binary(max_size=48))


def run_cli_with_err(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def run_cli(argv: list[str]) -> tuple[int, str]:
    return run_cli_with_err(argv)[:2]


def report_format(argv: list[str]) -> str | None:
    """The --format a successful run used, by parsing its argv again."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return getattr(cli.build_parser().parse_args(argv), "format", None)


def reject_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token}")


def check_run(argv: list[str]) -> None:
    code, out = run_cli(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 0 and report_format(argv) == "json":
        json.loads(out, parse_constant=reject_constant)


def argv_for(command: str, tmp: str, contents: list[bytes], flags: list[list[str]]) -> list[str]:
    """The subcommand, one file per content (m0.csv, ...), then the flag tokens."""
    paths = []
    for i, data in enumerate(contents):
        path = Path(tmp) / f"m{i}.csv"
        path.write_bytes(data)
        paths.append(str(path))
    return [command, *paths, *(token for tokens in flags for token in tokens)]


@given(st.sampled_from(sorted(ACCEPTED)), st.lists(any_bytes, min_size=1, max_size=3), st.data())
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_argv_and_bytes_keep_the_exit_code_contract(command, contents, data):
    flags = data.draw(st.lists(any_tokens(command), max_size=6))
    if data.draw(st.booleans()):  # a start that the files alone can make valid
        flags.insert(0, REQUIRED[command] + ["--quantiles", "2"])
    with tempfile.TemporaryDirectory() as tmp:
        check_run(argv_for(command, tmp, contents, flags))


@given(st.sampled_from(["eval", "compare", "budget", "stop"]), st.data())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_json_reports_are_strict_json(command, data):
    many = 1 if command == "eval" else 3
    contents = data.draw(st.lists(csv_bytes(True), min_size=1, max_size=many))
    own = [flag for flag in ACCEPTED[command] if flag not in _READING]
    flags = data.draw(st.lists(flag_tokens(own, valid_only=True), max_size=5))
    if command == "compare":  # supplied F-scores are printed as given, so draw them apart
        flags += data.draw(st.lists(flag_tokens(["--fscore"], valid_only=True), max_size=3))
    fixed = [REQUIRED[command], ["--quantiles", "2", "--format", "json"]]
    with tempfile.TemporaryDirectory() as tmp:
        check_run(argv_for(command, tmp, contents, fixed + flags))


def at_most_one(*flags: str) -> st.SearchStrategy[list[str]]:
    """No flag, or one of `flags` with a value valid on any file of two or more rows."""
    one = flag_tokens(flags, valid_only=True).filter(lambda tokens: tokens != ["--cutoff-k", "7"])
    return st.one_of(st.just([]), one)


#: Per subcommand: flags that make a run valid, then groups of flags of which
#: a run takes at most one, so that no two drawn flags exclude each other.
LAW_FLAGS = {
    "compare": (["--unit-cost", "0.04"], [
        ("--cutoff-k", "--cutoff-frac"), ("--target", "--full-recall"), ("--budget",),
        ("--unit-cost",),
    ]),
    "budget": (["--unit-cost", "0.04", "--budget", "1"], [
        ("--target", "--full-recall"), ("--budget",), ("--unit-cost",),
    ]),
    "stop": (REQUIRED["stop"], [("--annotated-quantiles",), ("--unit-cost",)]),
}
_SHARED = [("--cost-rule",), ("--currency",), ("--tie-policy",)]


@given(st.sampled_from(sorted(LAW_FLAGS)), st.data())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_each_model_of_a_report_matches_its_one_input_run(command, data):
    """models[i] of a many-input report is models[0] of a run on input i alone."""
    contents = data.draw(st.lists(csv_bytes(True, with_positive=True), min_size=2, max_size=3))
    names = [f"m{i}" for i in range(len(contents))]
    base, groups = LAW_FLAGS[command]
    flags = [base, ["--quantiles", "2", "--format", "json"]]
    flags += [data.draw(at_most_one(*group)) for group in groups + _SHARED]
    fscores = {}
    if command == "compare":  # a one-input run takes only its own model's F-score
        fscores = data.draw(st.dictionaries(st.sampled_from(names), st.sampled_from(["0.7", "1"])))
    own = {name: ["--fscore", f"{name}={value}"] for name, value in fscores.items()}
    with tempfile.TemporaryDirectory() as tmp:
        argv = argv_for(command, tmp, contents, flags + list(own.values()))
        code, out = run_cli(argv)
        assert code == 0, argv
        models = json.loads(out)["models"]
        assert [m["name"] for m in models] == names
        options = [token for tokens in flags for token in tokens]
        for i, name in enumerate(names):
            single = [command, argv[1 + i], *options, *own.get(name, []), "--name", name]
            code, out = run_cli(single)
            assert code == 0, single
            assert json.loads(out)["models"] == [models[i]], single


#: Characters of the ids that `edited_inputs` draws: ASCII, non-ASCII, a 4-byte one, a
#: space (so padded ids), \x1c (which only str.strip() drops) and `_`.
ID_CHARS = ["a", "b", "7", "é", "\U0001f600", " ", "\x1c", "_"]
#: Lines a later input may carry after a prefix of the first input's rows.
FAULTS = ['"q",1,1', "x,abc,1", "", "x,1", " , , ", "y,1,maybe"]


@st.composite
def edited_inputs(draw, surrogates: bool = False) -> list[str]:
    """The text of a first input with unique ids, then of one to three later inputs, each
    an edit of the first: the same ids in order with scores of other widths (so block
    edges fall elsewhere), cut short, extended, its rows reordered, one id renamed or
    padded, or an earlier id, or a fault line or a blank line and maybe the id before it,
    given after a prefix."""
    chars = ID_CHARS + ["\ud800"] * surrogates
    uid = st.text(st.sampled_from(chars), min_size=1, max_size=4).filter(str.strip)
    ids = draw(st.lists(uid, min_size=2, max_size=24, unique_by=str.strip))
    score = st.sampled_from(["1", "0.5", "-2", "0.123456789", "1e3", "3"])
    label = st.sampled_from(["0", "1", "true"])

    def rows(ids: list[str]) -> list[str]:  # the first row is a positive
        return [f"{uid},{draw(score)},{draw(label) if i else 1}" for i, uid in enumerate(ids)]

    texts = [rows(ids)]
    for _ in range(draw(st.integers(1, 3))):
        cut = draw(st.integers(1, len(ids)))
        edit = draw(st.sampled_from(["same", "cut", "extend", "permute", "rename", "pad",
                                     "repeat", "fault"]))
        later = {
            "same": lambda: rows(ids),
            "cut": lambda: rows(ids[:cut]),
            "extend": lambda: rows(ids + draw(st.lists(uid, min_size=1, max_size=6))),
            "permute": lambda: rows(draw(st.permutations(ids))),
            "rename": lambda: rows(ids[:cut - 1] + [draw(uid)] + ids[cut:]),
            "pad": lambda: rows(ids[:cut - 1] + [f" {ids[cut - 1]}\x1c"] + ids[cut:]),
            "repeat": lambda: rows(ids[:cut] + [draw(st.sampled_from(ids[:cut]))] + ids[cut:]),
            "fault": lambda: rows(ids[:cut]) + [draw(st.sampled_from(FAULTS))]
            + rows(ids[cut - draw(st.integers(0, 1)):]),  # then, maybe, the last id again
        }[edit]()
        texts.append(later)
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return [ending.join(["id,score,label", *text, ""]) for text in texts]


@given(st.sampled_from(sorted(LAW_FLAGS)), edited_inputs(), st.sampled_from([1, 7, 32768]),
       st.data())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_each_model_of_a_report_on_edited_inputs_matches_its_one_input_run(
        command, texts, block_chars, data):
    """As above, with later inputs drawn as edits of the first, so that they repeat its ids
    in order for a while, or to the end: a run reports what each input gives alone, and
    fails as the first input that fails alone fails."""
    names = [f"m{i}" for i in range(len(texts))]
    base, groups = LAW_FLAGS[command]
    flags = [base, ["--quantiles", "2", "--format", "json"]]
    flags += [data.draw(at_most_one(*group)) for group in groups + _SHARED]
    options = [token for tokens in flags for token in tokens]
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(dataset, "BLOCK_CHARS",
                                                                 block_chars):
        argv = argv_for(command, tmp, [text.encode() for text in texts], flags)
        code, out, err = run_cli_with_err(argv)
        singles = [run_cli_with_err([command, argv[1 + i], *options, "--name", name])
                   for i, name in enumerate(names)]
    failed = [(one_code, one_err) for one_code, _, one_err in singles if one_code]
    if failed:
        assert (code, err) == failed[0], argv
        return
    assert code == 0, argv
    assert json.loads(out)["models"] == [json.loads(one)["models"][0] for _, one, _ in singles]
