"""Tests of the benchmark itself: planted answers and the output oracle.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gainbudget.cli  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "bulk-ingest": dict(rows=500),
    "tied-compare": dict(rows=600, quantiles=20, tie_block=(5, 40)),
    "fine-quantile": dict(rows=300, quantiles=300),
}


def small(name: str, tmp_path: Path, seed: int = 7) -> workloads.Workload:
    spec = dataclasses.replace(workloads.SPECS[name], **SMALL[name])
    return workloads.generate(spec, seed, tmp_path)


def read_rows(path: str) -> list[tuple[str, float, int]]:
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        assert next(reader) == ["id", "score", "label"]
        return [(uid, float(score), int(label)) for uid, score, label in reader]


def cli_output(inv: workloads.Invocation) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = gainbudget.cli.run(list(inv.argv))
    return code, buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_planted_counts_match_brute_force_recount(name, seed, tmp_path):
    w = small(name, tmp_path, seed)
    pessimistic = w.spec.policy == "pessimistic"
    gold = None
    for m in w.models:
        rows = read_rows(m.path)
        labels = {uid: label for uid, _, label in rows}
        gold = gold or labels
        assert labels == gold, "models must share ids and gold labels"
        assert len(rows) == m.rows and sum(labels.values()) == m.positive_total

        ranked = sorted(rows, key=lambda r: (-r[1], r[2]) if pessimistic else -r[1])
        assert ranked != rows, "file rows must not already be in ranked order"
        n, q_count = len(ranked), w.spec.quantiles
        recount = [
            sum(r[2] for r in ranked[q * n // q_count:(q + 1) * n // q_count])
            for q in range(q_count)
        ]
        assert tuple(recount) == m.per_quantile_positive

        ties = [size for size in Counter(r[1] for r in rows).values() if size > 1]
        assert m.tie_blocks == len(ties)
        assert m.largest_tie == max(ties, default=1)


@pytest.mark.parametrize("seed", range(50))
def test_tie_blocks_cover_every_row(seed):
    spec = dataclasses.replace(workloads.SPECS["tied-compare"], rows=1000, tie_block=(30, 90))
    sizes = workloads._segment_sizes(random.Random(seed), spec)
    assert sum(sizes) == spec.rows
    assert min(sizes) >= 30 and max(sizes) < 90 + 30


def test_same_seed_same_inputs(tmp_path):
    for sub in "abc":
        (tmp_path / sub).mkdir()
    a = small("tied-compare", tmp_path / "a", seed=5)
    b = small("tied-compare", tmp_path / "b", seed=5)
    c = small("tied-compare", tmp_path / "c", seed=6)
    assert [m.sha256 for m in a.models] == [m.sha256 for m in b.models]
    assert [m.sha256 for m in a.models] != [m.sha256 for m in c.models]


def test_cost_arithmetic_matches_paper_anchors():
    # 2,091 candidates at $0.04: full recall at 2, 4 and 5 deciles.
    assert [oracle.cost_minor("fractional", 2091, q, 10) for q in (2, 4, 5)] == [1673, 3346, 4182]
    assert oracle.cost_minor("integer", 2091, 2, 10) == 4 * 418


def test_workload_round_trips_through_json(tmp_path):
    w = small("tied-compare", tmp_path)
    workloads.save(w, tmp_path / "w.json")
    assert workloads.load(tmp_path / "w.json") == w


def _bump_last_cell(text: str, md: bool, title: str, model: str) -> str:
    """Add one to the last cell of `model`'s row in section `title`."""
    lines = text.split("\n")
    start = lines.index(f"## {title}" if md else title)
    for i in range(start, len(lines)):
        if md and lines[i].startswith(f"| {model} |"):
            cells = [c.strip() for c in lines[i].strip("|").split("|")]
            cells[-1] = str(int(cells[-1]) + 1)
            lines[i] = "| " + " | ".join(cells) + " |"
            return "\n".join(lines)
        if not md and lines[i].split()[:1] == [model]:
            cells = lines[i].split()
            cells[-1] = str(int(cells[-1]) + 1)
            lines[i] = "  ".join(cells)
            return "\n".join(lines)
    raise AssertionError(f"no row for {model} in {title}")


@pytest.mark.parametrize("name", sorted(SMALL))
def test_oracle_accepts_cli_output_and_rejects_one_perturbed_count(name, tmp_path):
    w = small(name, tmp_path)
    for inv in w.invocations:
        code, out = cli_output(inv)
        assert oracle.check(w, inv, code, out) == [], inv.argv

        if inv.format == "json":
            doc = json.loads(out)
            doc["models"][-1]["per_quantile_positive"][0] += 1
            bad = json.dumps(doc).encode()
        elif inv.format == "svg":
            bad = out.replace(b'data-name="m1"', b'data-name="mX"')
        else:
            bad = _bump_last_cell(out.decode(), inv.format == "md",
                                  "Cumulative positives", w.models[-1].name).encode()
        assert oracle.check(w, inv, code, bad), f"perturbed {inv.argv[0]} output was accepted"


def test_oracle_rejects_money_off_by_one_cent(tmp_path):
    w = small("fine-quantile", tmp_path)
    inv = w.invocations[0]
    code, out = cli_output(inv)
    doc = json.loads(out)
    doc["models"][0]["target_plan"]["cost"]["minor_units"] += 1
    assert oracle.check(w, inv, code, json.dumps(doc).encode())


def test_oracle_rejects_bad_exit_code_and_unreadable_output(tmp_path):
    w = small("bulk-ingest", tmp_path)
    inv = w.invocations[0]
    assert oracle.check(w, inv, 1, b"") == [f"{inv.argv[0]}: exit code 1"]
    assert oracle.check(w, inv, 0, b"{truncated")


def test_tally_counts_a_pass_that_changes_bytes(tmp_path):
    w = small("fine-quantile", tmp_path)
    tally = oracle.Tally(w)
    outputs = [cli_output(inv) for inv in w.invocations]
    for _ in range(2):
        for i, (code, out) in enumerate(outputs):
            tally.invocation(i, code, out)
    assert (tally.attempted, tally.failed) == (6, 0)
    code, out = outputs[1]
    tally.invocation(1, code, out + b" ")
    tally.invocation(2, 1, outputs[2][1])
    assert (tally.attempted, tally.failed) == (8, 2)



def test_benchmark_json_lists_the_workloads_and_metrics_the_harness_emits(tmp_path):
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.SPECS)

    w = small("tied-compare", tmp_path)
    workloads.save(w, tmp_path / "w.json")
    env = {**os.environ, "PYTHONPATH": f"{root / 'src'}{os.pathsep}{root / 'perfbench'}"}
    out = subprocess.run([sys.executable, str(root / "perfbench" / "layers.py"),
                          str(tmp_path / "w.json"), "0"],
                         env=env, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.splitlines()[-1])
    assert result["failed"] == 0
    # run.trace adds the tie counts, which come from the generator.
    emitted = set(result["metrics"]) | {"ranking.tie_blocks", "ranking.largest_tie"}
    assert emitted == {m["name"] for m in spec["per_layer"]}
