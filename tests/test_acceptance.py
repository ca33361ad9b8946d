"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; a failed assertion marks the criterion FAIL via pytest itself.
"""

import json
import random
import time
import xml.etree.ElementTree as ET
from decimal import Decimal
from fractions import Fraction

from gainbudget import (
    FULL_RECALL,
    CostModel,
    LabeledDataset,
    TiePolicy,
    confusion_at_cutoff,
    cost_to_target,
    fixed_budget_plan,
    gain_profile,
    ideal_profile,
    marginal_analysis,
    partition_quantiles,
    rank_instances,
    read_dataset_file,
)
from gainbudget.cli import run

from conftest import WORKED_ORDERS, accuracy_at_cutoff, make_dataset, worked_path

SVG = "{http://www.w3.org/2000/svg}"


def _pass(criterion: int, detail: str) -> None:
    print(f"[acceptance] C{criterion} PASS: {detail}")


def test_c1_worked_example_accuracies():
    started = time.perf_counter()
    expected = {"s1m1": Fraction(1, 2), "s1m2": Fraction(1, 2),
                "s2m1": Fraction(1, 6), "s2m2": Fraction(1, 2)}
    for key, order in WORKED_ORDERS.items():
        dataset, _ = read_dataset_file(worked_path(key))
        ranked = rank_instances(dataset)
        assert [dataset.ids[i] for i in ranked.indices] == order
        assert accuracy_at_cutoff(ranked, 4) == float(expected[key])
    sixth = accuracy_at_cutoff(rank_instances(read_dataset_file(worked_path("s2m1"))[0]), 4)
    assert f"{sixth:.2f}" == "0.17"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _pass(1, f"accuracies 0.5/0.5/0.17/0.5 at k=4 in {elapsed:.3f}s")


def test_c2_true_positives_at_k2():
    expected = {"s1m1": 1, "s1m2": 2, "s2m1": 1, "s2m2": 0}
    for key, tp in expected.items():
        dataset, _ = read_dataset_file(worked_path(key))
        assert confusion_at_cutoff(rank_instances(dataset), 2).tp == tp
    _pass(2, "TP at k=2 is 1/2/1/0 across the four fixtures")


def test_c3_full_recall_costs(case_study_profiles):
    cm = CostModel(unit_cost=Decimal("0.04"))
    expected = {"m1": (2, 1673), "m2": (4, 3346), "m3": (5, 4182)}
    for model, (deciles, cost) in expected.items():
        plan = cost_to_target(case_study_profiles[model], cm, FULL_RECALL)
        assert plan.quantiles_needed == deciles
        assert plan.cost == cost
    _pass(3, "full-recall costs $16.73/$33.46/$41.82 at deciles 2/4/5")


def test_c4_prose_anchors(case_study_profiles):
    cm = CostModel(unit_cost=Decimal("0.04"))
    two_deciles = Decimal("16.73")
    yields = {
        model: fixed_budget_plan(profile, cm, two_deciles)
        for model, profile in case_study_profiles.items()
    }
    assert all(plan.affordable_quantiles == 2 for plan in yields.values())
    assert yields["m1"].expected_tp == 414
    assert yields["m2"].expected_tp == 410
    assert yields["m3"].expected_tp == 394

    m1_next = marginal_analysis(case_study_profiles["m1"], cm, 2)
    assert m1_next.next_quantile_tp == 0 and m1_next.exhausted
    assert marginal_analysis(case_study_profiles["m3"], cm, 2).next_quantile_tp == 8
    assert marginal_analysis(case_study_profiles["m3"], cm, 3).next_quantile_tp == 4
    _pass(4, "two-decile yields 414/410/394; marginals +0 (m1), +8 and +4 (m3)")


def test_c5_ranking_inversion(case_study_dir, capsys):
    code = run([
        "compare",
        str(case_study_dir / "m1.csv"), str(case_study_dir / "m2.csv"),
        str(case_study_dir / "m3.csv"),
        "--quantiles", "10", "--full-recall", "--unit-cost", "0.04",
        "--fscore", "m1=0.70", "--fscore", "m2=0.74", "--fscore", "m3=0.77",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "by cost to target (cheapest first): m1 < m2 < m3" in out
    assert "by supplied F-score (highest first): m3 > m2 > m1" in out
    _pass(5, "compare exposes cost order m1<m2<m3 against F-score order m3>m2>m1")


def _random_dataset(rng: random.Random, max_size: int) -> LabeledDataset:
    n = rng.randint(1, max_size)
    tied = rng.random() < 0.5
    scores, labels = [], []
    for _ in range(n):
        scores.append(float(rng.randint(-4, 4)) if tied else rng.uniform(-100.0, 100.0))
        labels.append(rng.random() < 0.4)
    if not any(labels):
        labels[rng.randrange(n)] = True
    return make_dataset("r", [str(i) for i in range(n)], scores, labels)


def test_c6_property_suite():
    started = time.perf_counter()
    rng = random.Random(20260810)
    for _ in range(1000):
        d = _random_dataset(rng, 200)
        ranked = rank_instances(d)
        n = ranked.size
        q = rng.randint(1, n)
        profile = gain_profile(partition_quantiles(ranked, q))

        total = profile.positive_total
        assert sum(Fraction(c, total) for c in profile.per_quantile_positive) == 1
        cumulative = profile.cumulative_positive_count
        assert all(a <= b for a, b in zip(cumulative, cumulative[1:]))
        assert Fraction(cumulative[-1], total) == 1

        ideal = ideal_profile(n, profile.positive_total, q)
        assert all(
            i >= c
            for i, c in zip(ideal.cumulative_positive_count, profile.cumulative_positive_count)
        )

        doubled = make_dataset(d.name, d.ids, [s * 2 for s in d.scores], d.labels)
        ranked2 = rank_instances(doubled)
        assert [doubled.ids[i] for i in ranked2.indices] == [d.ids[i] for i in ranked.indices]
        assert (
            gain_profile(partition_quantiles(ranked2, q)).per_quantile_positive
            == profile.per_quantile_positive
        )

        prefix = {}
        for policy in (TiePolicy.PESSIMISTIC, TiePolicy.STABLE, TiePolicy.OPTIMISTIC):
            total, sums = 0, []
            for i in rank_instances(d, policy).indices:
                total += d.labels[i]
                sums.append(total)
            prefix[policy] = sums
        assert all(
            p <= s <= o
            for p, s, o in zip(
                prefix[TiePolicy.PESSIMISTIC],
                prefix[TiePolicy.STABLE],
                prefix[TiePolicy.OPTIMISTIC],
            )
        )

        for k in range(n + 1):
            c = confusion_at_cutoff(ranked, k)
            assert c.tp + c.fp == k
            assert c.tp + c.fp + c.tn + c.fn == n
            assert accuracy_at_cutoff(ranked, k) == (c.tp + c.tn) / n
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _pass(6, f"1000 randomized datasets (N<=200) hold all six invariants in {elapsed:.1f}s")


def test_c7_brute_force_oracle():
    rng = random.Random(414)
    checked = 0
    for _ in range(500):
        d = _random_dataset(rng, 12)
        ranked = rank_instances(d)
        n = ranked.size
        for q in range(1, n + 1):
            # independent recount: rank i lives in quantile ceil((i+1)q/n) - 1
            expected = [0] * q
            for i, row in enumerate(ranked.indices):
                expected[-(-(i + 1) * q // n) - 1] += d.labels[row]
            part = partition_quantiles(ranked, q)
            assert part.per_quantile_positive == tuple(expected)
            checked += 1
    _pass(7, f"{checked} (dataset, Q) pairs match the per-position recount")


def test_c8_determinism(case_study_dir, tmp_path):
    m1, m3 = str(case_study_dir / "m1.csv"), str(case_study_dir / "m3.csv")
    commands = {
        "eval-text": ["eval", m1, "--out"],
        "eval-json": ["eval", m1, "--format", "json", "--out"],
        "eval-md": ["eval", m1, "--format", "md", "--out"],
        "compare": ["compare", m1, m3, "--full-recall", "--unit-cost", "0.04", "--out"],
        "compare-json": ["compare", m1, m3, "--full-recall", "--unit-cost", "0.04",
                         "--format", "json", "--out"],
        "budget": ["budget", m1, "--unit-cost", "0.04", "--budget", "16.73", "--out"],
        "stop": ["stop", m3, "--unit-cost", "0.04", "--annotated-quantiles", "2", "--out"],
        "chart": ["chart", m1, m3, "--baseline", "--ideal", "--svg-out"],
    }
    for tag, argv in commands.items():
        outputs = []
        for attempt in (1, 2):
            target = tmp_path / f"{tag}-{attempt}"
            assert run(argv + [str(target)]) == 0
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1], f"{tag} not byte-identical"
    _pass(8, f"{len(commands)} command variants byte-identical across repeat runs")


def test_c9_chart_anchors(case_study_dir, tmp_path):
    target = tmp_path / "case.svg"
    code = run([
        "chart",
        str(case_study_dir / "m1.csv"), str(case_study_dir / "m2.csv"),
        str(case_study_dir / "m3.csv"),
        "--svg-out", str(target),
    ])
    assert code == 0
    root = ET.fromstring(target.read_text(encoding="utf-8"))
    gridlines = sorted(
        float(el.get("x1"))
        for el in root.iter(f"{SVG}line")
        if el.get("class") == "xgrid"
    )
    series = {}
    for poly in root.iter(f"{SVG}polyline"):
        series[poly.get("data-name")] = [
            tuple(float(v) for v in pair.split(",")) for pair in poly.get("points").split()
        ]
    top = min(y for _, y in series["m1"])
    for model, gridline in {"m1": 2, "m2": 4, "m3": 5}.items():
        x_full = next(x for x, y in series[model] if abs(y - top) < 0.005)
        assert abs(x_full - gridlines[gridline]) < 0.011, (model, x_full)
    _pass(9, "curves reach 100% gain at the 20%/40%/50% gridlines")
