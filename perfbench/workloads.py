"""Workload definitions and the seeded input generator with a planted answer.

Every model file is built from its answer.  The generator first lays out the
model's ranked order as segments with chosen positive counts, then gives each
ranked slot a score that agrees with that order, and only then shuffles the
rows with the workload seed.  A sorted file would let Timsort finish in one
linear pass and hide the cost of ranking.

Two segment layouts exist:

* tie-free: one segment per quantile of the CLI's `--quantiles`, positives at
  random positions inside it, and every row a distinct float score.  The
  per-quantile positive counts are the chosen counts themselves.
* tied: tie blocks of random sizes, every row of a block sharing one rounded
  score, negatives first inside the block as the pessimistic tie policy
  orders them.  Blocks straddle quantile boundaries, so the per-quantile
  counts follow from where each block's positive tail falls.

All models of a workload share ids and gold labels, as in the paper's
setting: each model ranks the same candidates differently.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

#: Annotation price per candidate, in minor units (cents) and as CLI text.
UNIT_COST_MINOR = 4
UNIT_COST = "0.04"
#: Share of candidates whose gold label is positive, in every workload.
POSITIVE_RATE = 0.1


@dataclass(frozen=True)
class Spec:
    """Sizes and flags of one workload; BENCHMARK.json says what each stresses."""

    name: str
    rows: int  # rows per model file
    models: int
    quantiles: int  # the CLI's --quantiles; equal to rows means one row each
    tie_block: tuple[int, int] | None  # inclusive block-size range, None for tie-free
    policy: str
    cutoff_frac: str


SPECS = {
    s.name: s
    for s in (
        Spec(
            name="bulk-ingest",
            rows=1_000_000,
            models=1,
            quantiles=10,
            tie_block=None,
            policy="stable",
            cutoff_frac="0.1",
        ),
        Spec(
            name="tied-compare",
            rows=200_000,
            models=3,
            quantiles=100,
            tie_block=(1000, 5000),
            policy="pessimistic",
            cutoff_frac="0.2",
        ),
        Spec(
            name="fine-quantile",
            rows=20_000,
            models=3,
            quantiles=20_000,
            tie_block=None,
            policy="stable",
            cutoff_frac="0.1",
        ),
    )
}


@dataclass(frozen=True)
class Model:
    """One generated model file and the answer planted in it."""

    name: str
    path: str
    rows: int
    positive_total: int
    per_quantile_positive: tuple[int, ...]
    tie_blocks: int  # blocks of two or more equal scores
    largest_tie: int
    bytes: int
    sha256: str

    @property
    def cumulative_positive(self) -> tuple[int, ...]:
        out, running = [], 0
        for c in self.per_quantile_positive:
            running += c
            out.append(running)
        return tuple(out)


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its argv after `gainbudget`, output format, rows read."""

    argv: tuple[str, ...]
    format: str  # json, text, md or svg
    rows: int


@dataclass(frozen=True)
class Workload:
    spec: Spec
    models: tuple[Model, ...]
    invocations: tuple[Invocation, ...]
    budget_minor: int
    annotated: int
    fscores: tuple[tuple[str, str], ...]


def floor_boundaries(n: int, quantiles: int) -> list[int]:
    """Quantile boundaries by the CLI's floor rule."""
    return [q * n // quantiles for q in range(quantiles + 1)]


def _segment_sizes(rng: random.Random, spec: Spec) -> list[int]:
    if spec.tie_block is None:
        b = floor_boundaries(spec.rows, spec.quantiles)
        return [b[i + 1] - b[i] for i in range(spec.quantiles)]
    lo, hi = spec.tie_block
    sizes, left = [], spec.rows
    while left > hi:
        size = rng.randint(lo, hi)
        sizes.append(size)
        left -= size
    if left < lo:
        sizes[-1] += left
    else:
        sizes.append(left)
    return sizes


def _allocate(rng: random.Random, sizes: list[int], total: int, decay: float) -> list[int]:
    """Choose positives per segment: `total` in all, denser near the top."""
    n = sum(sizes)
    weights, start = [], 0
    for s in sizes:
        weights.append(s * math.exp(-decay * (start + s / 2) / n))
        start += s
    scale = total / sum(weights)
    counts = []
    for s, w in zip(sizes, weights):
        x = w * scale
        c = int(x) + (rng.random() < x - int(x))
        counts.append(min(c, s))
    diff = total - sum(counts)
    while diff:
        i = rng.randrange(len(sizes))
        if diff > 0 and counts[i] < sizes[i]:
            counts[i] += 1
            diff -= 1
        elif diff < 0 and counts[i] > 0:
            counts[i] -= 1
            diff += 1
    return counts


def _distinct_scores(rng: random.Random, n: int) -> list[str]:
    """n distinct scores in descending order: rank i draws from its own slice of (0, 1)."""
    return [f"{(n - i - 0.9 + 0.8 * rng.random()) / n:.9f}" for i in range(n)]


def _shuffled(rng: random.Random, items: list[int]) -> list[int]:
    """A seeded random order; sorting by random keys beats random.shuffle here."""
    return sorted(items, key=lambda _: rng.random())


def _tied_scores(rng: random.Random, blocks: int) -> list[str]:
    """One rounded score per block, strictly descending."""
    return [f"{v / 10000:.4f}" for v in sorted(rng.sample(range(1, 10000), blocks), reverse=True)]


def positives_before(sizes: list[int], counts: list[int], k: int) -> int:
    """Positives in ranked positions [0, k) when each block puts its positives last."""
    starts = [0]
    for s in sizes:
        starts.append(starts[-1] + s)
    b = bisect.bisect_right(starts, k) - 1
    before = sum(counts[:b])
    if b < len(sizes):
        before += max(0, k - (starts[b + 1] - counts[b]))
    return before


def _write_model(
    rng: random.Random, spec: Spec, name: str, path: Path, ids: list[str], gold: bytearray,
    positive_ids: list[int], negative_ids: list[int], decay: float,
) -> Model:
    sizes = _segment_sizes(rng, spec)
    counts = _allocate(rng, sizes, len(positive_ids), decay)

    labels = bytearray()  # gold label of each ranked slot, best first
    for s, c in zip(sizes, counts):
        if spec.tie_block is None:
            block = bytearray(s)
            for i in rng.sample(range(s), c):
                block[i] = 1
        else:
            block = bytearray(s - c) + b"\x01" * c  # the pessimistic order of a tie
        labels += block

    if spec.tie_block is None:
        scores = _distinct_scores(rng, spec.rows)
        per_quantile = tuple(counts)
        tie_blocks, largest = 0, 1
    else:
        block_scores = _tied_scores(rng, len(sizes))
        scores = [score for score, s in zip(block_scores, sizes) for _ in range(s)]
        cuts = [positives_before(sizes, counts, b) for b in floor_boundaries(spec.rows, spec.quantiles)]
        per_quantile = tuple(cuts[i + 1] - cuts[i] for i in range(spec.quantiles))
        tie_blocks, largest = sum(1 for s in sizes if s > 1), max(sizes)

    # Ids are dealt to ranked slots in a seeded random order and rows are
    # written in id order, so the file is a seeded shuffle of the ranking.
    pos, neg = iter(_shuffled(rng, positive_ids)), iter(_shuffled(rng, negative_ids))
    score_of = [""] * spec.rows
    for label, score in zip(labels, scores):
        score_of[next(pos) if label else next(neg)] = score
    raw = ("id,score,label\n" + "".join(
        f"{uid},{score},{label}\n" for uid, score, label in zip(ids, score_of, gold)
    )).encode("utf-8")
    path.write_bytes(raw)
    return Model(
        name=name,
        path=str(path),
        rows=spec.rows,
        positive_total=len(positive_ids),
        per_quantile_positive=per_quantile,
        tie_blocks=tie_blocks,
        largest_tie=largest,
        bytes=len(raw),
        sha256=hashlib.sha256(raw).hexdigest(),
    )


def generate(spec: Spec, seed: int, workdir: Path) -> Workload:
    """Write the workload's model files into `workdir` and plan its invocations."""
    rng = random.Random(f"{spec.name}:{seed}")
    ids = [f"c{i:07d}" for i in range(spec.rows)]
    positive_total = round(spec.rows * POSITIVE_RATE)
    positive_ids = sorted(rng.sample(range(spec.rows), positive_total))
    gold = bytearray(spec.rows)
    for i in positive_ids:
        gold[i] = 1
    negative_ids = [i for i in range(spec.rows) if not gold[i]]

    models = []
    for m in range(spec.models):
        name = f"m{m + 1}"
        decay = 2.0 + m + rng.random()
        models.append(
            _write_model(rng, spec, name, workdir / f"{name}.csv", ids, gold,
                         positive_ids, negative_ids, decay)
        )
    return _plan(spec, tuple(models))


def _plan(spec: Spec, models: tuple[Model, ...]) -> Workload:
    files = tuple(m.path for m in models)
    rows = sum(m.rows for m in models)
    common = ("--quantiles", str(spec.quantiles), "--tie-policy", spec.policy)
    fscores: tuple[tuple[str, str], ...] = ()
    if spec.name == "bulk-ingest":
        budget_minor, annotated = 0, 0
        calls = [
            Invocation(("eval", *files, *common, "--cutoff-frac", spec.cutoff_frac,
                        "--format", "json"), "json", rows),
        ]
    elif spec.name == "tied-compare":
        budget_minor = UNIT_COST_MINOR * spec.rows * 35 // 100
        annotated = spec.quantiles // 5
        fscores = tuple((m.name, f"0.{70 + 4 * i}") for i, m in enumerate(models))
        money = ("--unit-cost", UNIT_COST, "--budget", f"{budget_minor / 100:.2f}")
        calls = [
            Invocation(("compare", *files, *common, "--cutoff-frac", spec.cutoff_frac,
                        *money, "--full-recall",
                        *(a for n, f in fscores for a in ("--fscore", f"{n}={f}")),
                        "--format", "json"), "json", rows),
            Invocation(("budget", *files, *common, *money, "--full-recall",
                        "--format", "md"), "md", rows),
            Invocation(("stop", *files, *common, "--unit-cost", UNIT_COST,
                        "--annotated-quantiles", str(annotated), "--format", "md"), "md", rows),
        ]
    else:
        budget_minor = UNIT_COST_MINOR * spec.rows // 2
        annotated = spec.quantiles // 2
        calls = [
            Invocation(("compare", *files, *common, "--cutoff-frac", spec.cutoff_frac,
                        "--unit-cost", UNIT_COST, "--budget", f"{budget_minor / 100:.2f}",
                        "--full-recall", "--format", "json"), "json", rows),
            Invocation(("stop", *files, *common, "--unit-cost", UNIT_COST,
                        "--cost-rule", "integer", "--annotated-quantiles", str(annotated),
                        "--format", "text"), "text", rows),
            Invocation(("chart", *files, *common, "--baseline", "--ideal"), "svg", rows),
        ]
    return Workload(
        spec=spec,
        models=models,
        invocations=tuple(calls),
        budget_minor=budget_minor,
        annotated=annotated,
        fscores=fscores,
    )


def save(w: Workload, path: Path) -> None:
    path.write_text(json.dumps(dataclasses.asdict(w)), encoding="utf-8")


def load(path: Path) -> Workload:
    d = json.loads(path.read_text(encoding="utf-8"))
    block = d["spec"]["tie_block"]
    return Workload(
        spec=Spec(**{**d["spec"], "tie_block": tuple(block) if block else None}),
        models=tuple(
            Model(**{**m, "per_quantile_positive": tuple(m["per_quantile_positive"])})
            for m in d["models"]
        ),
        invocations=tuple(
            Invocation(argv=tuple(i["argv"]), format=i["format"], rows=i["rows"])
            for i in d["invocations"]
        ),
        budget_minor=d["budget_minor"],
        annotated=d["annotated"],
        fscores=tuple(tuple(f) for f in d["fscores"]),
    )


if __name__ == "__main__":
    # python3 perfbench/workloads.py NAME SEED DIR: write the inputs and DIR/workload.json
    name, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    save(generate(SPECS[name], seed, out), out / "workload.json")
