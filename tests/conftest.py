from __future__ import annotations

from array import array
from itertools import accumulate
from pathlib import Path

import pytest

from gainbudget import (
    GainProfile,
    LabeledDataset,
    TiePolicy,
    gain_profile,
    partition_quantiles,
    rank_instances,
    read_dataset_file,
)

from casestudy import DECILE_POSITIVES, case_study_csv

DATA_DIR = Path(__file__).parent / "data"

#: Ranked id orders of the hand-built worked example; positives are 1, 2, 3,
#: and each file lists ids 1 to 6 in that order.
WORKED_ORDERS = {
    "s1m1": ["1", "5", "4", "2", "6", "3"],
    "s1m2": ["1", "2", "6", "5", "3", "4"],
    "s2m1": ["3", "6", "4", "5", "2", "1"],
    "s2m2": ["5", "4", "3", "1", "6", "2"],
}


def worked_positive_ranks(key: str) -> list[int]:
    """The ranks of the positives (ids 1, 2 and 3) in a worked order."""
    return [rank for rank, uid in enumerate(WORKED_ORDERS[key]) if uid in {"1", "2", "3"}]


def worked_path(key: str) -> Path:
    return DATA_DIR / f"worked_{key}.csv"


def make_dataset(name: str, scores, labels) -> LabeledDataset:
    """A dataset built straight from its two columns, in the given order."""
    return LabeledDataset(name=name, scores=array("d", scores), labels=bytearray(map(bool, labels)))


def reference_order(d: LabeledDataset, policy: TiePolicy = TiePolicy.STABLE) -> list[int]:
    """Row indices in ranked order, by the definition of each tie policy.

    One stable descending sort by score over a pre-ordered index list: input
    order for stable, negatives then positives for pessimistic, positives
    then negatives for optimistic, each group in input order.
    """
    rows = list(range(d.size))
    if policy is not TiePolicy.STABLE:
        first = policy is TiePolicy.OPTIMISTIC
        rows = [i for i in rows if d.labels[i] == first] + [i for i in rows if d.labels[i] != first]
    return sorted(rows, key=d.scores.__getitem__, reverse=True)


def reference_cum(d: LabeledDataset, policy: TiePolicy = TiePolicy.STABLE) -> list[int]:
    """Entry k is the number of positives in the top k of the reference order."""
    return list(accumulate((d.labels[i] for i in reference_order(d, policy)), initial=0))


def accuracy_at_cutoff(d: LabeledDataset, k: int) -> float:
    """Fraction of correct predictions at cutoff k, for a dataset ranked under the stable policy.

    Computed by a direct scan of the labels in the reference order,
    independently of the positive ranks that confusion_at_cutoff reads, so
    the two stay mutually checkable.
    """
    n = d.size
    if not 0 <= k <= n:
        raise ValueError(f"cutoff must be in 0..{n}, got {k}")
    correct = sum(1 for rank, i in enumerate(reference_order(d)) if d.labels[i] == (rank < k))
    return correct / n


@pytest.fixture(scope="session")
def worked_datasets():
    return {key: read_dataset_file(worked_path(key))[0] for key in WORKED_ORDERS}


@pytest.fixture(scope="session")
def case_study_dir(tmp_path_factory) -> Path:
    """The three 2091-row case-study files, written once per session."""
    root = tmp_path_factory.mktemp("casestudy")
    for model in DECILE_POSITIVES:
        (root / f"{model}.csv").write_text(case_study_csv(model), encoding="utf-8")
    return root


@pytest.fixture(scope="session")
def case_study_profiles(case_study_dir) -> dict[str, GainProfile]:
    profiles = {}
    for model in DECILE_POSITIVES:
        dataset, _ = read_dataset_file(case_study_dir / f"{model}.csv")
        ranked = rank_instances(dataset)
        profiles[model] = gain_profile(ranked, partition_quantiles(ranked, 10))
    return profiles
