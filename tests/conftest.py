from __future__ import annotations

from array import array
from pathlib import Path

import pytest

from gainbudget import (
    GainProfile,
    LabeledDataset,
    RankedList,
    gain_profile,
    partition_quantiles,
    rank_instances,
    read_dataset_file,
)

from casestudy import DECILE_POSITIVES, case_study_csv

DATA_DIR = Path(__file__).parent / "data"

#: Ranked id orders of the hand-built worked example; positives are 1, 2, 3.
WORKED_ORDERS = {
    "s1m1": ["1", "5", "4", "2", "6", "3"],
    "s1m2": ["1", "2", "6", "5", "3", "4"],
    "s2m1": ["3", "6", "4", "5", "2", "1"],
    "s2m2": ["5", "4", "3", "1", "6", "2"],
}


def worked_path(key: str) -> Path:
    return DATA_DIR / f"worked_{key}.csv"


def make_dataset(name: str, ids, scores, labels) -> LabeledDataset:
    """A dataset built straight from its three columns, in the given order."""
    return LabeledDataset(
        name=name, ids=list(ids), scores=array("d", scores), labels=bytearray(map(bool, labels))
    )


def accuracy_at_cutoff(r: RankedList, k: int) -> float:
    """Fraction of correct predictions at cutoff k.

    Computed by a direct scan of the ranked labels, independently of the
    prefix sums that confusion_at_cutoff reads, so the two stay mutually
    checkable.
    """
    n = r.size
    if not 0 <= k <= n:
        raise ValueError(f"cutoff must be in 0..{n}, got {k}")
    labels = r.dataset.labels
    correct = sum(
        1 for rank, i in enumerate(r.indices) if labels[i] == (rank < k)
    )
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
        profiles[model] = gain_profile(partition_quantiles(ranked, 10))
    return profiles
