"""The columnar ranking against a row-object oracle, and the CLI without rows.

The oracle sorts `LabeledInstance` rows with the tuple keys that defined
each tie policy before rankings became index sorts over score columns.
"""

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

import gainbudget
from gainbudget import (
    LabeledDataset,
    LabeledInstance,
    TiePolicy,
    confusion_at_cutoff,
    partition_quantiles,
    rank_instances,
)

ROW_KEYS = {
    TiePolicy.STABLE: lambda row: -row.score,
    TiePolicy.PESSIMISTIC: lambda row: (-row.score, row.positive),
    TiePolicy.OPTIMISTIC: lambda row: (-row.score, not row.positive),
}

# Few distinct scores, so most rows sit in tie blocks; 0.0 and -0.0 tie.
tied_rows = st.lists(
    st.tuples(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.5]), st.booleans()),
    min_size=1,
    max_size=60,
).map(lambda rows: tuple(LabeledInstance(str(i), s, p) for i, (s, p) in enumerate(rows)))


@given(tied_rows, st.sampled_from(list(TiePolicy)))
@settings(max_examples=300)
def test_ranked_ids_match_row_sort(rows, policy):
    d = LabeledDataset.from_instances("eq", rows)
    ranked = rank_instances(d, policy)
    expected = [row.id for row in sorted(rows, key=ROW_KEYS[policy])]
    assert [d.ids[i] for i in ranked.indices] == expected


@given(tied_rows, st.sampled_from(list(TiePolicy)))
@settings(max_examples=200)
def test_prefix_sum_counts_match_recounts(rows, policy):
    ranked = rank_instances(LabeledDataset.from_instances("eq", rows), policy)
    ranked_labels = [row.positive for row in sorted(rows, key=ROW_KEYS[policy])]
    n = len(rows)
    for k in range(n + 1):
        assert confusion_at_cutoff(ranked, k).tp == sum(ranked_labels[:k])
    for q in range(1, n + 1):
        cuts = [i * n // q for i in range(q + 1)]
        expected = tuple(sum(ranked_labels[a:b]) for a, b in zip(cuts, cuts[1:]))
        assert partition_quantiles(ranked, q).per_quantile_positive == expected


NO_ROWS = """
import sys
from gainbudget import cli
from gainbudget.dataset import LabeledInstance

def forbidden(*args, **kwargs):
    raise AssertionError("a LabeledInstance was built")

LabeledInstance.__new__ = forbidden
LabeledInstance.__init__ = forbidden
try:
    LabeledInstance("x", 0.0, True)
except AssertionError:
    pass
else:
    sys.exit(3)
sys.exit(cli.run(sys.argv[1:]))
"""


def test_cli_builds_no_row_objects(case_study_dir):
    # A child process, because a class whose __new__ was replaced cannot be
    # fully restored in this one.
    env = dict(os.environ, PYTHONPATH=str(Path(gainbudget.__file__).parents[1]))
    for argv in (
        ["eval", "m1.csv", "--cutoff-k", "414", "--tie-policy", "pessimistic"],
        ["compare", "m1.csv", "m2.csv", "m3.csv", "--cutoff-frac", "0.2",
         "--unit-cost", "0.04", "--budget", "16.73", "--full-recall"],
    ):
        done = subprocess.run(
            [sys.executable, "-c", NO_ROWS, *argv], cwd=case_study_dir, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
