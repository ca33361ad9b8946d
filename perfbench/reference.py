"""The reference job that the benchmark divides invocation times by.

Usage: python3 perfbench/reference.py MODEL_CSV

Ranks one generated `id,score,label` file in plain Python, without
gainbudget: decode, split, parse floats, build a tuple per row, sort by
score, count the positives in the top tenth.  This is the same kind of work
the CLI does, on the same data, so it slows down with the host the way the
CLI does.  The job is fixed: a change to gainbudget does not change its time.
"""

import sys

with open(sys.argv[1], "rb") as f:
    text = f.read().decode("utf-8")
rows = []
for line in text.splitlines()[1:]:
    uid, score, label = line.split(",")
    rows.append((float(score), uid, label == "1"))
rows.sort(key=lambda r: r[0], reverse=True)
print(sum(r[2] for r in rows[: len(rows) // 10]))
