"""Traced run: time each layer of the CLI in process, from outside the program.

Usage: python3 perfbench/layers.py WORKLOAD_JSON SECONDS

Imports `gainbudget` from the checkout's `src/` (the caller puts it on
PYTHONPATH), wraps the public functions that `cli.run` calls with timers,
and repeats passes of the workload's invocations through `cli.run(argv)`
for SECONDS seconds.  It prints one JSON line: the oracle's verdict and the
median over passes of each layer metric.  A layer that a workload never
calls reads 0.  No code under `src/` is changed; only module attributes of
this process are replaced.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import gainbudget.budget
import gainbudget.cli
import gainbudget.dataset

import oracle
import workloads

#: Layer metric -> (module, public function) timed around each call.
SPANS = {
    "dataset.read_s": (gainbudget.cli, "read_dataset_file"),
    "dataset.parse_s": (gainbudget.dataset, "parse_dataset"),
    "ranking.rank_s": (gainbudget.cli, "rank_instances"),
    "ranking.partition_s": (gainbudget.cli, "partition_quantiles"),
    "metrics.profile_s": (gainbudget.cli, "gain_profile"),
    "metrics.confusion_s": (gainbudget.cli, "confusion_at_cutoff"),
    "metrics.class_s": (gainbudget.cli, "class_metrics"),
    "budget.fixed_s": (gainbudget.cli, "fixed_budget_plan"),
    "budget.target_s": (gainbudget.cli, "cost_to_target"),
    "budget.marginal_s": (gainbudget.cli, "marginal_analysis"),
    "report.table_s": (gainbudget.cli, "render_table"),
    "report.json_s": (gainbudget.cli, "render_json"),
    "report.chart_s": (gainbudget.cli, "render_chart"),
}
#: Spans that run inside another span, so they are not part of cli.self_s.
NESTED = {"dataset.parse_s"}


class Tracer:
    """Per-pass layer totals, collected by wrappers and a gc callback."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}
        self._gc_start = 0.0

    def reset(self) -> None:
        self.totals = dict.fromkeys(SPANS, 0.0)
        self.totals.update({
            "dataset.rows": 0, "dataset.bytes": 0, "dataset.maxrss_mib": 0.0,
            "budget.quantiles_priced": 0, "runtime.gc_s": 0.0, "runtime.gc_collections": 0,
        })

    def _timed(self, metric: str, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.totals[metric] += time.perf_counter() - start
        return wrapper

    def _after_read(self, fn):
        def wrapper(path, *args, **kwargs):
            result = fn(path, *args, **kwargs)
            self.totals["dataset.rows"] += result[0].size
            self.totals["dataset.bytes"] += os.path.getsize(path)
            maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            self.totals["dataset.maxrss_mib"] = max(self.totals["dataset.maxrss_mib"], maxrss)
            return result
        return wrapper

    def _priced(self, fn):
        def wrapper(*args, **kwargs):
            self.totals["budget.quantiles_priced"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.totals["runtime.gc_s"] += time.perf_counter() - self._gc_start
            self.totals["runtime.gc_collections"] += 1

    def install(self) -> None:
        for metric, (module, name) in SPANS.items():
            wrapper = self._timed(metric, getattr(module, name))
            # Counters wrap the timers, so their own work is not timed.
            if name == "read_dataset_file":
                wrapper = self._after_read(wrapper)
            if name == "marginal_analysis":
                wrapper = self._priced(wrapper)
            setattr(module, name, wrapper)
        gainbudget.budget.quantile_cost = self._priced(gainbudget.budget.quantile_cost)
        gc.callbacks.append(self._gc)


def run_pass(tracer: Tracer, w: workloads.Workload) -> tuple[dict[str, float], list[tuple[int, bytes]]]:
    tracer.reset()
    run_s = 0.0
    outputs = []
    for inv in w.invocations:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            code = gainbudget.cli.run(list(inv.argv))
            run_s += time.perf_counter() - start
        outputs.append((code, buf.getvalue().encode("utf-8")))
    totals = dict(tracer.totals)
    totals["dataset.decode_s"] = totals["dataset.read_s"] - totals["dataset.parse_s"]
    totals["report.bytes"] = sum(len(out) for _, out in outputs)
    totals["cli.run_s"] = run_s
    totals["cli.self_s"] = run_s - sum(v for k, v in tracer.totals.items()
                                       if k in SPANS and k not in NESTED)
    return totals, outputs


def main(argv: list[str]) -> int:
    workload_path, seconds = Path(argv[1]), float(argv[2])
    w = workloads.load(workload_path)
    tracer = Tracer()
    tracer.install()

    passes: list[dict[str, float]] = []
    tally = oracle.Tally(w)
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start) * (1 + 0.5 / len(passes)) < seconds:
        totals, outputs = run_pass(tracer, w)
        passes.append(totals)
        for i, (code, out) in enumerate(outputs):
            tally.invocation(i, code, out)

    metrics = {key: statistics.median(p[key] for p in passes) for key in passes[0]}
    # Max-RSS only grows within a process, so only the first pass is clean.
    metrics["dataset.maxrss_mib"] = passes[0]["dataset.maxrss_mib"]
    print(json.dumps({"passes": len(passes), "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
