"""gainbudget benchmark: the real CLI on seeded workloads, with an output oracle.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads are listed in `workloads.SPECS` and in BENCHMARK.json.  The
seed fixes the generated inputs, which a child process writes under
`.perfbench-work/` in the checkout; they are removed at exit and never
timed.

--trace 0 runs `python -m gainbudget.cli` against the checkout's `src/`, one
child process at a time, and repeats passes over the workload's invocations
for about S seconds.  Each invocation's wall time, CPU time and max-RSS are
its own (`os.wait4`).  Pass times are reported as multiples of a fixed
reference job on the workload's first model file, timed in bursts before and
after every invocation (see `reference_burst`); the raw seconds go into the
record line.  `setup_s` is the wall time of `gainbudget <subcommand> --help`,
each sample taken between two bare interpreter starts and rescaled to a host
where a bare start takes `BARE_START_S` (see `measure`).  The harness and its
children share one CPU.

--trace 1 runs `layers.py` in a child process, which times the program's
layers in process over the same inputs for S seconds.

The last line of standard output is the result as one JSON object; the line
before it records the machine, the input sizes and every sample.  Without
`src/gainbudget` in the checkout the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import workloads
from oracle import Tally

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Least number of --help samples behind setup_s.
SETUP_SAMPLES = 15
#: Wall seconds of a bare `python -c pass` that setup_s is rescaled to: about
#: its median on the 2-vCPU host the benchmark was tuned on.
BARE_START_S = 0.04

#: Length of each burst of reference jobs, as a share of the invocation
#: before it, and of the first burst in seconds; a burst runs at least one job.
REFERENCE_SHARE = 0.2
FIRST_BURST_S = 0.5


def reference_burst(child: Child, model: str, seconds: float) -> tuple[float, float]:
    """Mean wall and CPU seconds of the reference job over a burst of `seconds`.

    On a shared host the machine's speed switches between levels a third
    apart every few seconds, so raw seconds spread too widely from run to run
    to gate a change.  A burst of `reference.py` runs, which ranks one of
    the workload's own model files in plain Python, is timed before and after
    every invocation, and each invocation is reported as a multiple of the
    job's mean time in the bursts on either side of it.  A fixed loop in this
    process served worse: it slowed by up to twice as much as the CLI, which
    made the ratio noisier than raw seconds on bulk-ingest.  The mean, not
    the median: an invocation's time reflects the average of the levels.
    """
    walls, cpus = [], []
    end = time.perf_counter() + seconds
    while not walls or time.perf_counter() < end:
        code, wall, cpu, _ = child.run(str(HERE / "reference.py"), model)
        if code != 0:
            raise RuntimeError(f"reference job exited {code}:\n{child.stderr()}")
        walls.append(wall)
        cpus.append(cpu)
    return statistics.fmean(walls), statistics.fmean(cpus)


def metric_units(trace: bool) -> dict[str, str]:
    """Name and unit of every metric the run reports, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Child:
    """Runs one Python child at a time with stdout and stderr sent to files."""

    def __init__(self, workdir: Path) -> None:
        self.out = workdir / "child.out"
        self.err = workdir / "child.err"
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONPATH", "PYTHONHOME", "PYTHONDONTWRITEBYTECODE")}
        self.env["PYTHONPATH"] = str(SRC)

    def run(self, *args: str) -> tuple[int, float, float, float]:
        """Exit code, wall seconds, CPU seconds and max-RSS MiB of one child."""
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, str(self.out), flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, str(self.err), flags, 0o644)]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], self.env,
                             file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - start
        cpu = usage.ru_utime + usage.ru_stime
        return os.waitstatus_to_exitcode(status), wall, cpu, usage.ru_maxrss / 1024

    def stdout(self) -> bytes:
        return self.out.read_bytes()

    def stderr(self) -> str:
        return self.err.read_text(encoding="utf-8", errors="replace")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(w: workloads.Workload, child: Child, seconds: float) -> tuple[dict, dict, dict]:
    """End-to-end metrics of the CLI, one child process at a time."""
    tally = Tally(w)
    subcommands = itertools.cycle(dict.fromkeys(inv.argv[0] for inv in w.invocations))
    setup: list[float] = []  # raw --help seconds
    setup_x: list[float] = []  # the same, in bare interpreter starts

    def help_sample() -> float:
        sub = next(subcommands)
        code, wall, _, _ = child.run("-m", "gainbudget.cli", sub, "--help")
        ok = code == 0 and child.stdout().startswith(f"usage: gainbudget {sub}".encode())
        tally.count([] if ok else [f"{sub} --help: exit code {code}"])
        return wall

    def bare_start() -> float:
        code, wall, _, _ = child.run("-c", "pass")
        if code != 0:
            raise RuntimeError(f"python -c pass exited {code}:\n{child.stderr()}")
        return wall

    def setup_samples(k: int) -> None:
        """k --help samples, each between two bare starts.

        Raw start-up seconds follow the host's speed, which drifted by a
        quarter between sets of runs.  As a multiple of the bare starts on
        either side, a sample moves with what gainbudget adds to a start,
        its imports and building the parser, and hardly with the host.
        """
        before = bare_start()
        for _ in range(k):
            wall, after = help_sample(), bare_start()
            setup.append(wall)
            setup_x.append(2 * wall / (before + after))
            before = after

    help_sample()  # warm-up: the first start in a checkout compiles bytecode
    model = w.models[0].path
    ref = reference_burst(child, model, FIRST_BURST_S)
    refs = [ref]
    walls, cpus, peaks, wall_x, cpu_x = [], [], [], [], []
    start = time.perf_counter()
    # A run measures for `seconds`, give or take half a pass.  The --help
    # samples are spread between passes, so set-up time sees the same drift
    # of machine speed as the passes do.
    while not walls or (time.perf_counter() - start) * (1 + 0.5 / len(walls)) < seconds:
        wall = cpu = peak = rel_wall = rel_cpu = 0.0
        for i, inv in enumerate(w.invocations):
            code, t, c, rss = child.run("-m", "gainbudget.cli", *inv.argv)
            tally.invocation(i, code, child.stdout())
            before, ref = ref, reference_burst(child, model, REFERENCE_SHARE * t)
            refs.append(ref)
            wall, cpu, peak = wall + t, cpu + c, max(peak, rss)
            rel_wall += 2 * t / (before[0] + ref[0])
            rel_cpu += 2 * c / (before[1] + ref[1])
        walls.append(wall)
        cpus.append(cpu)
        peaks.append(peak)
        wall_x.append(rel_wall)
        cpu_x.append(rel_cpu)
        setup_samples(math.ceil(SETUP_SAMPLES * wall / seconds))
    if len(setup) < SETUP_SAMPLES:
        setup_samples(SETUP_SAMPLES - len(setup))

    rows = sum(inv.rows for inv in w.invocations)
    metrics = {
        "wall_ref": statistics.median(wall_x),
        "cpu_ref": statistics.median(cpu_x),
        "rows_per_ref": rows / statistics.median(wall_x),
        "peak_rss_mib": statistics.median(peaks),
        "setup_s": BARE_START_S * statistics.median(setup_x),
    }
    samples = {
        "passes": len(walls),
        "rows_per_pass": rows,
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "rows_per_s": rows / statistics.median(walls),
        "reference_s": statistics.median(r[0] for r in refs),
        "per_pass": {"wall_s": walls, "cpu_s": cpus, "wall_ref": wall_x, "cpu_ref": cpu_x,
                     "peak_rss_mib": peaks},
        "reference_bursts": refs,
        "setup_raw_s": statistics.median(setup),
        "setup_s": setup,
        "setup_x": setup_x,
    }
    return metrics, samples, {"attempted": tally.attempted, "failed": tally.failed}


def trace(w: workloads.Workload, child: Child, spec_path: Path, seconds: float) -> tuple[dict, dict, dict]:
    """Per-layer metrics from the in-process traced run in `layers.py`."""
    code, _, _, _ = child.run(str(HERE / "layers.py"), str(spec_path), str(seconds))
    if code != 0:
        raise RuntimeError(f"traced run exited {code}:\n{child.stderr()}")
    sys.stderr.write(child.stderr())
    result = json.loads(child.stdout().decode("utf-8").splitlines()[-1])
    metrics = result["metrics"]
    metrics["ranking.tie_blocks"] = sum(m.tie_blocks for m in w.models)
    metrics["ranking.largest_tie"] = max(m.largest_tie for m in w.models)
    run_s = metrics["cli.run_s"]
    shares = {
        "dataset": metrics["dataset.read_s"] / run_s,
        "ranking.rank": metrics["ranking.rank_s"] / run_s,
        "budget+report": sum(metrics[k] for k in metrics
                             if k.startswith(("budget.", "report.")) and k.endswith("_s")) / run_s,
    }
    return metrics, {"passes": result["passes"], "share_of_cli_run_s": shares}, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # One CPU for the harness and every child, so that the reference jobs
    # and the program see the same share of a shared host.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # Termination unwinds like an exception, so the running child is killed
    # and reaped and the generated inputs are removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "gainbudget" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'gainbudget'} not found; run from a gainbudget checkout",
              file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        child = Child(workdir)
        code, _, _, _ = child.run("-c", "import gainbudget; print(gainbudget.__file__)")
        origin = Path(child.stdout().decode("utf-8").strip() or ".").resolve()
        if code != 0 or not origin.is_relative_to(SRC):
            print(f"perfbench: gainbudget imports from {origin}, not {SRC}\n{child.stderr()}",
                  file=sys.stderr)
            return 2

        # Generated in a child, so that the generator's memory is returned
        # before any child is timed.
        code, _, _, _ = child.run(str(HERE / "workloads.py"), args.workload, str(args.seed),
                                  str(workdir))
        if code != 0:
            raise RuntimeError(f"input generation exited {code}:\n{child.stderr()}")
        w = workloads.load(workdir / "workload.json")
        if args.trace:
            metrics, samples, counts = trace(w, child, workdir / "workload.json", args.seconds)
        else:
            metrics, samples, counts = measure(w, child, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()

    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "inputs": {
            "files": len(w.models),
            "rows": sum(m.rows for m in w.models),
            "bytes": sum(m.bytes for m in w.models),
        },
        "samples": samples,
    }
    print(json.dumps(facts))
    print(json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in metric_units(args.trace).items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
