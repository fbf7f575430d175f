#!/usr/bin/env python3
"""Offline benchmark of the ar1-tstat command line.

Usage (from the repository root):

    python3 bench/run.py --workload mc-long-paths --seed 314 --seconds 30 --trace 0

``--trace 0`` launches the workload's CLI sequence as real processes, one at
a time (a closed loop with one client), for ``--seconds`` seconds and reports
the end-to-end metrics. ``--trace 1`` replays the same argument lists in
process with spans around each layer and reports the per-layer metrics
(see spans.py). Every output is checked; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import measure_traced
from workloads import ROOT, SRC, WORKLOADS, Gate, Workload, child_env, cli_seed

SETUP_LAUNCHES = 7  # setup_s is the median of this many fresh imports
TAIL_PERCENTILE = 75  # the highest that stays steady at 7-24 passes per run

# name -> unit, in BENCHMARK.json order
END_TO_END = {
    "wall_s": "s",
    "wall_s_tail": "s",
    "setup_s": "s",
    "work_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

_IMPORT_PROBE = "import time, ar1_tstat.cli; print(repr(time.perf_counter()))"


def launch_to_import(env: dict[str, str], cwd: Path) -> float:
    """Seconds from process launch until ``ar1_tstat.cli`` is imported.

    perf_counter is the system-wide monotonic clock on Linux, so the child's
    reading after the import is comparable with the parent's before launch.
    """
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return float(done.stdout) - start


def run_call(argv: list[str], env: dict[str, str], cwd: Path) -> tuple[int, float, float, float]:
    """Run one CLI process; return (exit code, wall s, cpu s, peak RSS MB).

    wait4 gives the rusage of this child including the pool workers it
    reaped, so cpu and peak RSS cover the whole process tree.
    """
    with open(cwd / "stderr.txt", "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "ar1_tstat", *argv],
            cwd=cwd,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(percentile / 100.0 * len(ordered)), 1) - 1]


def measure_untraced(name: str, seed: int, seconds: float, workdir: Path):
    workload = WORKLOADS[name]
    env = child_env()
    # the first launch compiles the package's bytecode and is not counted
    setup = [launch_to_import(env, workdir) for _ in range(SETUP_LAUNCHES + 1)][1:]
    gate = Gate(name, seed)
    walls, cpus, peaks, rates = [], [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + statistics.fmean(walls) <= seconds:
        wall = cpu = peak = 0.0
        for call in workload.calls:
            out = workdir / call.output
            out.unlink(missing_ok=True)
            code, call_wall, call_cpu, call_peak = run_call(
                call.argv(cli_seed(seed), workload.workers, workdir), env, workdir
            )
            wall, cpu, peak = wall + call_wall, cpu + call_cpu, max(peak, call_peak)
            gate.check(call, code, out)
        walls.append(wall)
        cpus.append(cpu)
        peaks.append(peak)
        rates.append(workload.work / wall)
    values = {
        "wall_s": statistics.median(walls),
        "wall_s_tail": nearest_rank(walls, TAIL_PERCENTILE),
        "setup_s": statistics.median(setup),
        "work_per_s": statistics.median(rates),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(peaks),
    }
    samples = {key: len(walls) for key in values}
    samples["setup_s"] = len(setup)
    metrics = {key: (values[key], unit) for key, unit in END_TO_END.items()}
    detail = {
        "samples": samples,
        "tail_percentile": TAIL_PERCENTILE,
        "samples_beyond_tail": sum(w > values["wall_s_tail"] for w in walls),
        "wall_samples": walls,
        "setup_samples": setup,
        f"{workload.work_unit}_per_s": values["work_per_s"],
    }
    return metrics, gate, detail


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(workload: Workload) -> dict:
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy

    from ar1_tstat.montecarlo import BLOCK_SIZE

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "nproc": os.cpu_count(),
        "workers": workload.workers,
        "blocks_per_simulation": math.ceil(workload.reps / BLOCK_SIZE),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ar1_tstat" / "cli.py").is_file():
        print(f"error: no ar1_tstat package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    measure = measure_traced if args.trace else measure_untraced
    try:
        metrics, gate, detail = measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit} (n={detail['samples'][name]})")
    print(f"{args.workload} error_rate {gate.failed / gate.attempted:.6g} ({gate.failed}/{gate.attempted})")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": fingerprint(workload),
        "argv": [c.argv(cli_seed(args.seed), workload.workers, Path("OUT")) for c in workload.calls],
        **detail,
        **gate.report(),
    }
    print("report " + json.dumps(report, sort_keys=True))
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
