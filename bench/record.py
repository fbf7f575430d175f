#!/usr/bin/env python3
"""Run every workload untraced and traced, print all metrics, save a trajectory point.

    python3 bench/record.py [--seed N] [--seconds S] [--out bench/trajectory/NAME.json]

Each metric line gives the workload, the name, the value, the unit and the
sample count. Exits 1 if any run failed its correctness gate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, ROOT, WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--out", type=Path, default=None, help="trajectory JSON to write")
    args = parser.parse_args()
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    runs = []
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [
                    sys.executable,
                    str(Path(__file__).with_name("run.py")),
                    *("--workload", name, "--seed", str(args.seed)),
                    *("--seconds", str(seconds), "--trace", str(trace)),
                ],
                capture_output=True,
                text=True,
                check=True,
            )
            lines = done.stdout.splitlines()
            print("\n".join(line for line in lines[:-1] if not line.startswith("report ")))
            report = next(line for line in lines if line.startswith("report "))
            runs.append({"report": json.loads(report[len("report ") :]), "result": json.loads(lines[-1])})
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        point = {"seed": args.seed, "seconds": seconds, "runs": runs}
        args.out.write_text(json.dumps(point, indent=1) + "\n")
    return 0 if all(run["result"]["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
