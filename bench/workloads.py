"""The benchmark's workloads: generated CLI argument lists and output checks.

Each workload is a fixed sequence of ``python -m ar1_tstat`` invocations.
The workload seed is a benchmark argument; the program only ever sees the
``--seed`` value written into the generated argument lists. The untraced
run (run.py) launches the sequence as real processes, the traced run
(spans.py) replays the same argument lists through ``ar1_tstat.cli.main``
in process.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Pinned output digests at the default seed. They live here and not in
# BENCHMARK.json, whose keys are fixed by the benchmark format.
EXPECTED = json.loads((BENCH_DIR / "expected.json").read_text())
DEFAULT_SEED = int(EXPECTED["default_seed"])

# The mtstat sample must not reject Student t(n-1). A KS p-value is uniform
# on a correct program, so a fixed 0.01 level fails about one seed in a
# hundred (seeds 4 and 71 of 0..119, and 314, fall below 0.01 at this
# commit). The benchmark is run on many seeds, so the 0.01 level is split
# Bonferroni-style over up to 100 of them. The classical, unwhitened
# statistic on the same inputs still gives p = 0.
KS_P_MIN = 0.01 / 100

# (n, rho) points of the default verify grid; table-moments uses the same
# 6 x 6 grid, so an exact-grid sequence evaluates 72 grid points.
GRID_N = "2,3,5,10,50,200"
GRID_RHO = "-0.99,-0.5,0,0.5,0.9,0.99"
GRID_POINTS = 36

LONG_REPS = 4 * 4096  # whole Philox blocks: two per worker at --workers 2
SHORT_REPS = 1_000_000


@dataclass(frozen=True)
class Call:
    """One CLI invocation: a label, its argument template and its primary output."""

    label: str
    output: str
    template: str

    def argv(self, seed: int, workers: int, outdir: Path) -> list[str]:
        # split before formatting so a checkout path with spaces stays one token
        values = {"seed": seed, "workers": workers, "out": str(outdir / self.output)}
        return [token.format(**values) for token in self.template.split()]


@dataclass(frozen=True)
class Workload:
    """A closed-loop sequence of CLI calls, run one at a time."""

    workers: int
    work: int  # work units per sequence: replications, or (n, rho) grid points
    work_unit: str
    calls: tuple[Call, ...]
    reps: int = 0  # replications per simulating call

    @property
    def uses_seed(self) -> bool:
        return any("{seed}" in call.template for call in self.calls)


WORKLOADS = {
    # n=1000 paths: the draw, recursion, whitening and statistic kernel
    # dominate, split over a 2-process pool; KS/cdf work is small
    "mc-long-paths": Workload(
        workers=2,
        work=LONG_REPS,
        work_unit="reps",
        reps=LONG_REPS,
        calls=(
            Call(
                "simulate",
                "long.csv",
                "simulate --functional mtstat --n 1000 --rho 0.95 "
                f"--reps {LONG_REPS} --seed {{seed}} --workers {{workers}} --out {{out}}",
            ),
        ),
    ),
    # a million n=10 paths at one worker: summary, KS sort, the batch
    # Student cdf and the KDE dominate; the recursion is negligible and no
    # pool is used, so a worker-model change bypasses this workload
    "mc-many-short": Workload(
        workers=1,
        work=2 * SHORT_REPS,
        work_unit="reps",
        reps=SHORT_REPS,
        calls=(
            Call(
                "simulate",
                "short.csv",
                "simulate --functional tstat --n 10 --rho 0.8 "
                f"--reps {SHORT_REPS} --seed {{seed}} --workers {{workers}} --out {{out}}",
            ),
            Call(
                "density-kde",
                "kde.csv",
                "density --functional tstat --n 10 --rho 0.8 "
                f"--reps {SHORT_REPS} --seed {{seed}} --workers {{workers}} "
                "--grid-t=-6:6:0.1 --out {out}",
            ),
        ),
    ),
    # no random draws: the dense 80-bit trace oracle, closed-form moments,
    # matrix constructors and the quadrature density route dominate
    "exact-grid": Workload(
        workers=1,
        work=2 * GRID_POINTS,
        work_unit="grid_points",
        calls=(
            Call("verify", "report.json", "verify --out {out}"),
            Call(
                "table-moments",
                "table.csv",
                f"table-moments --grid-n {GRID_N} --grid-rho={GRID_RHO} --out {{out}}",
            ),
            Call("density-law", "density.csv", "density --dof 9 --grid-t=-8:8:0.1 --out {out}"),
        ),
    ),
}


def child_env() -> dict[str, str]:
    """Environment of every program process: the checkout's src on the path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("AR1_TSTAT_WORKERS", None)  # the generated --workers flag is the only source
    return env


def cli_seed(seed: int) -> int:
    """The --seed value handed to the program: the workload seed as a Philox key."""
    return seed % 2**64


class Gate:
    """The correctness gate: counts invocations and those that fail a check.

    At the default seed, and for a workload that draws no random numbers,
    outputs must match the pinned digests, so a numpy random-stream change
    shows up. At any other seed the first repeat records the digests and
    every later repeat must be byte-identical to it.
    """

    def __init__(self, workload: str, seed: int) -> None:
        pinned = cli_seed(seed) == DEFAULT_SEED or not WORKLOADS[workload].uses_seed
        self.digests: dict[str, str] = dict(EXPECTED["digests"][workload]) if pinned else {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, call: Call, exit_code: int, path: Path) -> None:
        found = [f"{call.label}: exit code {exit_code}"] if exit_code else []
        found += self._output_problems(call, path)
        self.attempted += 1
        self.failed += bool(found)
        self.problems += found

    def _output_problems(self, call: Call, path: Path) -> list[str]:
        if not path.is_file():
            return [f"{call.label}: no output {path.name}"]
        problems = []
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        expected = self.digests.setdefault(call.label, digest)
        if digest != expected:
            problems.append(f"{call.label}: sha256 {digest[:12]} != {expected[:12]}")
        if call.label == "verify" and json.loads(path.read_text()).get("passed") is not True:
            problems.append("verify: report does not say passed")
        if call.label == "simulate":
            with open(path, newline="") as handle:
                row = next(csv.DictReader(handle))
            if row["functional"] == "mtstat" and not float(row["ks_p_value"]) >= KS_P_MIN:
                problems.append(f"simulate: mtstat KS p-value {row['ks_p_value']} < {KS_P_MIN}")
        return problems

    def report(self) -> dict:
        return {
            "error_rate": self.failed / self.attempted,
            "problems": self.problems[:20],
            "digests": self.digests,
        }
