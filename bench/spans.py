"""Traced in-process replay: per-layer self times, counts and allocation peaks.

The package itself is not edited. For the duration of one traced replay,
each public function listed in ``_TRACED`` is replaced, in every
``ar1_tstat`` module that holds it, by a wrapper that records a span: name,
start, end and the span that was open when it was called (its parent).
Spans stay in memory and are reduced to metrics once the replay ends. A
span's self time is its duration minus the durations of its children;
calls are single-threaded here, so children never overlap.

The replay runs the workload's generated argument lists through
``ar1_tstat.cli.main`` at one worker. Untraced replays of the same lists
alternate with the traced ones; the difference of their medians is the
tracing overhead. Counts labelled "computed" (``*_computed`` and
``process.normals_drawn``) are derived from array sizes, so they repeat
exactly; ``montecarlo.kernel_s`` is derived as the self time of
``simulate_functional`` once the draw, recursion and whitening spans are
taken out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

from workloads import SRC, WORKLOADS, Gate, child_env, cli_seed

IMPORT_LAUNCHES = 5
ORACLE_N = (2, 3, 5, 10, 50, 200)  # the n values of the exact-grid grids

# name -> unit, in BENCHMARK.json order
PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "cli.self_s": "s",
    "process.draw_s": "s",
    "process.normals_drawn": "count",
    "process.recursion_s": "s",
    "tstat.whiten_s": "s",
    "montecarlo.kernel_s": "s",
    "montecarlo.parallel_efficiency": "ratio",
    "montecarlo.pool_overhead_s": "s",
    "montecarlo.summarize_s": "s",
    "montecarlo.ks_self_s": "s",
    "montecarlo.kde_s": "s",
    "montecarlo.used_ratio": "ratio",
    "student.cdf_s": "s",
    "student.cdf_peak_alloc_mb": "MB",
    "student.cdf_nodes_bytes_computed": "bytes",
    "student.density_integral_s": "s",
    "student.quad_failures": "count",
    **{f"oracle.s.n{n}": "s" for n in ORACLE_N},
    "oracle.calls": "count",
    "oracle.calls_per_grid_point": "ratio",
    "oracle.flops_computed": "count",
    "moments.closed_s": "s",
    "moments.compare_self_s": "s",
    "matrices.build_s": "s",
    "verification.self_s": "s",
    "trace.replay_s": "s",
    "trace.overhead_s": "s",
}

_CLOSED_FORMS = (
    "variance_of_scaled_mean",
    "variance_of_scaled_mean_regrouped",
    "covariance_with_mean",
    "covariance_with_mean_total",
    "covariance_with_mean_square_sum",
    "mean_of_sample_variance",
    "second_moment_of_sample_variance",
    "variance_of_sample_variance",
)
_MATRICES = (
    "covariance_matrix",
    "covariance_cholesky",
    "cholesky_perturbation",
    "precision_matrix",
    "whitening_matrix",
)
_ORACLE = (
    "centering_form",
    "form_mean",
    "scaled_mean_variance",
    "mean_covariance_profile",
    "covariance_with_mean",
)
_ORACLE_DENSE = ("form_variance", "form_second_moment")  # one dense n x n product each


class Tracer:
    """In-memory spans of one replay: name, start, end, parent index, notes."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name, func, note=None):
        """func, recording a span per call; note(span, args, result) adds counts."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None}
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if note is not None:
                note(span, args, result)
            return result

        return traced


class _TracedGenerator:
    """A numpy Generator whose standard_normal draws are recorded as spans."""

    def __init__(self, generator, tracer: Tracer) -> None:
        self._generator = generator
        self.standard_normal = tracer.wrap(
            "process.draw", generator.standard_normal, _note_normals
        )

    def __getattr__(self, name):
        return getattr(self._generator, name)


def _note_normals(span, args, result):
    span["normals"] = result.size


def _note_summary(span, args, result):
    span["attempted"] = len(args[0])
    span["used"] = result.replications


def _note_nodes(span, args, result):
    span["nodes"] = getattr(args[1], "size", 1)


def _grid_n(args) -> int:
    # (n), (params, ...) or (form, params)
    from ar1_tstat.params import Ar1Params

    params = next((a for a in args if isinstance(a, Ar1Params)), None)
    return int(args[0]) if params is None else params.n


def _note_oracle(span, args, result):
    span["n"] = _grid_n(args)


def _note_oracle_dense(span, args, result):
    span["n"] = n = _grid_n(args)
    span["flops"] = 2 * n**3


def _note_peak(span, args, result):
    span["peak"] = tracemalloc.get_traced_memory()[1]


_TRACED = [
    # (module, attribute, span name, note)
    ("montecarlo", "simulate_functional", "montecarlo.simulate", None),
    ("montecarlo", "summarize", "montecarlo.summarize", _note_summary),
    ("montecarlo", "ks_test", "montecarlo.ks", None),
    ("montecarlo", "empirical_density", "montecarlo.kde", None),
    ("process", "paths_from_normals", "process.recursion", None),
    ("tstat", "whiten", "tstat.whiten", None),
    ("verification", "run_verification", "verification.run", None),
    ("moments", "compare_moment", "moments.compare", None),
    *[("moments", name, "moments.closed", None) for name in _CLOSED_FORMS],
    *[("matrices", name, "matrices.build", None) for name in _MATRICES],
    *[("oracle", name, "oracle", _note_oracle) for name in _ORACLE],
    *[("oracle", name, "oracle", _note_oracle_dense) for name in _ORACLE_DENSE],
    ("student", "StudentLaw.density_closed", "student.density_closed", _note_nodes),
    ("student", "StudentLaw.density_integral", "student.density_integral", None),
]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every traced function for its wrapper; restore them on exit."""
    package = [m for name, m in sys.modules.items() if name.split(".")[0] == "ar1_tstat"]
    undo = []

    def replace(owner, attr, new):
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def replace_everywhere(original, attr, new):
        for module in package:
            if vars(module).get(attr) is original:
                replace(module, attr, new)

    for module_name, attr, span_name, note in _TRACED:
        module = importlib.import_module(f"ar1_tstat.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            replace(cls, method, tracer.wrap(span_name, vars(cls)[method], note))
        else:
            original = getattr(module, attr)
            replace_everywhere(original, attr, tracer.wrap(span_name, original, note))

    # the draw: creating the Philox stream and every standard_normal call on it
    process = importlib.import_module("ar1_tstat.process")
    make_stream = tracer.wrap("process.draw", process.stream_generator)
    replace_everywhere(
        process.stream_generator,
        "stream_generator",
        functools.wraps(process.stream_generator)(
            lambda seed, stream: _TracedGenerator(make_stream(seed, stream), tracer)
        ),
    )

    # the Student cdf, with tracemalloc running only around it
    from ar1_tstat.student import StudentLaw

    traced_cdf = tracer.wrap("student.cdf", vars(StudentLaw)["cdf"], _note_peak)

    @functools.wraps(traced_cdf)
    def cdf_with_peak(self, t):
        tracemalloc.start()
        try:
            return traced_cdf(self, t)
        finally:
            tracemalloc.stop()

    replace(StudentLaw, "cdf", cdf_with_peak)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def layer_metrics(spans: list[dict], grid_points: int) -> dict[str, float]:
    """Reduce one replay's spans to the per-layer metrics of PER_LAYER."""
    duration = [span["end"] - span["start"] for span in spans]
    covered = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span["parent"] is not None:
            covered[span["parent"]] += duration[i]
    self_time: dict[str, float] = defaultdict(float)
    oracle_by_n: dict[int, float] = defaultdict(float)
    for i, span in enumerate(spans):
        self_time[span["name"]] += duration[i] - covered[i]
        if span["name"] == "oracle":
            oracle_by_n[span["n"]] += duration[i] - covered[i]

    def parent_name(span):
        return None if span["parent"] is None else spans[span["parent"]]["name"]

    def outermost(name):
        # spans of a layer not nested in a span of the same layer
        return [i for i, s in enumerate(spans) if s["name"] == name and parent_name(s) != name]

    def total(key, name=None):
        return sum(s.get(key, 0) for s in spans if name is None or s["name"] == name)

    summaries = [s for s in spans if s["name"] == "montecarlo.summarize"]
    attempted = sum(s["attempted"] for s in summaries)
    oracle_calls = sum(s["name"] == "oracle" for s in spans)
    integrals = outermost("student.density_integral")
    cdfs = outermost("student.cdf")
    return {
        "cli.self_s": self_time["cli.main"],
        "process.draw_s": self_time["process.draw"],
        "process.normals_drawn": total("normals"),
        "process.recursion_s": self_time["process.recursion"],
        "tstat.whiten_s": self_time["tstat.whiten"],
        "montecarlo.kernel_s": self_time["montecarlo.simulate"],
        "montecarlo.summarize_s": self_time["montecarlo.summarize"],
        "montecarlo.ks_self_s": self_time["montecarlo.ks"],
        "montecarlo.kde_s": self_time["montecarlo.kde"],
        "montecarlo.used_ratio": sum(s["used"] for s in summaries) / attempted if attempted else 0.0,
        "student.cdf_s": sum(duration[i] for i in cdfs),
        "student.cdf_peak_alloc_mb": max((spans[i]["peak"] for i in cdfs), default=0) / 2**20,
        "student.cdf_nodes_bytes_computed": 8
        * sum(s["nodes"] for s in spans if parent_name(s) == "student.cdf"),
        "student.density_integral_s": sum(duration[i] for i in integrals),
        "student.quad_failures": sum(spans[i].get("error") == "QuadratureError" for i in integrals),
        **{f"oracle.s.n{n}": oracle_by_n[n] for n in ORACLE_N},
        "oracle.calls": oracle_calls,
        "oracle.calls_per_grid_point": oracle_calls / grid_points if grid_points else 0.0,
        "oracle.flops_computed": total("flops", "oracle"),
        "moments.closed_s": self_time["moments.closed"],
        "moments.compare_self_s": self_time["moments.compare"],
        "matrices.build_s": self_time["matrices.build"],
        "verification.self_s": self_time["verification.run"],
    }


def _median_launch(argv: list[str], parse, cwd: Path) -> float:
    # the first launch may compile the package's bytecode and is not counted
    values = []
    for _ in range(IMPORT_LAUNCHES + 1):
        done = subprocess.run(
            [sys.executable, *argv],
            cwd=cwd,
            env=child_env(),
            capture_output=True,
            text=True,
            check=True,
        )
        values.append(parse(done))
    return statistics.median(values[1:])


def _scipy_import_s(done) -> float:
    # -X importtime lines: "import time: self [us] | cumulative | name"
    total_us = 0
    for line in done.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip().split(".")[0] == "scipy":
            total_us += int(fields[0].rsplit(":", 1)[1])
    return total_us / 1e6


def import_metrics(cwd: Path) -> dict[str, float]:
    probe = "import time; t = time.perf_counter(); import ar1_tstat.cli; print(time.perf_counter() - t)"
    return {
        "cli.import_s": _median_launch(["-c", probe], lambda done: float(done.stdout), cwd),
        "cli.import_scipy_s": _median_launch(
            ["-X", "importtime", "-c", "import ar1_tstat.cli"], _scipy_import_s, cwd
        ),
    }


def measure_traced(name: str, seed: int, seconds: float, workdir: Path):
    sys.path.insert(0, str(SRC))
    from ar1_tstat import cli
    from ar1_tstat.montecarlo import Functional, SimulationConfig, simulate_functional
    from ar1_tstat.params import Ar1Params

    workload = WORKLOADS[name]
    imports = import_metrics(workdir)
    calls = [(call, call.argv(cli_seed(seed), 1, workdir)) for call in workload.calls]
    grid_points = workload.work if workload.work_unit == "grid_points" else 0
    gate = Gate(name, seed)

    def replay(main) -> float:
        elapsed = 0.0
        for call, argv in calls:
            out = workdir / call.output
            out.unlink(missing_ok=True)
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            elapsed += time.perf_counter() - start
            gate.check(call, code, out)
        return elapsed

    # the pool is timed untraced on the first call's inputs, at 1 and at the
    # workload's worker count
    pool_runs: list[tuple] = []
    if workload.workers > 1:
        args = cli.build_parser().parse_args(calls[0][1])
        params = Ar1Params(mu=args.mu, sigma=args.sigma, rho=args.rho, n=args.n)
        functional = Functional(args.functional)
        pool_runs = [
            (SimulationConfig(params, args.reps, args.seed, workers), [])
            for workers in (1, workload.workers)
        ]

    replay(cli.main)  # warm-up: lazy imports and first-call set-up are not timed
    untraced, traced = [], []
    per_replay: list[dict[str, float]] = []
    start = time.perf_counter()
    while True:
        untraced.append(replay(cli.main))
        tracer = Tracer()
        with installed(tracer):
            traced.append(replay(tracer.wrap("cli.main", cli.main)))
        per_replay.append(layer_metrics(tracer.spans, grid_points))
        for config, times in pool_runs:
            begin = time.perf_counter()
            simulate_functional(config, functional)
            times.append(time.perf_counter() - begin)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(traced) > seconds:
            break

    values = dict(imports)
    values.update({key: statistics.median(r[key] for r in per_replay) for key in per_replay[0]})
    values["montecarlo.parallel_efficiency"] = values["montecarlo.pool_overhead_s"] = 0.0
    if pool_runs:
        t1, tn = (statistics.median(times) for _, times in pool_runs)
        values["montecarlo.parallel_efficiency"] = t1 / (workload.workers * tn)
        values["montecarlo.pool_overhead_s"] = tn - t1 / workload.workers
    values["trace.replay_s"] = statistics.median(untraced)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics = {key: (values[key], unit) for key, unit in PER_LAYER.items()}
    detail = {
        "samples": {
            **{key: len(per_replay) for key in PER_LAYER},
            "cli.import_s": IMPORT_LAUNCHES,
            "cli.import_scipy_s": IMPORT_LAUNCHES,
            "montecarlo.parallel_efficiency": len(traced) if pool_runs else 0,
            "montecarlo.pool_overhead_s": len(traced) if pool_runs else 0,
        },
    }
    return metrics, gate, detail
