"""Command-line front end: moment tables, verification, simulation, densities.

Each subcommand's handler writes its primary output to --out and returns its
exit code, the files it wrote and its simulation config; from them main writes
a JSON manifest at <out>.manifest.json recording the invocation, unless the
run exits 2. Outputs embed nothing time- or host-dependent, so a rerun with
the same arguments is byte-identical; the manifest (which carries a timestamp,
the environment, the wall time of each phase, the peak RSS and the minor page
faults) is the only file that differs. Exit codes: 0 success, 1 verification
failure, 2 any error (usage, validation, or a run that could not finish), which
main prints as one ``error:`` line with no traceback. numpy's floating-point
warnings are off while a handler runs, so they never reach stderr.

The module loads only numpy and the parameter types: each subcommand
imports the modules it runs inside its handler, timed as the manifest's
``import`` phase, so a process loads no code that its command does not use.
The reference laws of ``simulate`` own their cdfs (StudentLaw.cdf and
NormalLaw.cdf); the front end holds no law numerics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import re
import sys
import time
from datetime import datetime, timezone
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .params import Ar1Params, Functional

if TYPE_CHECKING:
    from .montecarlo import SimulationConfig

try:
    import resource
except ImportError:  # Windows
    resource = None

__all__ = ["main"]


def _fmt(value) -> str:
    # 17 significant digits round-trips any float64; '.' decimal always
    if isinstance(value, float):
        return format(value, ".17g")
    return "" if value is None else str(value)


def _write_csv(path: str, rows: list[dict]) -> None:
    # every row has the same keys in printed order; the first row's are the header
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(rows[0])
        for row in rows:
            writer.writerow([_fmt(value) for value in row.values()])


def _json_safe(value):
    # strict JSON has no NaN or infinity: they print as CSV prints them, 'nan', 'inf', '-inf'
    if isinstance(value, float) and not math.isfinite(value):
        return repr(float(value))
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def _write_json(path: str, obj) -> None:
    with open(path, "w") as handle:
        json.dump(_json_safe(obj), handle, indent=2, allow_nan=False)
        handle.write("\n")


_MAX_RANGE_VALUES = 1_000_000


def _parse_grid(text: str, integer: bool = False) -> list:
    """Grid spec: comma list '2,5,10' or inclusive range 'start:stop:step'."""
    text = str(text).strip()
    if not text:
        raise ValueError("empty grid spec")
    if ":" in text:
        pieces = text.split(":")
        if len(pieces) != 3:
            raise ValueError(f"range spec must be start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(p) for p in pieces)
        except ValueError:
            raise ValueError(f"non-numeric range spec {text!r}") from None
        if step == 0.0 or not all(map(math.isfinite, (start, stop, step))):
            raise ValueError(f"bad range spec {text!r}")
        steps = (stop - start) / step + 1e-9  # the value count less one, unrounded
        if steps < 0.0:
            raise ValueError(f"range spec {text!r} produces no values")
        if not steps < _MAX_RANGE_VALUES:  # before the list is built; catches inf
            raise ValueError(f"range spec {text!r} gives more than {_MAX_RANGE_VALUES} values")
        values = [start + k * step for k in range(math.floor(steps) + 1)]
    else:
        try:
            values = [float(p) for p in text.split(",") if p.strip()]
        except ValueError:
            raise ValueError(f"non-numeric grid value in {text!r}") from None
        if not values:
            raise ValueError(f"grid spec {text!r} produces no values")
        if not all(map(math.isfinite, values)):
            raise ValueError(f"non-finite grid value in {text!r}")
    if integer:
        rounded = []
        for v in values:
            if abs(v - round(v)) > 1e-9:
                raise ValueError(f"grid value {v!r} is not an integer")
            rounded.append(int(round(v)))
        return rounded
    return values


@contextlib.contextmanager
def _phase(phases: dict[str, float], name: str):
    """Add the wall seconds of the with-block to phases[name]."""
    start = time.perf_counter()
    try:
        yield
    finally:
        phases[name] = phases.get(name, 0.0) + time.perf_counter() - start


def _simd() -> dict:
    """numpy's SIMD baseline and enabled dispatch targets: they move exp/log/pow bits."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    enabled = umath.__cpu_features__
    return {
        "baseline": list(umath.__cpu_baseline__),
        "dispatch": [t for t in umath.__cpu_dispatch__ if enabled.get(t)],
    }


def _environment(config: SimulationConfig | None) -> dict:
    env = {
        "numpy": np.__version__,
        "simd": _simd(),
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    if config is not None:
        from .montecarlo import pool_layout

        blocks, env["workers"] = pool_layout(config)
        env["philox_blocks"] = len(blocks)
    return env


def _resource_usage() -> dict:
    """Peak RSS and minor page faults of this process and of its reaped
    children (pool workers); None where the platform lacks ``resource``.
    On Linux ``ru_maxrss`` carries the launcher's RSS from the fork across
    exec, so a run started from a large process reads at least its size."""
    if resource is None:
        return {"peak_rss_mb": None, "minor_faults": None}
    scale = 2**20 if sys.platform == "darwin" else 2**10  # ru_maxrss: bytes or KiB
    usage = {
        who: resource.getrusage(flag)
        for who, flag in (("self", resource.RUSAGE_SELF), ("children", resource.RUSAGE_CHILDREN))
    }
    return {
        "peak_rss_mb": {who: u.ru_maxrss / scale for who, u in usage.items()},
        "minor_faults": {who: u.ru_minflt for who, u in usage.items()},
    }


def _write_manifest(
    out_path: str,
    command: str,
    argv: list[str],
    outputs: list[str],
    phases: dict[str, float],
    config: SimulationConfig | None,
) -> None:
    manifest = {
        "command": command,
        "params": None if config is None else dataclasses.asdict(config.params),
        "seed": None if config is None else config.seed,
        "replications": None if config is None else config.replications,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "outputs": list(outputs),
        "argv": list(argv),
        "environment": _environment(config),
        "run": {"wall_s": dict(phases), **_resource_usage()},
    }
    _write_json(f"{out_path}.manifest.json", manifest)


# -- subcommands -------------------------------------------------------------


def cmd_table_moments(args, phases):
    n_grid = _parse_grid(args.grid_n, integer=True)
    rho_grid = _parse_grid(args.grid_rho)
    sigma = float(args.sigma)
    with _phase(phases, "import"):
        from .moments import MomentQuantity, moment_grid
    quantities = {
        "var_num": MomentQuantity.SCALED_MEAN_VARIANCE,
        "e_s2": MomentQuantity.SAMPLE_VARIANCE_MEAN,
        "e_s4": MomentQuantity.SAMPLE_VARIANCE_SECOND_MOMENT,
        "var_s2": MomentQuantity.SAMPLE_VARIANCE_VARIANCE,
    }
    rows = []
    with _phase(phases, "grid"):
        for params, reports in moment_grid(n_grid, rho_grid, sigma):
            row = {"n": params.n, "rho": params.rho, "sigma": sigma}
            for prefix, quantity in quantities.items():
                row[f"{prefix}_closed"] = reports[quantity].closed_form
                row[f"{prefix}_oracle"] = reports[quantity].oracle
            # the flag and the gap cover the tabulated columns only
            shown = [reports[q] for q in quantities.values()]
            row["max_rel_gap"] = float(np.max([0.0, *(r.rel_gap for r in shown)]))  # NaN wins
            row["discrepancy_flag"] = int(any(r.discrepant for r in shown))
            rows.append(row)
    with _phase(phases, "write"):
        _write_csv(args.out, rows)
    return 0, [args.out], None


def cmd_verify(args, phases):
    with _phase(phases, "import"):
        from .verification import SMALL_N_GRID, SMALL_RHO_GRID, run_verification
    if args.grid == "small":
        n_grid, rho_grid = SMALL_N_GRID, SMALL_RHO_GRID
    else:
        n_grid = rho_grid = None
    if args.grid_n is not None:
        n_grid = _parse_grid(args.grid_n, integer=True)
    if args.grid_rho is not None:
        rho_grid = _parse_grid(args.grid_rho)
    with _phase(phases, "grid"):
        report = run_verification(
            n_grid=n_grid,
            rho_grid=rho_grid,
            sigma=float(args.sigma),
            tolerance_override=args.tol,
        )
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(
            f"{status} {check.name}: max gap {check.max_gap:.3e} "
            f"(tol {check.tolerance:g}) at n={check.worst_n} rho={check.worst_rho}"
        )
    print(
        f"{len(report.discrepancies)} fourth-moment grid points flagged "
        "against the trace oracle (reported, non-fatal)"
    )
    with _phase(phases, "write"):
        _write_json(args.out, report.as_dict())
    return 0 if report.passed else 1, [args.out], None


def _reference_cdf(functional: Functional, params: Ar1Params):
    """The cdf and name of the functional's exact reference law, or (None, "")."""
    if functional is Functional.SAMPLE_VARIANCE:
        return None, ""
    if functional is Functional.SAMPLE_MEAN:
        from .process import linear_combination_law

        law = linear_combination_law(params, np.full(params.n, 1.0 / params.n))
        return law.cdf, f"normal({law.mean:g},{law.variance:g})"
    from .student import StudentLaw  # the t laws only: mean and s2 never load it

    return StudentLaw(params.n - 1).cdf, f"student-t({params.n - 1})"


# the density flags that only simulation mode reads
_SIMULATION_ONLY = ("n", "rho", "mu", "sigma", "reps", "seed", "workers", "bandwidth")
# an unset --mu, --sigma, --workers. density's parser leaves them None, so
# that law mode can tell a set flag; simulate's parser fills them in, so a
# parsed simulate command reads as it always has (bench/spans.py uses one)
_SIMULATION_DEFAULTS = {"mu": 0.0, "sigma": 1.0, "workers": 1}


def _simulation(args) -> tuple[SimulationConfig, Functional]:
    """The run and the functional named by the model and run flags."""
    missing = [f"--{flag}" for flag in ("n", "rho", "reps", "seed") if getattr(args, flag) is None]
    if missing:
        raise ValueError(f"a simulation needs {', '.join(missing)}")
    from .montecarlo import SimulationConfig

    mu, sigma, workers = (
        default if getattr(args, flag) is None else getattr(args, flag)
        for flag, default in _SIMULATION_DEFAULTS.items()
    )
    params = Ar1Params(mu=mu, sigma=sigma, rho=args.rho, n=args.n)
    config = SimulationConfig(params, replications=args.reps, seed=args.seed, workers=workers)
    return config, Functional(args.functional)


_DUMP_BLOCK = 2**16  # values per joined write of the --values-out dump


def cmd_simulate(args, phases):
    if args.values_out and os.path.realpath(args.values_out) in {
        os.path.realpath(path) for path in (args.out, f"{args.out}.manifest.json")
    }:
        raise ValueError(f"--values-out {args.values_out} would overwrite --out or its manifest")
    with _phase(phases, "import"):
        from .montecarlo import ks_test, simulate_functional, summarize
        config, functional = _simulation(args)
        params = config.params
        # the reference law is resolved before any path is drawn, so it fails first
        cdf, reference = _reference_cdf(functional, params)
    with _phase(phases, "simulate"):
        values = simulate_functional(config, functional)
    with _phase(phases, "summarize"):
        summary = summarize(values)
    outputs = [args.out]
    if args.values_out:
        # dumped in draw order before the KS sorts values in place
        with _phase(phases, "write"), open(args.values_out, "w", newline="") as handle:
            # the same bytes as _write_csv's one-column rows, joined a block at a time
            handle.write("value\n")
            for lo in range(0, values.size, _DUMP_BLOCK):
                block = values[lo : lo + _DUMP_BLOCK].tolist()
                handle.write("".join(f"{v:.17g}\n" for v in block))
        outputs.append(args.values_out)
    ks = None
    if cdf is not None:
        with _phase(phases, "ks"):
            ks = ks_test(values, cdf, reference=reference, out=values)
    row = {
        "functional": functional.value,
        "n": params.n,
        "rho": params.rho,
        "mu": params.mu,
        "sigma": params.sigma,
        "seed": config.seed,
        "replications": config.replications,
        "used": summary.replications,
        "degenerate": summary.degenerate,
        "mean": summary.mean,
        "variance": summary.variance,
        "std_error_mean": summary.std_error_mean,
        "std_error_variance": summary.std_error_variance,
        "ks_statistic": getattr(ks, "statistic", None),  # None: no reference law
        "ks_p_value": getattr(ks, "p_value", None),
        "ks_reference": getattr(ks, "reference", None),
    }
    with _phase(phases, "write"):
        if args.format == "json":
            _write_json(args.out, row)
        else:
            _write_csv(args.out, [row])
    return 0, outputs, config


def cmd_density(args, phases):
    if (args.dof is None) == (args.functional is None):
        raise ValueError("give exactly one of --dof (law mode) or --functional (simulation mode)")
    grid = np.asarray(_parse_grid(args.grid_t), dtype=float)
    config = None
    if args.dof is not None:
        unread = [f"--{flag}" for flag in _SIMULATION_ONLY if getattr(args, flag) is not None]
        if unread:
            raise ValueError(f"--dof reads only --grid-t and --out, not {', '.join(unread)}")
        with _phase(phases, "import"):
            from .student import StudentLaw
        law = StudentLaw(args.dof)
        with _phase(phases, "density"):
            closed = np.asarray(law.density_closed(grid), dtype=float)
            integral = np.asarray(law.density_integral(grid), dtype=float)
        rows = [
            {"t": float(t), "pdf_closed": float(c), "pdf_integral": float(i)}
            for t, c, i in zip(grid, closed, integral)
        ]
    else:
        with _phase(phases, "import"):
            from .montecarlo import empirical_density, simulate_functional
        config, functional = _simulation(args)
        with _phase(phases, "simulate"):
            values = simulate_functional(config, functional)
        with _phase(phases, "kde"):
            kde = empirical_density(values, grid, bandwidth=args.bandwidth, out=values)
        rows = [{"t": float(t), "kde": float(d)} for t, d in zip(grid, kde)]
    with _phase(phases, "write"):
        _write_csv(args.out, rows)
    return 0, [args.out], config


# -- parser wiring ------------------------------------------------------------


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, help="sample length (>= 2)")
    parser.add_argument("--rho", type=float, help="lag-1 autocorrelation")
    parser.add_argument("--mu", type=float, help="process mean (default 0)")
    parser.add_argument("--sigma", type=float, help="innovation scale (default 1)")


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--reps", type=int, help="number of replications")
    parser.add_argument("--seed", type=int, help="64-bit stream seed")
    parser.add_argument(
        "--workers", type=int, help="worker processes (default 1; never changes results)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ar1-tstat",
        description="Moments, whitening, and Monte Carlo checks for the AR(1) t-statistic.",
    )
    parser.add_argument(
        "--config",
        default=None,
        help="JSON file of defaults; keys mirror the long flags, explicit flags win",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    table = subparsers.add_parser(
        "table-moments", help="tabulate closed-form moments against the trace oracle"
    )
    table.add_argument("--grid-n", required=True, help="grid of n values")
    table.add_argument("--grid-rho", required=True, help="grid of rho values")
    table.add_argument("--sigma", type=float, default=1.0)
    table.add_argument("--out", required=True, help="CSV output path")
    table.set_defaults(handler=cmd_table_moments)

    verify = subparsers.add_parser("verify", help="run the identity grid and write a JSON report")
    verify.add_argument("--grid", choices=["default", "small"], default="default")
    verify.add_argument("--grid-n", default=None, help="override n grid")
    verify.add_argument("--grid-rho", default=None, help="override rho grid")
    verify.add_argument("--sigma", type=float, default=1.0)
    verify.add_argument("--tol", type=float, default=None, help="override every tolerance")
    verify.add_argument("--out", required=True, help="JSON report path")
    verify.set_defaults(handler=cmd_verify)

    simulate = subparsers.add_parser("simulate", help="replicate a functional and summarize it")
    _add_model_flags(simulate)
    _add_run_flags(simulate)
    simulate.add_argument(
        "--functional",
        required=True,
        choices=[f.value for f in Functional],
        help="per-path statistic to accumulate",
    )
    simulate.add_argument("--out", required=True, help="summary output path")
    simulate.add_argument(
        "--values-out", default=None, help="optional per-replication value dump (CSV)"
    )
    simulate.add_argument("--format", choices=["csv", "json"], default="csv")
    simulate.set_defaults(handler=cmd_simulate, **_SIMULATION_DEFAULTS)

    density = subparsers.add_parser(
        "density", help="dump a Student density (dual route) or a simulated KDE"
    )
    density.add_argument("--dof", type=float, default=None, help="law mode: degrees of freedom")
    density.add_argument(
        "--functional",
        default=None,
        choices=[f.value for f in Functional],
        help="simulation mode: statistic to estimate",
    )
    _add_model_flags(density)
    _add_run_flags(density)
    density.add_argument("--bandwidth", type=float, default=None)
    density.add_argument("--grid-t", required=True, help="evaluation grid for t")
    density.add_argument("--out", required=True, help="CSV output path")
    density.set_defaults(handler=cmd_density)

    # a config key is read as the exact flag it names, never as an
    # abbreviation of another one ("grid" is no "--grid-t")
    for sub in (table, verify, simulate, density):
        sub.allow_abbrev = False
    return parser


def _config_flags(path: str | None) -> list[str]:
    """The config file's non-null entries as '--key=value' flags."""
    if path is None:
        return []
    with open(path) as handle:
        loaded = json.load(handle)
    if not isinstance(loaded, dict):
        raise ValueError("config file must hold a JSON object of flag defaults")
    return [f"--{str(k).replace('_', '-')}={v}" for k, v in loaded.items() if v is not None]


_NEGATIVE_VALUE = re.compile(r"^-[\d.]")


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join '--flag -0.8,...' into '--flag=-0.8,...' so argparse accepts it.

    Every flag here takes a value, so a token starting '-<digit>' right
    after a long flag can only be that flag's value.
    """
    merged: list[str] = []
    for token in argv:
        last = merged[-1] if merged else ""
        if last.startswith("--") and "=" not in last and _NEGATIVE_VALUE.match(token):
            merged[-1] = f"{last}={token}"
        else:
            merged.append(token)
    return merged


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parse_argv = _merge_negative_values(argv)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    phases: dict[str, float] = {}
    try:
        known, rest = pre.parse_known_args(parse_argv)
        injected = _config_flags(known.config)
        # config flags go right after the subcommand, so explicit flags win;
        # the ones the subcommand lacks come back unparsed and are dropped
        parser = build_parser()
        args, leftover = parser.parse_known_args(rest[:1] + injected + rest[1:])
        unknown = [token for token in leftover if token not in injected]
        if unknown:
            parser.error(f"unrecognized arguments: {' '.join(unknown)}")
        # every value numpy would warn of prints as nan/inf or ends in an exit code
        with np.errstate(all="ignore"):
            code, outputs, config = args.handler(args, phases)
        _write_manifest(args.out, args.command, argv, outputs, phases, config)
        return code
    except SystemExit as exc:  # argparse's: --help, or a usage error it has printed
        return 0 if exc.code in (0, None) else 2
    except Exception as exc:  # exit 1 is reserved for a failed verification
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2

