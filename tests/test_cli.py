"""End-to-end CLI behavior through main(); the import, no-scipy and BLAS-thread checks spawn a process."""

import concurrent.futures.process
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ar1_tstat
from ar1_tstat import (
    Ar1Params,
    BLOCK_SIZE,
    Functional,
    cli,
    linear_combination_law,
    montecarlo,
    verification,
)
from ar1_tstat.cli import _merge_negative_values, _parse_grid, build_parser, main
from ar1_tstat.student import QuadratureError, StudentLaw

TABLE_HEADER = (
    "n,rho,sigma,var_num_closed,var_num_oracle,e_s2_closed,e_s2_oracle,"
    "e_s4_closed,e_s4_oracle,var_s2_closed,var_s2_oracle,max_rel_gap,discrepancy_flag"
)


def _read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


# -- grid parsing -------------------------------------------------------------


def test_parse_grid_comma_list():
    assert _parse_grid("2,5,10", integer=True) == [2, 5, 10]
    assert _parse_grid("-0.5, 0.0 ,0.5") == [-0.5, 0.0, 0.5]


def test_parse_grid_range():
    assert _parse_grid("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert _parse_grid("2:6:2", integer=True) == [2, 4, 6]


@pytest.mark.parametrize(
    "bad", ["", "1:2", "1:2:0", "a,b", "2.5", "nan:1:1", "inf", "2,inf", "1e400", "nan"]
)
def test_parse_grid_rejects_malformed(bad):
    with pytest.raises(ValueError):
        _parse_grid(bad, integer=True)


@pytest.mark.parametrize(
    "spec, message",
    [
        ("a:1:1", "non-numeric range spec 'a:1:1'"),
        ("0:1:x", "non-numeric range spec '0:1:x'"),
        (",", "grid spec ',' produces no values"),
        (" , ,", "grid spec ', ,' produces no values"),
    ],
)
def test_parse_grid_names_the_fault(spec, message):
    with pytest.raises(ValueError, match=message):
        _parse_grid(spec)


def test_parse_grid_bounds_range_length():
    # counted before the list is built: 1e15 values would never finish
    assert len(_parse_grid("1:1000000:1")) == cli._MAX_RANGE_VALUES
    for spec in ("0:1000000:1", "0:1e12:1e-3", "-1e308:1e308:1e-300"):
        with pytest.raises(ValueError, match="more than"):
            _parse_grid(spec)
    with pytest.raises(ValueError, match="no values"):
        _parse_grid("1e308:-1e308:1")


def test_oversized_range_exit_code(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert main(["density", "--dof", "3", "--grid-t=0:1e12:1e-3", "--out", str(out)]) == 2
    _assert_one_line_error(capsys)
    assert not out.exists()


def test_merge_negative_values():
    argv = ["verify", "--grid-rho", "-0.9,0.0", "--out", "x.json"]
    merged = _merge_negative_values(argv)
    assert merged == ["verify", "--grid-rho=-0.9,0.0", "--out", "x.json"]
    # plain flags and positive values pass through untouched
    assert _merge_negative_values(["--n", "5"]) == ["--n", "5"]


# -- table-moments ------------------------------------------------------------


def test_table_moments_layout(tmp_path):
    out = tmp_path / "table.csv"
    rc = main(
        ["table-moments", "--grid-n", "2,5", "--grid-rho", "-0.5:0.5:0.5", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == TABLE_HEADER
    rows = _read_rows(out)
    assert len(rows) == 6
    iid = next(r for r in rows if r["n"] == "5" and float(r["rho"]) == 0.0)
    assert float(iid["e_s2_closed"]) == 1.0
    assert iid["discrepancy_flag"] == "0"
    corr = next(r for r in rows if r["n"] == "5" and float(r["rho"]) == 0.5)
    assert corr["discrepancy_flag"] == "1"
    assert float(corr["max_rel_gap"]) > 1e-8
    # closed == oracle for the trustworthy columns
    assert float(corr["var_num_closed"]) == pytest.approx(
        float(corr["var_num_oracle"]), rel=1e-13
    )
    manifest = json.loads((tmp_path / "table.csv.manifest.json").read_text())
    assert manifest["command"] == "table-moments"
    assert manifest["outputs"] == [str(out)]


def test_table_moments_flags_nan_gap(tmp_path):
    # at sigma = 1e200 the moments overflow (the closed fourth moments to
    # -inf, the oracle to inf), so gaps are NaN, and max(0.0, nan) is 0.0
    out = tmp_path / "table.csv"
    args = ["table-moments", "--grid-n", "2,5", "--grid-rho", "0.5", "--sigma", "1e200"]
    assert main(args + ["--out", str(out)]) == 0
    rows = _read_rows(out)
    assert [(r["max_rel_gap"], r["discrepancy_flag"]) for r in rows] == [("nan", "1")] * 2


def test_table_moments_rerun_identical_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["table-moments", "--grid-n", "2,3", "--grid-rho", "0.9", "--sigma", "1.5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# -- verify -------------------------------------------------------------------


def test_verify_small_grid(tmp_path, capsys):
    out = tmp_path / "verify.json"
    rc = main(["verify", "--grid", "small", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "PASS" in printed and "FAIL" not in printed
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["grid"]["n"] == [2, 3, 10, 50]


def test_verify_grid_overrides(tmp_path):
    out = tmp_path / "verify.json"
    rc = main(["verify", "--grid-n", "4,6", "--grid-rho", "-0.7,0.7", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["grid"]["n"] == [4, 6]
    assert report["grid"]["rho"] == [-0.7, 0.7]


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_verify_invalid_tolerance_is_a_usage_error(tmp_path, capsys, tol):
    # a typo in --tol must not read as a failed verification (exit 1)
    rc = main(["verify", "--grid", "small", f"--tol={tol}", "--out", str(tmp_path / "v.json")])
    assert rc == 2
    _assert_one_line_error(capsys)
    assert not (tmp_path / "v.json").exists()


def _reject_non_json_constant(name):
    raise AssertionError(f"{name} is not strict JSON")


def test_verify_nan_gap_fails(tmp_path, capsys):
    # overflowing moments give NaN gaps; each must fail its check, not pass at 0;
    # on the small grid the covariances with the mean overflow to inf and -inf,
    # which have no sum, so that check's gap is NaN too
    out = tmp_path / "verify.json"
    for grid in (["--grid-n", "2,5", "--grid-rho", "0.5"], ["--grid", "small"]):
        rc = main(["verify", *grid, "--sigma", "1e200", "--out", str(out)])
        assert rc == 1
        stdout = capsys.readouterr().out
        failed = [line for line in stdout.splitlines() if line.startswith("FAIL")]
        assert failed and all("max gap nan" in line for line in failed)
        assert "FAIL mean_covariance_sum_is_total" in stdout
        report = json.loads(out.read_text(), parse_constant=_reject_non_json_constant)
        assert report["passed"] is False
        assert {check["max_gap"] for check in report["checks"] if not check["passed"]} == {"nan"}


def test_verify_tolerance_override_fails(tmp_path, capsys):
    out = tmp_path / "verify.json"
    rc = main(
        ["verify", "--grid-n", "5", "--grid-rho", "0.5", "--tol", "1e-18", "--out", str(out)]
    )
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out
    assert json.loads(out.read_text())["passed"] is False


# -- simulate -----------------------------------------------------------------


def test_simulate_summary_row(tmp_path):
    out = tmp_path / "sim.csv"
    rc = main(
        [
            "simulate", "--functional", "tstat", "--n", "6", "--rho", "0",
            "--reps", "4000", "--seed", "99", "--out", str(out),
        ]
    )
    assert rc == 0
    row = _read_rows(out)[0]
    assert row["functional"] == "tstat"
    assert row["used"] == "4000"
    assert row["ks_reference"] == "student-t(5)"
    assert float(row["ks_p_value"]) > 0.0
    manifest = json.loads((tmp_path / "sim.csv.manifest.json").read_text())
    assert manifest["seed"] == 99
    assert manifest["replications"] == 4000
    assert manifest["params"]["n"] == 6


def test_simulate_mean_uses_exact_normal_reference(tmp_path):
    out = tmp_path / "sim.csv"
    rc = main(
        [
            "simulate", "--functional", "mean", "--n", "5", "--rho", "0.3",
            "--reps", "3000", "--seed", "7", "--out", str(out),
        ]
    )
    assert rc == 0
    row = _read_rows(out)[0]
    assert row["ks_reference"].startswith("normal(")
    assert float(row["ks_p_value"]) > 1e-6


def test_normal_reference_cdf_bits_and_memory():
    cdf, _ = cli._reference_cdf(Functional.SAMPLE_MEAN, Ar1Params(mu=0.5, sigma=1.0, rho=0.4, n=6))
    x = np.random.default_rng(3).standard_normal(100_000) * 3.0
    tracemalloc.start()
    try:
        got = cdf(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the scaled arguments and the result; an object array of Python floats
    # on the way would add four more arrays' worth
    assert peak < 2.5 * x.nbytes
    law = linear_combination_law(Ar1Params(mu=0.5, sigma=1.0, rho=0.4, n=6), np.full(6, 1.0 / 6))
    scale = law.std * math.sqrt(2.0)
    for i in (0, 1, 500, 99_999):
        assert got[i] == 0.5 * (1.0 + math.erf((x[i] - law.mean) / scale))


def test_normal_reference_cdf_is_bit_equal_to_the_erf_closure():
    # the pinned sim.csv run: NormalLaw.cdf repeats the front end's former
    # closure, operation for operation
    params = Ar1Params(mu=0.2, sigma=1.0, rho=0.3, n=7)
    config = montecarlo.SimulationConfig(params, replications=5000, seed=5)
    x = montecarlo.simulate_functional(config, Functional.SAMPLE_MEAN)
    cdf, _ = cli._reference_cdf(Functional.SAMPLE_MEAN, params)
    law = linear_combination_law(params, np.full(7, 1.0 / 7))
    z = (x - law.mean) / (law.std * math.sqrt(2.0))
    want = np.fromiter(map(math.erf, z.ravel()), float, z.size).reshape(z.shape)
    want += 1.0
    want *= 0.5
    assert cdf(x).tobytes() == want.tobytes()


def test_simulate_mean_runs_at_a_hundred_thousand_steps(tmp_path):
    # the sample mean's law is one O(n) sweep: no n x n matrix (74.5 GiB here).
    # A small launcher forks the run: a child's ru_maxrss starts from the
    # pages it shares with its parent at the fork, here the whole test process
    out = tmp_path / "mean.csv"
    argv = ["simulate", "--functional", "mean", "--n", "100000", "--rho", "0.5"]
    launcher = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"
    command = [sys.executable, "-c", launcher, sys.executable, "-m", "ar1_tstat", *argv]
    command += ["--reps", "100", "--seed", "1", "--out", str(out)]
    done = subprocess.run(command, env=_child_env(), capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert manifest["run"]["peak_rss_mb"]["self"] < 100.0
    assert _read_rows(out)[0]["ks_reference"] == "normal(0,3.99995e-05)"


def test_simulate_s2_has_no_reference_law(tmp_path):
    out = tmp_path / "sim.csv"
    rc = main(
        [
            "simulate", "--functional", "s2", "--n", "5", "--rho", "0.4",
            "--reps", "2000", "--seed", "7", "--out", str(out),
        ]
    )
    assert rc == 0
    row = _read_rows(out)[0]
    assert row["ks_statistic"] == "" and row["ks_p_value"] == "" and row["ks_reference"] == ""


def test_simulate_json_format(tmp_path):
    out = tmp_path / "sim.json"
    rc = main(
        [
            "simulate", "--functional", "s2", "--n", "4", "--rho", "-0.2",
            "--reps", "1500", "--seed", "3", "--format", "json", "--out", str(out),
        ]
    )
    assert rc == 0
    blob = json.loads(out.read_text())
    assert blob["functional"] == "s2"
    assert blob["ks_statistic"] is None
    assert blob["used"] == 1500


def test_simulate_values_dump(tmp_path):
    out, vals = tmp_path / "sim.csv", tmp_path / "vals.csv"
    rc = main(
        [
            "simulate", "--functional", "mean", "--n", "4", "--rho", "0",
            "--reps", "250", "--seed", "5", "--out", str(out), "--values-out", str(vals),
        ]
    )
    assert rc == 0
    lines = vals.read_text().splitlines()
    assert lines[0] == "value"
    assert len(lines) == 251
    # values round-trip at full precision
    floats = [float(v) for v in lines[1:]]
    assert math.isfinite(floats[0])
    manifest = json.loads((tmp_path / "sim.csv.manifest.json").read_text())
    assert manifest["outputs"] == [str(out), str(vals)]


def _traced_main(argv) -> tuple[int, int]:
    # the exit code and traced peak of a second run: the first loads what a
    # process loads once, about 1.3 arrays at 2e5 replications
    main(argv)
    tracemalloc.start()
    try:
        rc = main(argv)
        return rc, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.numpy_floor
def test_simulate_values_dump_memory(tmp_path):
    # the dump is joined a block of 2**16 values at a time; one string of
    # every line (and a list of every value) peaked at 14.6 sample arrays
    reps = 200_000
    out, vals = tmp_path / "sim.csv", tmp_path / "vals.csv"
    rc, peak = _traced_main(
        [
            "simulate", "--functional", "tstat", "--n", "10", "--rho", "0.8", "--reps", str(reps),
            "--seed", "314", "--out", str(out), "--values-out", str(vals),
        ]
    )
    assert rc == 0
    assert peak < 7 * 8 * reps


@pytest.mark.numpy_floor
def test_simulate_values_dump_memory_at_a_million(tmp_path):
    # the dump is written in draw order before the KS sorts the values in
    # place; a KS on a copy, kept while the dump needed the order, peaked at
    # 4.5 sample arrays
    reps = 1_000_000
    out, vals = tmp_path / "sim.csv", tmp_path / "vals.csv"
    rc, peak = _traced_main(
        [
            "simulate", "--functional", "tstat", "--n", "10", "--rho", "0.8", "--reps", str(reps),
            "--seed", "314", "--out", str(out), "--values-out", str(vals),
        ]
    )
    assert rc == 0
    assert peak < 4.0 * 8 * reps


@pytest.mark.parametrize("workers", ["1", "2"])
def test_summary_does_not_depend_on_the_dump(tmp_path, workers):
    argv = [
        "simulate", "--functional", "tstat", "--n", "6", "--rho", "0.7",
        "--reps", str(2 * BLOCK_SIZE), "--seed", "11", "--workers", workers,
    ]
    plain, dumped = tmp_path / "plain.csv", tmp_path / "dumped.csv"
    assert main([*argv, "--out", str(plain)]) == 0
    assert main([*argv, "--out", str(dumped), "--values-out", str(tmp_path / "vals.csv")]) == 0
    assert plain.read_bytes() == dumped.read_bytes()
    assert len((tmp_path / "vals.csv").read_text().splitlines()) == 2 * BLOCK_SIZE + 1


@pytest.mark.parametrize(
    "flags",
    [
        ["--functional", "s2", "--sigma", "1e200"],  # sigma^2 overflows
        ["--functional", "mtstat", "--mu", "1e200"],  # the location's squares overflow
        ["--functional", "mtstat", "--mu", "1e300", "--sigma", "1e-10"],  # mu / sigma does
    ],
    ids=["s2", "mtstat", "mtstat-location"],
)
def test_overflowing_squared_deviations_fail_visibly(tmp_path, capsys, flags):
    # a value that overflows is no value: every replication is dropped and
    # the run fails with one error line instead of printing a summary
    out = tmp_path / "sim.csv"
    rc = main(
        [
            "simulate", *flags, "--n", "5", "--rho", "0.5", "--reps", "1000", "--seed", "1",
            "--out", str(out),
        ]
    )
    assert rc == 2
    assert capsys.readouterr().err == "error: need at least two usable replications\n"
    assert not out.exists()


@pytest.mark.parametrize("functional", ["tstat", "mtstat"])
def test_t_values_do_not_depend_on_sigma(tmp_path, functional):
    # at mu = 0 a t-value is a function of rho and the draws alone; the
    # engine runs at unit scale, so no sigma underflows or overflows it
    dumps = []
    for sigma in ("1e-200", "1", "1e200"):
        vals = tmp_path / f"vals-{sigma}.csv"
        done = _run_module(
            [
                "simulate", "--functional", functional, "--n", "5", "--rho", "0.5",
                "--sigma", sigma, "--reps", "1000", "--seed", "1",
                "--out", str(tmp_path / f"sim-{sigma}.csv"), "--values-out", str(vals),
            ]
        )
        assert (done.returncode, done.stderr) == (0, "")
        dumps.append(vals.read_bytes())
    assert dumps[0] == dumps[1] == dumps[2]


@pytest.mark.parametrize(
    "alias", ["sim.csv", "sub/../sim.csv", "link.csv", "sim.csv.manifest.json"]
)
def test_values_out_may_not_overwrite_the_summary_or_its_manifest(
    tmp_path, capsys, monkeypatch, alias
):
    # rejected before simulating: the value dump would replace the file it names
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.csv").symlink_to(tmp_path / "sim.csv")
    monkeypatch.setattr(montecarlo, "simulate_functional", _raise(AssertionError("simulated")))
    rc = main(
        [
            "simulate", "--functional", "mean", "--n", "4", "--rho", "0",
            "--reps", "10", "--seed", "5", "--out", str(tmp_path / "sim.csv"),
            "--values-out", str(tmp_path / alias),
        ]
    )
    assert rc == 2
    _assert_one_line_error(capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "sub"]


# SHA-256 of `simulate --values-out` at n=7, rho=0.3, mu=0.2, seed 2024 and
# BLOCK_SIZE + 9 replications (a full block plus a partial one). A change of
# numpy's random stream, of the recursion or of the statistic kernel moves
# these digests even when every run-against-run comparison still agrees. A
# digest is changed only by the README's re-pin procedure.
PINNED_VALUE_DIGESTS = {
    "mean": "d332eb7e70702581e5b800553af2efe23c144a97b05acb4cca267f1bddb7169c",
    "s2": "bdbea930a99ecaca4ad84c84d3060160318fb95ad75b01d791fc16153ff06b10",
    "tstat": "05960f7009652597f0f35871fbf3ef6496a03bfa9225646026e24080ad6da90a",
    "mtstat": "08b05c22d6833c39c36dd970c017108ad875a010d770b885c90166600ae9ce2b",
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("functional", sorted(PINNED_VALUE_DIGESTS))
def test_simulate_values_dump_is_pinned(tmp_path, functional, workers):
    out, vals = tmp_path / "sim.csv", tmp_path / "vals.csv"
    rc = main(
        [
            "simulate", "--functional", functional, "--n", "7", "--rho", "0.3",
            "--mu", "0.2", "--reps", str(BLOCK_SIZE + 9), "--seed", "2024",
            "--workers", str(workers), "--out", str(out), "--values-out", str(vals),
        ]
    )
    assert rc == 0
    digest = hashlib.sha256(vals.read_bytes()).hexdigest()
    assert digest == PINNED_VALUE_DIGESTS[functional]


_LONG_DOUBLE_80 = np.finfo(np.longdouble).nmant == 63

# SHA-256 of each primary output of a small run per output writer, so a
# refactor of the grid evaluator or of the CSV/JSON writers that moves a
# byte fails here. The verify and table-moments bits come from the 80-bit
# trace oracle and are pinned only where long double is 80-bit.
PINNED_OUTPUT_DIGESTS = [
    (
        "verify.json",
        "verify --grid small",
        "3e8151edef7fe93d3600b86c82604affe3427c2cc4116de376478d384ada0590",
        True,
    ),
    (
        "table.csv",
        "table-moments --grid-n 4,9 --grid-rho=-0.9:0.9:0.3 --sigma 0.6",
        "f9d10e3b50205c1d2808589797bfaefafea5c561288bf764cb0cb6ba22ccd781",
        True,
    ),
    (
        "sim.csv",
        "simulate --functional mean --n 7 --rho 0.3 --mu 0.2 --reps 5000 --seed 5",
        "23d6c26359b7ea4cabcf33b097061c6de0fce7c54f5d110751d88dbdc6d63bb1",
        False,
    ),
    (
        "sim.json",
        "simulate --functional s2 --n 7 --rho 0.3 --reps 5000 --seed 5 --format json",
        "99cd640099ae25805790f4b71947e045c67b9a9b2fb3467ad9bdffe2e878fd78",
        False,
    ),
    (
        # 82 of its t(1) values lie beyond |t| = 30, in the cdf's tail sum
        "mtstat.csv",
        "simulate --functional mtstat --n 2 --rho 0.9 --reps 5000 --seed 5",
        "ad671bd010a3ddd90b39b15fb8ba8aab462a59f17c4c2294949577ba75209047",
        False,
    ),
    (
        "kde.csv",
        "density --functional tstat --n 10 --rho 0.8 --reps 20000 --seed 314 "
        "--grid-t=-6:6:0.1",
        "e64d95dda79b67b967bb484b24c0dc4063d2e8809c2acaf4a99d2aef80a04a57",
        False,
    ),
    (
        "law.csv",
        "density --dof 9 --grid-t=-8:8:0.1",
        "6bc571daa3a352f086fa7f49c44b0a5d565005443cfd6f616ce8e52baeb3a275",
        False,
    ),
]


def _child_env(**overrides) -> dict:
    src = str(Path(ar1_tstat.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return {**env, "PYTHONPATH": src, **overrides}


def _run_module(argv, preexec_fn=None, **env) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "ar1_tstat", *argv],
        env=_child_env(**env),
        capture_output=True,
        text=True,
        preexec_fn=preexec_fn,
    )


def _launch_main(argv) -> int:
    return main(argv)


def _launch_module(argv) -> int:
    # python -m runs BLAS on one thread: the bits must not move
    done = _run_module(argv)
    assert done.returncode == 0, done.stderr
    return done.returncode


@pytest.mark.parametrize(
    "launch, output, command, digest, needs_80_bit",
    [(launch, *entry) for launch in (_launch_main, _launch_module) for entry in PINNED_OUTPUT_DIGESTS],
    ids=[
        entry[0] + suffix for suffix in ("", "-python-m") for entry in PINNED_OUTPUT_DIGESTS
    ],
)
def test_primary_output_is_pinned(tmp_path, launch, output, command, digest, needs_80_bit):
    if needs_80_bit and not _LONG_DOUBLE_80:
        pytest.skip("the oracle's bits are pinned only with 80-bit long double")
    out = tmp_path / output
    assert launch(command.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_simulate_worker_flag_does_not_leak_into_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = [
        "simulate", "--functional", "tstat", "--n", "5", "--rho", "0.2",
        "--reps", "2000", "--seed", "11",
    ]
    assert main(base + ["--workers", "1", "--out", str(a)]) == 0
    assert main(base + ["--workers", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_worker_environment_variable_is_not_read(tmp_path, monkeypatch):
    # --workers (default 1) is the only source of the worker count: a value
    # the program once parsed from the environment no longer fails the run
    monkeypatch.setenv("AR1_TSTAT_WORKERS", "abc")
    out = tmp_path / "sim.csv"
    argv = [
        "simulate", "--functional", "mean", "--n", "4", "--rho", "0",
        "--reps", "1000", "--seed", "13", "--out", str(out),
    ]
    assert main(argv) == 0
    assert json.loads((tmp_path / "sim.csv.manifest.json").read_text())["environment"]["workers"] == 1


def test_simulate_rejects_nonstationary_rho(tmp_path, capsys):
    rc = main(
        [
            "simulate", "--functional", "tstat", "--n", "5", "--rho", "1.5",
            "--reps", "10", "--seed", "1", "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert rc == 2
    assert "stationarity" in capsys.readouterr().err


def test_usage_error_exit_code(tmp_path, capsys):
    assert main(["simulate", "--functional", "bogus"]) == 2
    assert main(["no-such-command"]) == 2
    out = tmp_path / "v.json"
    assert main(["verify", "--grid", "small", "--bogus", "1", "--out", str(out)]) == 2
    assert "unrecognized arguments: --bogus 1" in capsys.readouterr().err
    assert not out.exists()


def _raise(exc):
    def raiser(*args, **kwargs):
        raise exc

    return raiser


def _assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_quadrature_failure_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        StudentLaw, "density_integral", _raise(QuadratureError("did not converge"))
    )
    rc = main(["density", "--dof", "3", "--grid-t", "0,1", "--out", str(tmp_path / "d.csv")])
    assert rc == 2
    _assert_one_line_error(capsys)


def test_real_quadrature_failure_exits_2_from_the_module():
    # dof 7e6 makes the gamma-kernel integral rounding-bound at once; the
    # error is resolved on main's error path, not imported up front
    done = _run_module(["density", "--dof", "7e6", "--grid-t", "0", "--out", os.devnull])
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: gamma-kernel integral is rounding-bound")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


def test_broken_pool_exit_code(tmp_path, capsys, monkeypatch):
    broken = concurrent.futures.process.BrokenProcessPool("a worker died")
    monkeypatch.setattr(montecarlo, "simulate_functional", _raise(broken))
    rc = main(
        [
            "simulate", "--functional", "tstat", "--n", "5", "--rho", "0.5",
            "--reps", "10", "--seed", "1", "--workers", "2",
            "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert rc == 2
    _assert_one_line_error(capsys)


def test_memory_error_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(verification, "run_verification", _raise(MemoryError()))
    rc = main(["verify", "--grid", "small", "--out", str(tmp_path / "v.json")])
    assert rc == 2
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("exc", [RuntimeError("boom"), OverflowError("big"), ZeroDivisionError()])
def test_any_error_exit_code(tmp_path, capsys, monkeypatch, exc):
    # one failure policy: any error is exit 2 with one line, never a traceback
    monkeypatch.setattr(verification, "run_verification", _raise(exc))
    out = tmp_path / "v.json"
    rc = main(["verify", "--grid", "small", "--out", str(out)])
    assert rc == 2
    _assert_one_line_error(capsys)
    assert not out.exists() and not (tmp_path / "v.json.manifest.json").exists()


def test_overflowing_reference_law_exits_2_before_drawing(tmp_path):
    # sigma**2 overflows the sample-mean law, which is resolved before any
    # path is drawn: no numpy overflow warning, no traceback, one error line
    out = tmp_path / "sim.csv"
    done = _run_module(
        [
            "simulate", "--functional", "mean", "--n", "4", "--rho", "0", "--sigma", "1e200",
            "--reps", "100", "--seed", "1", "--out", str(out),
        ]
    )
    assert done.returncode == 2
    assert done.stderr == "error: the variance overflows at sigma = 1e+200\n"
    assert done.stdout == "" and not out.exists()


_OVERFLOW = ["--n", "5", "--rho", "0.5", "--reps", "1000", "--seed", "1"]
_TOO_FEW = "error: need at least two usable replications\n"


@pytest.mark.parametrize(
    "argv, code, err",
    [
        # a t-value does not depend on sigma: nothing overflows
        (["simulate", "--functional", "tstat", *_OVERFLOW, "--sigma", "1e200"], 0, ""),
        (["simulate", "--functional", "s2", *_OVERFLOW, "--sigma", "1e200"], 2, _TOO_FEW),
        (
            # two blocks in two forked workers, which inherit main's rule;
            # the squares of the whitened location overflow there
            [
                "simulate", "--functional", "mtstat", "--n", "5", "--rho", "0.5",
                "--mu", "1e200", "--reps", str(2 * BLOCK_SIZE), "--seed", "1",
                "--workers", "2",
            ],
            2,
            _TOO_FEW,
        ),
        (["simulate", "--functional", "s2", *_OVERFLOW, "--sigma", "1e100"], 0, ""),
        (["density", "--functional", "s2", *_OVERFLOW, "--sigma", "1e150", "--grid-t", "0,1"], 0, ""),
        (["verify", "--grid", "small", "--sigma", "1e200"], 1, ""),
        (["table-moments", "--grid-n", "2,5", "--grid-rho", "0.5", "--sigma", "1e200"], 0, ""),
    ],
    ids=[
        "simulate-tstat", "simulate-s2", "simulate-pool", "simulate-s2-exit-0", "density-kde",
        "verify", "table-moments",
    ],
)
def test_numpy_warnings_never_reach_stderr(tmp_path, argv, code, err):
    # overflowing values print as nan or inf, or end the run with exit 2
    done = _run_module([*argv, "--out", str(tmp_path / "out")])
    assert done.returncode == code
    assert done.stderr == err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--functional", "tstat"],
        ["density", "--functional", "tstat", "--grid-t", "0,1"],
    ],
    ids=["simulate", "density"],
)
def test_a_simulation_names_every_missing_flag(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert main([*argv, "--n", "5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: a simulation needs --rho, --reps, --seed\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["table-moments", "--grid-n", "inf", "--grid-rho", "0.5"],
        ["table-moments", "--grid-n", "2,inf", "--grid-rho", "0.5"],
        ["table-moments", "--grid-n", "1e400", "--grid-rho", "0.5"],
        ["density", "--dof", "3", "--grid-t=inf"],
    ],
)
def test_non_finite_grid_value_exit_code(tmp_path, capsys, argv):
    # exit 1 is reserved for a failed verification; no traceback, no output
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 2
    _assert_one_line_error(capsys)
    assert not out.exists()


def test_cli_import_does_not_load_scipy(tmp_path):
    # scipy is a test dependency only: with its import blocked, every command
    # (and the simulate functionals, all four) still runs to exit 0
    runs = [
        ["verify", "--grid", "small"],
        ["table-moments", "--grid-n", "2,5", "--grid-rho", "0.5"],
        ["density", "--dof", "9", "--grid-t=-2:2:1"],
        ["density", "--dof", "0.5", "--grid-t", "0,1"],
        [
            "density", "--functional", "tstat", "--n", "6", "--rho", "0.4",
            "--reps", "500", "--seed", "3", "--grid-t", "0,1",
        ],
    ] + [
        ["simulate", "--functional", f, "--n", "5", "--rho", "0.3", "--reps", "500", "--seed", "3"]
        for f in ("tstat", "mtstat", "mean", "s2")
    ]
    argvs = [argv + ["--out", str(tmp_path / f"out{i}")] for i, argv in enumerate(runs)]
    probe = (
        "import sys; sys.modules['scipy'] = None; from ar1_tstat.cli import main; "
        f"print([main(argv) for argv in {argvs!r}])"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=_child_env(), capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == str([0] * len(runs))
    # the sample-mean run still tests against its normal reference
    mean_run = next(i for i, argv in enumerate(runs) if "mean" in argv)
    summary = _read_rows(tmp_path / f"out{mean_run}")[0]
    assert summary["ks_reference"].startswith("normal(") and float(summary["ks_p_value"]) > 0.0


def test_heavy_tailed_tstat_run_does_not_load_scipy(tmp_path):
    # n=2 at rho=0.9 gives |t| far beyond 30, so the KS test reaches the
    # tail side of the Student cdf
    src = str(Path(ar1_tstat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out, vals = tmp_path / "sim.csv", tmp_path / "vals.csv"
    argv = [
        "simulate", "--functional", "tstat", "--n", "2", "--rho", "0.9",
        "--reps", "5000", "--seed", "7", "--out", str(out), "--values-out", str(vals),
    ]
    probe = (
        "import sys; from ar1_tstat.cli import main; "
        f"rc = main({argv!r}); print(rc, 'scipy' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == ["0", "False"]
    values = np.array([float(v) for v in vals.read_text().splitlines()[1:]])
    assert np.nanmax(np.abs(values)) > 30.0
    # the program never loads scipy, so its manifest does not name it
    manifest = json.loads((tmp_path / "sim.csv.manifest.json").read_text())
    assert "scipy" not in manifest["environment"]


# -- entry point: a lazy package and one BLAS thread ---------------------------


def test_package_import_loads_no_numpy():
    # python -m imports the package before __main__ can set the BLAS threads
    probe = (
        "import sys, ar1_tstat; print('numpy' in sys.modules); ns = {}; "
        "exec('from ar1_tstat import *', ns); "
        "print(all(ns[name] is getattr(ar1_tstat, name) for name in ar1_tstat.__all__))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=_child_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "True"]


_FOOTPRINT_PROBE = """
import json, sys
from ar1_tstat.cli import main
argv = json.loads(sys.argv[1])
rc = 0 if argv is None else main(argv)
print(rc, json.dumps(sorted(sys.modules)))
"""


def _run_footprint(argv) -> tuple[int, set]:
    """Exit code of main(argv) in a fresh interpreter, and its sys.modules."""
    done = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_PROBE, json.dumps(argv)],
        env=_child_env(),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    rc, modules = done.stdout.splitlines()[-1].split(" ", 1)
    return int(rc), set(json.loads(modules))


_GRID_MODULES = ("moments", "verification", "oracle", "matrices")
_SIMULATION_MODULES = ("montecarlo", "process", "tstat", "student")
_SMALL_SIMULATION = ["--n", "5", "--rho", "0.3", "--reps", "500", "--seed", "3"]


@pytest.mark.parametrize(
    "argv, loaded, absent",
    [
        (None, (), _GRID_MODULES + _SIMULATION_MODULES),
        (
            # the grid evaluator lives next to the comparison it iterates
            ["table-moments", "--grid-n", "2,5", "--grid-rho", "0.5"],
            ("moments", "oracle"),
            ("verification", "matrices", *_SIMULATION_MODULES),
        ),
        (["verify", "--grid-n", "2,5", "--grid-rho", "0.5"], _GRID_MODULES, _SIMULATION_MODULES),
        (
            ["density", "--dof", "9", "--grid-t", "0,1"],
            ("student",),
            ("montecarlo", "moments", "verification", "oracle", "matrices", "process", "tstat"),
        ),
        (
            ["density", "--functional", "tstat", *_SMALL_SIMULATION, "--grid-t", "0,1"],
            ("montecarlo", "process", "tstat"),
            ("moments", "verification", "oracle", "matrices"),
        ),
        (
            ["simulate", "--functional", "tstat", *_SMALL_SIMULATION],
            _SIMULATION_MODULES,
            ("moments", "verification", "oracle", "matrices"),
        ),
        (
            ["simulate", "--functional", "mean", *_SMALL_SIMULATION],
            ("montecarlo", "process", "tstat"),
            ("student", "matrices", "moments", "verification", "oracle"),
        ),
        (
            # no reference law: no Student law either
            ["simulate", "--functional", "s2", *_SMALL_SIMULATION],
            ("montecarlo", "process", "tstat"),
            ("student", "matrices", "moments", "verification", "oracle"),
        ),
    ],
    ids=[
        "import-cli", "table-moments", "verify", "density-law", "density-kde", "simulate",
        "simulate-mean", "simulate-s2",
    ],
)
def test_each_command_loads_only_its_modules(tmp_path, argv, loaded, absent):
    if argv is not None:
        argv = [*argv, "--out", str(tmp_path / "out")]
    rc, modules = _run_footprint(argv)
    assert rc == 0
    assert {f"ar1_tstat.{name}" for name in loaded} <= modules
    assert not {f"ar1_tstat.{name}" for name in absent} & modules
    # only a run whose pool starts imports concurrent.futures, and the
    # Gauss-Legendre table is a literal: no command runs leggauss
    assert "concurrent.futures" not in modules
    assert "numpy.polynomial" not in modules


def test_only_a_pool_run_loads_concurrent_futures(tmp_path):
    argv = [
        "simulate", "--functional", "mean", "--n", "4", "--rho", "0.3",
        "--reps", str(2 * BLOCK_SIZE), "--seed", "5", "--workers", "2",
        "--out", str(tmp_path / "pool.csv"),
    ]
    rc, modules = _run_footprint(argv)
    assert rc == 0 and "concurrent.futures" in modules
    env = json.loads((tmp_path / "pool.csv.manifest.json").read_text())["environment"]
    assert (env["workers"], env["philox_blocks"]) == (2, 2)


@pytest.mark.parametrize("given, recorded", [(None, "1"), ("2", "2")])
def test_module_entry_defaults_to_one_blas_thread(tmp_path, given, recorded):
    # the default is set only where the user set nothing
    out = tmp_path / "t.csv"
    env = {} if given is None else {"OPENBLAS_NUM_THREADS": given}
    argv = ["table-moments", "--grid-n", "2", "--grid-rho", "0.5", "--out", str(out)]
    done = _run_module(argv, **env)
    assert done.returncode == 0, done.stderr
    manifest = json.loads((tmp_path / "t.csv.manifest.json").read_text())
    assert manifest["environment"]["blas_threads"] == recorded


@pytest.mark.parametrize("variant", ["one-blas-thread", "one-cpu"])
def test_large_n_verify_bytes_follow_no_thread_or_cpu_count(tmp_path, variant):
    # the last bits of a dense product's gap follow the BLAS thread count, so
    # the default runs one thread at every n, whatever the host's CPU count
    env, pin = {}, None
    if variant == "one-blas-thread":
        env = {"OPENBLAS_NUM_THREADS": "1"}
    else:
        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()
        if len(cpus) < 2:
            pytest.skip("needs CPU affinity and more than one usable CPU")
        pin = lambda: os.sched_setaffinity(0, {min(cpus)})  # noqa: E731
    argv = ["verify", "--grid-n", "500", "--grid-rho=-0.5,0.5", "--out"]
    default, other = tmp_path / "default.json", tmp_path / "other.json"
    assert _run_module(argv + [str(default)]).returncode == 0
    assert _run_module(argv + [str(other)], preexec_fn=pin, **env).returncode == 0
    assert default.read_bytes() == other.read_bytes()
    for out in (default, other):
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["environment"]["blas_threads"] == "1"


# -- density ------------------------------------------------------------------


def test_density_law_mode(tmp_path):
    out = tmp_path / "den.csv"
    rc = main(["density", "--dof", "3", "--grid-t", "-2:2:1", "--out", str(out)])
    assert rc == 0
    rows = _read_rows(out)
    assert [r["t"] for r in rows] == ["-2", "-1", "0", "1", "2"]
    for r in rows:
        assert float(r["pdf_closed"]) == pytest.approx(float(r["pdf_integral"]), rel=1e-10)


def test_density_simulation_mode(tmp_path):
    out = tmp_path / "kde.csv"
    rc = main(
        [
            "density", "--functional", "tstat", "--n", "6", "--rho", "0.4",
            "--reps", "5000", "--seed", "17", "--grid-t", "-3:3:0.5", "--out", str(out),
        ]
    )
    assert rc == 0
    rows = _read_rows(out)
    assert len(rows) == 13
    dens = np.array([float(r["kde"]) for r in rows])
    assert np.all(dens >= 0.0)
    assert dens[6] == dens.max()  # peak near zero


@pytest.mark.numpy_floor
def test_density_simulation_mode_memory(tmp_path):
    # the KDE sorts the simulated values in place and computes Silverman's
    # bandwidth on them: a sorted copy and a second finite copy made 4.0 arrays
    reps = 200_000
    rc, peak = _traced_main(
        [
            "density", "--functional", "tstat", "--n", "10", "--rho", "0.8", "--reps", str(reps),
            "--seed", "314", "--grid-t=-6:6:0.1", "--out", str(tmp_path / "kde.csv"),
        ]
    )
    assert rc == 0
    assert peak < 2.5 * 8 * reps


def test_density_modes_are_exclusive(tmp_path, capsys):
    rc = main(
        [
            "density", "--dof", "3", "--functional", "tstat", "--grid-t", "0,1",
            "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert rc == 2
    assert "exactly one" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("n", "10"), ("rho", "0.5"), ("mu", "0"), ("sigma", "1"),
        ("reps", "5"), ("seed", "1"), ("workers", "1"), ("bandwidth", "0.2"),
    ],
)
def test_density_law_mode_refuses_each_simulation_flag(tmp_path, capsys, flag, value):
    # law mode reads --dof, --grid-t and --out; a flag it would drop is an
    # error, also when its value is simulation mode's default
    out = tmp_path / "x.csv"
    argv = ["density", "--dof", "9", "--grid-t=-1:1:1", f"--{flag}", value, "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: --dof reads only --grid-t and --out, not --{flag}\n"
    assert list(tmp_path.iterdir()) == []


def test_density_law_mode_refuses_config_keys_too(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "workers": 1}))
    out = tmp_path / "law.csv"
    law = ["density", "--dof", "9", "--grid-t=-8:8:0.1", "--out", str(out)]
    assert main(["--config", str(cfg), *law, "--n", "10", "--bandwidth", "0.2"]) == 2
    assert capsys.readouterr().err == (
        "error: --dof reads only --grid-t and --out, not --n, --seed, --workers, --bandwidth\n"
    )
    assert list(tmp_path.iterdir()) == [cfg]
    # without them, the bench's law-mode run prints its pinned bytes
    assert main(law) == 0
    pinned = {output: digest for output, _, digest, _ in PINNED_OUTPUT_DIGESTS}
    assert hashlib.sha256(out.read_bytes()).hexdigest() == pinned["law.csv"]


def test_a_parsed_command_carries_the_defaults_only_simulate_reads():
    # a parsed simulate command holds numbers (bench/spans.py times a pool run
    # from one); density leaves them None, so law mode can tell a set flag
    run = ["--n", "5", "--rho", "0.1", "--reps", "3", "--seed", "1", "--out", "x"]
    simulate = build_parser().parse_args(["simulate", "--functional", "tstat", *run])
    density = build_parser().parse_args(["density", "--dof", "3", "--grid-t", "0", "--out", "x"])
    assert (simulate.mu, simulate.sigma, simulate.workers) == (0.0, 1.0, 1)
    assert (density.mu, density.sigma, density.workers) == (None, None, None)


def test_density_simulation_mode_missing_flags(tmp_path, capsys):
    rc = main(
        ["density", "--functional", "tstat", "--grid-t", "0,1", "--out", str(tmp_path / "x.csv")]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "--n" in err and "--seed" in err


# -- config file --------------------------------------------------------------


def test_config_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"reps": 1200, "seed": 44, "sigma": 2.0}))
    out = tmp_path / "sim.csv"
    rc = main(
        [
            "--config", str(cfg), "simulate", "--functional", "mean",
            "--n", "4", "--rho", "0.1", "--out", str(out),
        ]
    )
    assert rc == 0
    row = _read_rows(out)[0]
    assert row["seed"] == "44"
    assert row["replications"] == "1200"
    assert float(row["sigma"]) == 2.0


def test_explicit_flag_beats_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 44, "reps": 1000}))
    out = tmp_path / "sim.csv"
    rc = main(
        [
            "--config", str(cfg), "simulate", "--functional", "mean",
            "--n", "4", "--rho", "0.1", "--seed", "123", "--out", str(out),
        ]
    )
    assert rc == 0
    assert _read_rows(out)[0]["seed"] == "123"


def test_config_must_be_json_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    rc = main(["--config", str(cfg), "verify", "--out", str(tmp_path / "v.json")])
    assert rc == 2
    assert "JSON object" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    rc = main(["--config", str(tmp_path / "nope.json"), "verify", "--out", "x"])
    assert rc == 2


def test_config_key_the_subcommand_lacks_is_ignored(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"reps": 5, "grid": "small"}))
    assert main(["--config", str(cfg), "verify", "--out", str(tmp_path / "v.json")]) == 0
    # "grid" is not read as an abbreviation of --grid-n/--grid-rho
    out = tmp_path / "t.csv"
    argv = ["table-moments", "--grid-n", "2", "--grid-rho", "0.1", "--out", str(out)]
    assert main(["--config", str(cfg), *argv]) == 0


def test_config_values_are_converted_like_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"reps": "1200", "seed": 44}))
    out = tmp_path / "sim.csv"
    rc = main(
        [
            "--config", str(cfg), "simulate", "--functional", "mean",
            "--n", "4", "--rho", "0.1", "--out", str(out),
        ]
    )
    assert rc == 0
    assert _read_rows(out)[0]["replications"] == "1200"


def test_config_value_is_validated_like_a_flag(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"functional": "bogus"}))
    rc = main(
        [
            "--config", str(cfg), "simulate", "--n", "4", "--rho", "0.1",
            "--reps", "10", "--seed", "1", "--out", str(tmp_path / "sim.csv"),
        ]
    )
    assert rc == 2


# -- manifest -----------------------------------------------------------------


@pytest.mark.numpy_floor
def test_manifest_records_argv(tmp_path):
    out = tmp_path / "t.csv"
    argv = ["table-moments", "--grid-n", "2", "--grid-rho", "-0.5", "--out", str(out)]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "t.csv.manifest.json").read_text())
    assert manifest["argv"] == argv
    assert manifest["tool_version"]
    assert manifest["timestamp"]
    env = manifest["environment"]
    assert env["numpy"] == np.__version__
    assert env["longdouble_eps"] == float(np.finfo(np.longdouble).eps)
    assert env["blas_threads"] == os.environ.get("OPENBLAS_NUM_THREADS")
    assert "workers" not in env and "philox_blocks" not in env
    assert set(manifest["run"]["wall_s"]) == {"import", "grid", "write"}
    peak = manifest["run"]["peak_rss_mb"]
    assert peak["self"] > 0.0 and peak["children"] >= 0.0
    # numpy's SIMD baseline and the dispatch targets the host enables
    assert sorted(env["simd"]) == ["baseline", "dispatch"]
    assert all(isinstance(t, str) for t in env["simd"]["baseline"] + env["simd"]["dispatch"])
    assert not set(env["simd"]["baseline"]) & set(env["simd"]["dispatch"])


MANIFEST_KEYS = [
    "command", "params", "seed", "replications", "tool_version", "timestamp",
    "outputs", "argv", "environment", "run",
]
SIM_FLAGS = ["--n", "4", "--rho", "0.3", "--reps", "300", "--seed", "5"]


@pytest.mark.parametrize(
    "argv, code, simulated",
    [
        (["table-moments", "--grid-n", "2", "--grid-rho", "0.5"], 0, False),
        (["verify", "--grid-n", "5", "--grid-rho", "0.5"], 0, False),
        (["verify", "--grid-n", "5", "--grid-rho", "0.5", "--tol", "0"], 1, False),
        (["simulate", "--functional", "tstat", *SIM_FLAGS, "--values-out", "VALUES"], 0, True),
        (["density", "--dof", "3", "--grid-t", "0,1"], 0, False),
        (["density", "--functional", "s2", *SIM_FLAGS, "--grid-t", "0,1"], 0, True),
        (["simulate", "--functional", "tstat", *SIM_FLAGS, "--rho", "1.5"], 2, True),
    ],
    ids=[
        "table-moments", "verify", "verify-fails", "simulate", "density-law", "density-kde",
        "usage-error",
    ],
)
def test_main_writes_each_run_record(tmp_path, capsys, argv, code, simulated):
    out, values, record = tmp_path / "out", tmp_path / "values.csv", tmp_path / "out.manifest.json"
    dumps = "VALUES" in argv
    argv = [str(values) if token == "VALUES" else token for token in argv] + ["--out", str(out)]
    assert main(argv) == code
    if code == 2:
        # a run that could not start or finish leaves no record
        _assert_one_line_error(capsys)
        assert not record.exists() and not out.exists()
        return
    # a failed verification (exit 1) still writes its report and the manifest
    assert out.exists() and values.exists() == dumps
    manifest = json.loads(record.read_text())
    assert list(manifest) == MANIFEST_KEYS
    assert manifest["command"] == argv[0]
    assert manifest["argv"] == argv
    assert manifest["outputs"] == [str(out)] + ([str(values)] if dumps else [])
    assert (manifest["params"] is not None) == simulated
    assert (manifest["seed"], manifest["replications"]) == ((5, 300) if simulated else (None, None))
    assert ("workers" in manifest["environment"]) == simulated
    assert manifest["run"]["wall_s"]["write"] >= 0.0


@pytest.mark.numpy_floor
def test_manifest_simd_drops_a_target_numpy_was_told_to_disable(tmp_path):
    argv = ["table-moments", "--grid-n", "2", "--grid-rho", "0.5", "--out"]
    assert main(argv + [str(tmp_path / "host.csv")]) == 0
    host = json.loads((tmp_path / "host.csv.manifest.json").read_text())["environment"]["simd"]
    if not host["dispatch"]:
        pytest.skip("the host enables no dispatch target beyond numpy's baseline")
    target = host["dispatch"][-1]  # the highest: no enabled target builds on it
    # appended to any inherited list, which would otherwise come back on in the child
    inherited = os.environ.get("NPY_DISABLE_CPU_FEATURES", "")
    disabled = f"{inherited} {target}".strip()
    done = _run_module(argv + [str(tmp_path / "off.csv")], NPY_DISABLE_CPU_FEATURES=disabled)
    assert done.returncode == 0, done.stderr
    off = json.loads((tmp_path / "off.csv.manifest.json").read_text())["environment"]["simd"]
    assert off["baseline"] == host["baseline"]
    assert target not in off["dispatch"] and set(off["dispatch"]) <= set(host["dispatch"])


def test_manifest_records_simulation_telemetry(tmp_path, monkeypatch):
    out = tmp_path / "sim.csv"
    argv = [
        "simulate", "--functional", "mean", "--n", "4", "--rho", "0.3",
        "--reps", str(2 * BLOCK_SIZE + 1), "--seed", "5", "--workers", "2", "--out", str(out),
    ]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "sim.csv.manifest.json").read_text())
    env = manifest["environment"]
    assert "scipy" not in env
    assert (env["workers"], env["philox_blocks"]) == (2, 3)
    wall = manifest["run"]["wall_s"]
    assert list(wall) == ["import", "simulate", "summarize", "ks", "write"]
    assert all(seconds >= 0.0 for seconds in wall.values())
    # the pool workers are reaped children of this process
    assert manifest["run"]["peak_rss_mb"]["children"] > 0.0
    faults = manifest["run"]["minor_faults"]
    assert sorted(faults) == ["children", "self"]
    assert all(isinstance(count, int) for count in faults.values())
    assert faults["self"] > 0 and faults["children"] > 0

    out = tmp_path / "kde.csv"
    argv = [
        "density", "--functional", "s2", "--n", "4", "--rho", "0.3", "--reps", "500",
        "--seed", "5", "--grid-t=0:2:0.5", "--out", str(out),
    ]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "kde.csv.manifest.json").read_text())
    assert (manifest["environment"]["workers"], manifest["environment"]["philox_blocks"]) == (1, 1)
    assert list(manifest["run"]["wall_s"]) == ["import", "simulate", "kde", "write"]

    # the manifest records the pool that ran: one block leaves no work for a second process
    one_block = [
        "simulate", "--functional", "mean", "--n", "4", "--rho", "0.3", "--reps", "1000",
        "--seed", "5", "--workers", "4", "--out", str(tmp_path / "one.csv"),
    ]
    assert main(one_block) == 0
    env = json.loads((tmp_path / "one.csv.manifest.json").read_text())["environment"]
    assert (env["workers"], env["philox_blocks"]) == (1, 1)

    # without the resource module (Windows) both usage records are null
    monkeypatch.setattr(cli, "resource", None)
    assert main(argv) == 0
    run = json.loads((tmp_path / "kde.csv.manifest.json").read_text())["run"]
    assert run["peak_rss_mb"] is None and run["minor_faults"] is None
