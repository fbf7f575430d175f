import json
import math

import pytest

from ar1_tstat import (
    Ar1Params,
    IdentityCheck,
    MomentQuantity,
    VerificationReport,
    compare_moment,
    moments,
    oracle,
    run_verification,
    verification,
)
from ar1_tstat.verification import (
    DEFAULT_N_GRID,
    DEFAULT_RHO_GRID,
    SMALL_N_GRID,
    SMALL_RHO_GRID,
)


@pytest.fixture(scope="module")
def small_report():
    return run_verification(n_grid=SMALL_N_GRID, rho_grid=SMALL_RHO_GRID)


@pytest.mark.parametrize("bad", [2.7, 2.0, True])
def test_non_integer_grid_n_rejected(bad):
    # 2.7 is refused, not run as n = 2
    with pytest.raises(TypeError, match="n must be an integer"):
        run_verification(n_grid=[bad], rho_grid=[0.5])


@pytest.mark.parametrize("n_grid, rho_grid", [([], [0.5]), ([2], []), ((), ())])
def test_empty_grid_rejected(n_grid, rho_grid):
    # an empty grid checks nothing: it used to pass with every max_gap 0.0 at n=0
    with pytest.raises(ValueError, match="non-empty n grid and rho grid"):
        run_verification(n_grid=n_grid, rho_grid=rho_grid)


def test_small_grid_passes(small_report):
    assert isinstance(small_report, VerificationReport)
    assert small_report.passed
    assert all(isinstance(c, IdentityCheck) for c in small_report.checks)
    assert all(c.passed for c in small_report.checks)


def test_check_names_cover_the_identity_stack(small_report):
    names = {c.name for c in small_report.checks}
    assert "cholesky_reproduces_covariance" in names
    assert "whitening_diagonalizes_covariance" in names
    assert "precision_inverts_covariance" in names
    assert "sample_variance_mean_matches_oracle" in names
    assert "scaled_mean_variance_matches_oracle" in names


def test_worst_point_recorded(small_report):
    for check in small_report.checks:
        assert check.worst_n in SMALL_N_GRID
        assert check.worst_rho in SMALL_RHO_GRID
        assert check.max_gap >= 0.0


def test_fourth_moment_discrepancies_collected(small_report):
    """Every nonzero-rho grid point must appear for both fourth-moment forms."""
    flagged = small_report.discrepancies
    assert all(r.discrepant for r in flagged)
    points = {(r.params.n, r.params.rho, r.quantity) for r in flagged}
    expect = {
        (n, rho, q)
        for n in SMALL_N_GRID
        for rho in SMALL_RHO_GRID
        if rho != 0.0
        for q in (
            MomentQuantity.SAMPLE_VARIANCE_SECOND_MOMENT,
            MomentQuantity.SAMPLE_VARIANCE_VARIANCE,
        )
    }
    assert points == expect


def test_discrepancies_do_not_fail_the_run(small_report):
    # flagged fourth moments are reported, not fatal
    assert small_report.passed
    assert len(small_report.discrepancies) > 0


def test_default_grid_is_the_acceptance_grid():
    assert DEFAULT_N_GRID == (2, 3, 5, 10, 50, 200)
    assert DEFAULT_RHO_GRID == (-0.99, -0.5, 0.0, 0.5, 0.9, 0.99)


def test_as_dict_round_trips_through_json(small_report):
    blob = json.dumps(small_report.as_dict())
    loaded = json.loads(blob)
    assert loaded["passed"] is True
    assert len(loaded["checks"]) == len(small_report.checks)
    assert loaded["checks"][0]["name"] == small_report.checks[0].name
    assert len(loaded["discrepancies"]) == len(small_report.discrepancies)
    first = loaded["discrepancies"][0]
    assert {"quantity", "n", "rho", "closed_form", "oracle", "rel_gap"} <= set(first)


def test_tolerance_override_can_force_failure():
    report = run_verification(
        n_grid=(5, 10), rho_grid=(0.5,), tolerance_override=1e-18
    )
    assert not report.passed
    assert any(not c.passed for c in report.checks)


def test_sigma_propagates():
    report = run_verification(n_grid=(4,), rho_grid=(0.3,), sigma=2.5)
    assert report.sigma == 2.5
    assert report.passed


def test_moment_grid_covers_every_scalar_quantity():
    [(p, reports)] = verification.moment_grid([12], [0.7], 1.0)
    assert p == Ar1Params(mu=0.0, sigma=1.0, rho=0.7, n=12)
    # one report per quantity, evaluated in the enum's order
    assert list(reports) == list(MomentQuantity)
    assert all(report.quantity is q for q, report in reports.items())
    kinds = {r.quantity for r in reports.values()}
    assert kinds == {
        MomentQuantity.SCALED_MEAN_VARIANCE,
        MomentQuantity.MEAN_COVARIANCE_SQUARE_SUM,
        MomentQuantity.SAMPLE_VARIANCE_MEAN,
        MomentQuantity.SAMPLE_VARIANCE_SECOND_MOMENT,
        MomentQuantity.SAMPLE_VARIANCE_VARIANCE,
    }
    flagged = {r.quantity for r in reports.values() if r.discrepant}
    assert flagged == {
        MomentQuantity.SAMPLE_VARIANCE_SECOND_MOMENT,
        MomentQuantity.SAMPLE_VARIANCE_VARIANCE,
    }


def test_moment_routes_look_up_functions_at_call_time(monkeypatch):
    """Swapping a module attribute reaches every route that evaluates it.

    Call-time tracing (swapping module attributes) relies on this; a
    dispatch table bound at import would keep calling the originals.
    """
    calls = []

    def spy(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    spy(oracle, "form_variance")
    spy(moments, "mean_of_sample_variance")
    p = Ar1Params(mu=0.0, sigma=1.0, rho=0.5, n=5)
    compare_moment(MomentQuantity.SAMPLE_VARIANCE_VARIANCE, p)
    compare_moment(MomentQuantity.SAMPLE_VARIANCE_MEAN, p)
    assert calls == ["form_variance", "mean_of_sample_variance"]
    calls.clear()
    run_verification(n_grid=[3, 5], rho_grid=[0.5])
    assert sorted(calls) == ["form_variance"] * 2 + ["mean_of_sample_variance"] * 2


def test_nan_gap_is_the_worst_gap(monkeypatch):
    # NaN > worst is False, so the worst gap is taken by np.argmax, which finds a NaN
    real = verification._matrix_gaps

    def gaps(params):
        found = real(params)
        if params.n == 3:
            found["whitening_gram_is_precision"] = math.nan
        return found

    monkeypatch.setattr(verification, "_matrix_gaps", gaps)
    report = run_verification(n_grid=(2, 3, 5), rho_grid=(0.5,))
    checks = {c.name: c for c in report.checks}
    nan_check = checks.pop("whitening_gram_is_precision")
    # the first NaN stays the worst gap; the finite gap at n=5 does not replace it
    assert math.isnan(nan_check.max_gap) and nan_check.worst_n == 3
    assert not nan_check.passed and not report.passed
    assert all(c.passed and not math.isnan(c.max_gap) for c in checks.values())
