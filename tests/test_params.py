import math

import numpy as np
import pytest

from ar1_tstat import Ar1Params, STATIONARITY_MARGIN, StudentLaw


def test_fields_and_derived_quantities():
    p = Ar1Params(mu=0.5, sigma=2.0, rho=0.3, n=25)
    assert p.mu == 0.5 and p.sigma == 2.0 and p.rho == 0.3 and p.n == 25
    assert p.marginal_variance == pytest.approx(4.0 / (1.0 - 0.09), rel=1e-15)
    assert p.marginal_std == pytest.approx(math.sqrt(p.marginal_variance), rel=1e-15)


def test_iid_case_marginal_equals_innovation():
    p = Ar1Params(mu=0.0, sigma=1.7, rho=0.0, n=5)
    assert p.marginal_variance == 1.7 * 1.7


def test_frozen():
    p = Ar1Params(mu=0.0, sigma=1.0, rho=0.0, n=3)
    with pytest.raises(AttributeError):
        p.rho = 0.5


@pytest.mark.parametrize("rho", [1.0, -1.0, 1.5, -2.0, 1.0 - STATIONARITY_MARGIN / 2])
def test_nonstationary_rho_rejected(rho):
    with pytest.raises(ValueError, match="stationarity"):
        Ar1Params(mu=0.0, sigma=1.0, rho=rho, n=10)


def test_rho_just_inside_margin_accepted():
    Ar1Params(mu=0.0, sigma=1.0, rho=1.0 - STATIONARITY_MARGIN, n=10)
    Ar1Params(mu=0.0, sigma=1.0, rho=-(1.0 - STATIONARITY_MARGIN), n=10)


@pytest.mark.parametrize("sigma", [0.0, -1.0])
def test_nonpositive_sigma_rejected(sigma):
    with pytest.raises(ValueError, match="sigma"):
        Ar1Params(mu=0.0, sigma=sigma, rho=0.0, n=10)


@pytest.mark.parametrize("n", [0, 1, -3])
def test_short_sample_rejected(n):
    with pytest.raises(ValueError, match="n must be at least 2"):
        Ar1Params(mu=0.0, sigma=1.0, rho=0.0, n=n)


def test_non_integer_n_rejected():
    with pytest.raises(TypeError):
        Ar1Params(mu=0.0, sigma=1.0, rho=0.0, n=2.5)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_mu_rejected(bad):
    with pytest.raises(ValueError):
        Ar1Params(mu=bad, sigma=1.0, rho=0.0, n=4)


def test_bool_fields_rejected():
    # bool is an int subclass; it must not slip through as a numeric field
    with pytest.raises(TypeError):
        Ar1Params(mu=True, sigma=1.0, rho=0.0, n=4)


def test_integer_inputs_normalized_to_float():
    p = Ar1Params(mu=1, sigma=2, rho=0, n=4)
    assert isinstance(p.mu, float) and isinstance(p.sigma, float)
    assert isinstance(p.rho, float)


@pytest.mark.parametrize(
    "field, value",
    [("rho", np.float32(0.5)), ("rho", np.float64(-0.25)), ("mu", np.int64(1)), ("sigma", np.uint8(2))],
)
def test_numpy_real_scalars_accepted(field, value):
    p = Ar1Params(**{"mu": 0.0, "sigma": 1.0, "rho": 0.0, "n": 4, field: value})
    assert getattr(p, field) == float(value) and type(getattr(p, field)) is float


@pytest.mark.parametrize("field", ["mu", "sigma", "rho"])
@pytest.mark.parametrize("bad", [np.True_, "0.5", None, 1j])
def test_non_real_fields_rejected(field, bad):
    with pytest.raises(TypeError, match=f"{field} must be a real number"):
        Ar1Params(**{"mu": 0.0, "sigma": 1.0, "rho": 0.0, "n": 4, field: bad})


@pytest.mark.parametrize("bad", [True, np.True_, 4.0, np.float64(4.0), "4"])
def test_non_integer_n_kinds_rejected(bad):
    with pytest.raises(TypeError, match="n must be an integer"):
        Ar1Params(mu=0.0, sigma=1.0, rho=0.0, n=bad)


def test_numpy_integer_n_normalized_to_int():
    assert type(Ar1Params(mu=0.0, sigma=1.0, rho=0.0, n=np.int64(5)).n) is int


def test_student_dof_accepts_numpy_reals_and_rejects_bool():
    assert StudentLaw(np.int64(9)).dof == 9.0 and type(StudentLaw(np.float32(2.5)).dof) is float
    for bad in (True, np.True_, "9"):
        with pytest.raises(TypeError, match="dof must be a real number"):
            StudentLaw(bad)
