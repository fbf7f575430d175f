"""The package namespace is the union of its modules' ``__all__`` lists."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ar1_tstat

MODULES = (
    "params", "matrices", "process", "oracle", "moments",
    "tstat", "student", "montecarlo", "verification",
)


def _listed():
    return [
        (module, name)
        for module in MODULES
        for name in importlib.import_module(f"ar1_tstat.{module}").__all__
    ]


def test_every_listed_name_is_the_modules_own_object():
    for module, name in _listed():
        owner = importlib.import_module(f"ar1_tstat.{module}")
        assert getattr(ar1_tstat, name) is getattr(owner, name), f"{module}.{name}"


def test_no_name_is_listed_by_two_modules():
    names = [name for _, name in _listed()]
    assert len(names) == len(set(names))


def test_package_all_is_version_plus_the_module_lists():
    assert ar1_tstat.__all__ == ["__version__", *(name for _, name in _listed())]
    assert len(ar1_tstat.__all__) == 62
    assert set(dir(ar1_tstat)) >= {*ar1_tstat.__all__, *MODULES}


@pytest.mark.parametrize("name", ["no_such_name", "covariance_with_mean_total", "_MAX_SEED"])
def test_a_name_no_module_lists_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(ar1_tstat, name)


def test_re_wrapping_helpers_are_callable_but_not_public():
    from ar1_tstat import moments, oracle

    listed = {name for _, name in _listed()}
    assert "covariance_with_mean_total" not in listed
    assert "covariance_with_mean" not in oracle.__all__
    p = ar1_tstat.Ar1Params(mu=0.0, sigma=1.0, rho=0.5, n=5)
    assert moments.covariance_with_mean_total is moments.variance_of_scaled_mean
    assert oracle.covariance_with_mean(p, 2) == oracle.mean_covariance_profile(p)[1]
    assert ar1_tstat.covariance_with_mean is moments.covariance_with_mean


@pytest.mark.parametrize(
    "module, name",
    [("tstat", "StatKind"), ("moments", "compare_all"), ("tstat", "noncentrality")],
)
def test_retired_copies_resolve_nowhere(module, name):
    # the statistic kind is the engine's Functional; moment_grid maps compare_moment
    # itself; sqrt(n) mu / sigma was the noncentrality of neither statistic at rho != 0
    assert not hasattr(importlib.import_module(f"ar1_tstat.{module}"), name)
    assert name not in ar1_tstat.__all__
    with pytest.raises(AttributeError, match=name):
        getattr(ar1_tstat, name)


@pytest.mark.parametrize(
    "owner, name",
    [
        ("Ar1Params", "marginal_variance"),
        ("Ar1Params", "marginal_std"),
        ("MomentReport", "authoritative"),
    ],
)
def test_retired_properties_raise_attribute_error(owner, name):
    # no code read them; the marginal variance divided by 1 - rho**2, 5e-10 off near |rho| = 1
    p = ar1_tstat.Ar1Params(mu=0.0, sigma=1.0, rho=0.5, n=5)
    instance = {
        "Ar1Params": p,
        "MomentReport": ar1_tstat.compare_moment(ar1_tstat.MomentQuantity.SAMPLE_VARIANCE_MEAN, p),
    }[owner]
    with pytest.raises(AttributeError, match=name):
        getattr(instance, name)


def test_a_t_statistic_kind_is_a_functional():
    p = ar1_tstat.Ar1Params(mu=0.0, sigma=1.0, rho=0.5, n=3)
    classical = ar1_tstat.t_statistic([1.0, 2.0, 4.0])
    modified = ar1_tstat.modified_t_statistic([1.0, 2.0, 4.0], params=p)
    assert isinstance(classical.kind, ar1_tstat.Functional)
    assert (classical.kind, modified.kind) == (
        ar1_tstat.Functional.T_STAT,
        ar1_tstat.Functional.MODIFIED_T_STAT,
    )


def test_params_names_load_no_numpy_and_cli_loads_only_params():
    probe = (
        "import sys, ar1_tstat; ar1_tstat.Ar1Params; ar1_tstat.Functional; "
        "print('numpy' in sys.modules); from ar1_tstat import cli; "
        "print(','.join(sorted(m for m in sys.modules if m.startswith('ar1_tstat.'))))"
    )
    src = str(Path(ar1_tstat.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == ["False", "ar1_tstat.cli,ar1_tstat.params"]
