"""The benchmark tracer wraps package functions by name; each must still exist.

``bench/spans.py`` swaps every ``(module, attribute)`` of its ``_TRACED``
list, plus ``process.stream_generator`` and ``StudentLaw.cdf``, for a
recording wrapper. A rename or removal in the package would otherwise
surface only when a traced benchmark run fails. The module is imported
read-only: no bytecode is written under ``bench/``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def traced():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(spans)
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
        sys.modules.pop("workloads", None)
    return [(module, attr) for module, attr, _, _ in spans._TRACED]


def _resolve(module_name, attr):
    owner = importlib.import_module(f"ar1_tstat.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_name_resolves(traced):
    assert traced
    names = traced + [("process", "stream_generator"), ("student", "StudentLaw.cdf")]
    missing = []
    for module, attr in names:
        try:
            if not callable(_resolve(module, attr)):
                missing.append(f"{module}.{attr} (not callable)")
        except AttributeError:
            missing.append(f"{module}.{attr}")
    assert not missing, f"bench/spans.py traces names the package lacks: {missing}"
