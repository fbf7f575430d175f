"""BLAS threads of a CLI process.

One worker model: a CLI process runs numpy's BLAS on one thread, so the
--workers pool of Philox blocks is its parallelism. Helper threads only spin
after the small products most commands make. The exception is a dense
O(n^3) product at large n, where the helpers do real work: `threads_for`
runs such products on every CPU the process may use. Both apply only where
the program chose the one-thread default; a user's OPENBLAS_NUM_THREADS
wins everywhere, and library callers keep whatever their BLAS does.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager

__all__ = ["THREADED_MIN_N", "default_to_one_thread", "threads_for"]

# the smallest n whose dense products run threaded: at n=200 a second thread
# saved no wall time, at n=500 and n=1000 it saved about a quarter
THREADED_MIN_N = 500

_VARIABLE = "OPENBLAS_NUM_THREADS"
_defaulted = False  # set once this process chose the one-thread default


def default_to_one_thread() -> None:
    """Run BLAS on one thread unless the user set the variable; call before numpy loads."""
    global _defaulted
    if _VARIABLE not in os.environ:
        os.environ[_VARIABLE] = "1"
        _defaulted = True


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _thread_setter():
    """numpy's bundled OpenBLAS thread setter, or None under any other BLAS."""
    try:
        from numpy._core import _multiarray_umath

        # dlsym through the extension module also searches the BLAS it links
        setter = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], None
    return setter


@contextmanager
def threads_for(n: int):
    """Run the enclosed dense products of size n on every usable CPU when n is large."""
    cpus = _usable_cpus()
    setter = _thread_setter() if _defaulted and n >= THREADED_MIN_N and cpus > 1 else None
    if setter is None:
        yield
        return
    setter(cpus)
    try:
        yield
    finally:
        setter(1)
